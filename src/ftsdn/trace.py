"""Timestamped observation records consumed by the correctness checker.

One JSON object per line; field names are the schema. Timestamps are logical
milliseconds in deterministic mode and wall-clock nanoseconds in socket mode.

``TraceLog.emit`` is the one way a record enters the trace, and this module
the one that knows how a record is stored: ``emit`` extends one flat list
with its nine fields, kind to detail. The fields are strings, numbers,
``None`` and ``detail`` dicts. CPython's collector does not track a dict
whose values are all atomic (strings, numbers, ``None``, bytes, tuples of
strings, once the first collection has untracked the tuple), so a long run
adds one tracked list, not 10^5 tracked objects that every full collection
must walk and that push it to collect more often.

An emitted detail is read-only and may be shared: the trace keeps the dict
it is given, and a detail that takes few values (``event-collected``,
``delivered``, ``marker-received``, ``commit-sent``, a packet-in's
``event-emitted``) is one dict per value, reused by its emitter for every
record that carries it.

The three kinds emitted per packet keep their details atomic by storing a
compact form. ``emit`` compacts two through ``_COMPACT``: ``switch-exec`` is
given its command and stores the encoded OpenFlow body, ``log-append`` its
seq and log body and stores the body's flat fields and the event message's
encoded body (``None`` for a switch failure). The switch gives
``event-emitted`` its connections as a tuple. ``as_dicts`` renders the
three through ``_RENDER`` once, in place: the rendered dict replaces the
compact one in the list, and a detail shared by several records stays
shared. Every reader of records thus sees only JSON, sharing each detail
with the trace. One ``list.extend`` with a tuple runs no Python code, so
under the interpreter lock it lands all nine fields at once and socket
threads emit without a lock.
"""

from __future__ import annotations

import json
import threading
from itertools import islice
from typing import Callable, Iterable, Iterator

from . import ofwire
from .coord import ProcessedBody, body_to_json
from .events import SwitchEvent


class TraceParseError(Exception):
    def __init__(self, line_no: int, reason: str) -> None:
        super().__init__(f"trace line {line_no}: {reason}")
        self.line_no = line_no


_WIDTH = 9  # fields per record


def _switch_exec_compact(detail: dict) -> dict:
    return {"command": ofwire.encode_body(detail["command"]), "origin": detail["origin"],
            "controller": detail["controller"]}


def _switch_exec_json(detail: dict) -> dict:
    return {**detail, "command": ofwire.to_json(ofwire.decode_body(detail["command"]))}


def _event_emitted_json(detail: dict) -> dict:
    return {**detail, "conns": list(detail["conns"])}


def _log_append_compact(detail: dict) -> dict:
    body = detail["body"]
    if isinstance(body, ProcessedBody):
        return {"seq": detail["seq"], "body": "processed", "event_id": body.event_id}
    msg = body.message
    return {
        "seq": detail["seq"], "body": "event", "event_id": body.event_id, "switch_id": body.switch_id,
        "switch_seq": body.switch_seq, "kind": body.kind,
        "message": None if msg is None else ofwire.encode_body(msg),
    }


def _log_append_json(detail: dict) -> dict:
    if detail["body"] == "processed":
        body = ProcessedBody(detail["event_id"])
    else:
        msg = detail["message"]
        body = SwitchEvent(
            detail["switch_id"], detail["switch_seq"], detail["kind"],
            None if msg is None else ofwire.decode_body(msg), detail["event_id"],
        )
    return {"seq": detail["seq"], "body": body_to_json(body)}


# The kinds ``emit`` stores compact, each with the function that builds the compact
# detail from its caller's. Each builds a new dict of atomic values and never copies
# the caller's: a copy made while it held an object stays tracked until a full collection.
_COMPACT: dict[str, Callable[[dict], dict]] = {
    "switch-exec": _switch_exec_compact,
    "log-append": _log_append_compact,
}

# the kinds whose detail is stored compact, each with the function that renders it as JSON
_RENDER: dict[str, Callable[[dict], dict]] = {
    "switch-exec": _switch_exec_json,
    "event-emitted": _event_emitted_json,
    "log-append": _log_append_json,
}


def _record_dict(kind, actor, timestamp, epoch, event_id, switch_id, switch_seq, bundle_id, detail) -> dict:
    """The JSON form of one record whose detail is JSON, in stored field order;
    unset fields are left out."""
    d: dict = {"kind": kind, "actor": actor, "timestamp": timestamp}
    if epoch is not None:
        d["epoch"] = epoch
    if event_id is not None:
        d["event_id"] = event_id
    if switch_id is not None:
        d["switch_id"] = switch_id
    if switch_seq is not None:
        d["switch_seq"] = switch_seq
    if bundle_id is not None:
        d["bundle_id"] = bundle_id
    if detail is not None:
        d["detail"] = detail
    return d


class TraceLog:
    """Append-only collector; per-actor records appear in emission order."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._fields: list = []  # _WIDTH fields per record, in the order emit stores them
        self._rendered = 0  # the fields below this index hold no compact detail
        self._render_lock = threading.Lock()

    def emit(
        self,
        kind: str,
        actor: str,
        *,
        epoch: int | None = None,
        event_id: int | None = None,
        switch_id: str | None = None,
        switch_seq: int | None = None,
        bundle_id: int | None = None,
        detail: dict | None = None,
    ) -> None:
        """Append one record. A kind in ``_COMPACT`` is given its detail in its
        natural form, and the compact form is stored instead. Nodes look ``emit``
        up on every call, so a wrapper put on it after they are built sees every record."""
        compact = _COMPACT.get(kind)
        if compact is not None:
            detail = compact(detail)
        self._fields.extend(
            (kind, actor, self._clock(), epoch, event_id, switch_id, switch_seq, bundle_id, detail)
        )

    def as_dicts(self) -> list[dict]:
        # Records emitted by other threads after this line are left out, and
        # rendered by the next call. One iterator zipped with itself walks the
        # list in place, a record at a time.
        end = len(self._fields)
        self._render(end)
        fields = islice(self._fields, end)
        return [_record_dict(*rec) for rec in zip(*[fields] * _WIDTH)]

    def _render(self, end: int) -> None:
        """Write the JSON form of each compact detail below field ``end`` over it.
        Every detail there was alive at once when ``end`` was taken, so no two
        share an id, and a detail held by several records is rendered once."""
        with self._render_lock:
            fields = self._fields
            rendered: dict[int, dict] = {}  # id of a compact detail -> its JSON form
            for i in range(self._rendered, end, _WIDTH):
                render = _RENDER.get(fields[i])
                detail = fields[i + _WIDTH - 1]
                if render is not None and detail is not None:
                    json_form = rendered.get(id(detail))
                    if json_form is None:
                        json_form = rendered[id(detail)] = render(detail)
                    fields[i + _WIDTH - 1] = json_form
            self._rendered = max(self._rendered, end)


def dump_jsonl(records: list[dict], path: str) -> None:
    """Write one compact, key-sorted JSON object per line; ``parse_jsonl`` reads it back."""
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def parse_jsonl(lines: Iterable[str]) -> Iterator[dict]:
    """Yield the record of each non-blank line as it is read; a line that is
    not a JSON object with kind and actor raises TraceParseError naming it."""
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(i, f"invalid JSON: {exc}") from exc
        if not isinstance(rec, dict) or "kind" not in rec or "actor" not in rec:
            raise TraceParseError(i, "record must be an object with kind and actor")
        yield rec
