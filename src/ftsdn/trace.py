"""Timestamped observation records consumed by the correctness checker.

One JSON object per line; field names are the schema. Timestamps are logical
milliseconds in deterministic mode and wall-clock nanoseconds in socket mode.

``TraceLog`` holds no object per record: ``emit`` extends one flat list with
the nine fields of a ``TraceRecord``, in field order. The fields are strings,
numbers, ``None`` and ``detail`` dicts, and the collector tracks none of these
but the dicts that hold other containers. A long run therefore adds one
tracked list, not 10^5 tracked records that every full collection must walk
and that push it to collect more often. ``as_dicts`` builds each record's dict
straight from the list, with the function behind ``TraceRecord.to_dict``. One
``list.extend`` with a tuple runs no Python code, so under the interpreter lock
it lands all nine fields at once and socket threads emit without a lock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from typing import Callable


class TraceParseError(Exception):
    def __init__(self, line_no: int, reason: str) -> None:
        super().__init__(f"trace line {line_no}: {reason}")
        self.line_no = line_no


@dataclass(slots=True)
class TraceRecord:
    kind: str
    actor: str
    timestamp: float
    epoch: int | None = None
    event_id: int | None = None
    switch_id: str | None = None
    switch_seq: int | None = None
    bundle_id: int | None = None
    detail: dict | None = None

    def to_dict(self) -> dict:
        return _record_dict(self.kind, self.actor, self.timestamp, self.epoch, self.event_id,
                            self.switch_id, self.switch_seq, self.bundle_id, self.detail)


_WIDTH = len(TraceRecord.__slots__)


def _record_dict(kind, actor, timestamp, epoch, event_id, switch_id, switch_seq, bundle_id, detail) -> dict:
    """The JSON form of one record, in ``TraceRecord`` field order; unset fields are left out."""
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
        self._fields: list = []  # _WIDTH fields per record, in TraceRecord order

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
        self._fields.extend(
            (kind, actor, self._clock(), epoch, event_id, switch_id, switch_seq, bundle_id, detail)
        )

    def emitter(self, actor: str) -> Callable[..., None]:
        """Emit function for one actor. It names each field rather than
        repacking ``**kw``, and looks ``emit`` up on every call, so a wrapper
        put on ``TraceLog.emit`` later still sees every record."""

        def emit(
            kind: str,
            *,
            epoch: int | None = None,
            event_id: int | None = None,
            switch_id: str | None = None,
            switch_seq: int | None = None,
            bundle_id: int | None = None,
            detail: dict | None = None,
        ) -> None:
            self.emit(
                kind, actor, epoch=epoch, event_id=event_id, switch_id=switch_id,
                switch_seq=switch_seq, bundle_id=bundle_id, detail=detail,
            )

        return emit

    def as_dicts(self) -> list[dict]:
        # Records emitted by other threads after this line are left out. One
        # iterator zipped with itself walks the list in place, a record at a time.
        fields = islice(self._fields, len(self._fields))
        return [_record_dict(*rec) for rec in zip(*[fields] * _WIDTH)]


def dump_jsonl(records: list[dict], path: str) -> None:
    """Write one compact, key-sorted JSON object per line; ``load_jsonl`` reads it back."""
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def load_jsonl(path: str) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(i, f"invalid JSON: {exc}") from exc
            if not isinstance(rec, dict) or "kind" not in rec or "actor" not in rec:
                raise TraceParseError(i, "record must be an object with kind and actor")
            records.append(rec)
    return records
