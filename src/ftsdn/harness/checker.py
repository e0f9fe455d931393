"""Trace checker for the correctness properties.

Ground truth is the `switch-exec` records the switches write, not any
controller's beliefs. Expected commands are recomputed by replaying the
configured applications over the logged event sequence, so the checker is an
independent oracle for what each event should have done to each switch.

Properties:
  T1  total order: per-replica delivered id sequences are mutually
      prefix-consistent.
  T2  exactly-once events: every emitted occurrence maps to exactly one
      logged event, each replica delivers an event at most once, every
      surviving replica eventually delivers every finished event, and every
      logged event finishes exactly once.
  T3  exactly-once commands: the commands generated for (event, switch)
      appear exactly once in that switch's executed log, contiguous, in
      order, inside a marker-terminated bundle.
  T4  per-switch FIFO: event ids respect each switch's event sequence.

Three exemptions have no seeded mutation; each is sound for the reason given:

  - T2 excuses an emitted occurrence that never reached the log when no
    survivor is on its ``conns``: no live replica ever received it, so no
    protocol could log it.
  - The oracle expects nothing of an event whose app raises (``except
    Exception: continue``): the replica discards that event's writes, and a
    bundle that names the event still fails T3 as one it should not send.
  - The survivors are the replicas without a ``controller-crashed`` record:
    only ``Controller.crash`` writes one, once it has stopped the node, and a
    replica that stalls without crashing stays a survivor that T2 checks.

The check is a fold: ``Checker.feed`` takes the records in trace order, and
``Checker.report`` gives the verdicts once the last one is fed. The fold keeps
ints, and references to the records' own event and command dicts, never a
copy of a record:

  - per replica, the ids it delivered and their record indices;
  - per logged event, its record index and its event dict, indexed by id and
    by occurrence; per processed entry, its event's first processed record;
  - per switch, the record indices and command dicts of every bundle, and
    the first bundle that names each event, with the one bundle still open;
  - an emitted occurrence only until its event's log-append arrives;
  - the first 25 counterexamples per property (per switch for T3) found while
    feeding.

All of it lives until ``report``. There the apps are replayed over the logged
events in id order, and each (event, switch)'s commands are compared with
the first bundle that names that event on that switch as soon as they are
made. Only the outcome is kept, so the oracle's JSON lives one event long.

``CheckError`` is raised as the offending record is fed, naming its index:
a record that is not an object or has no string ``kind``; a record of a kind
the checker reads before the first ``run-meta``; a field the checker reads
that holds a value of the wrong type; and a ``delivered`` record from an
actor outside run-meta's replica set. A JSON ``true`` or ``false`` where the
checker reads an int is a wrong type, though Python's ``bool`` subclasses
``int``.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field

from .. import apps as apps_mod, ofwire
from ..events import SwitchEvent
from ..trace import parse_jsonl


class CheckError(Exception):
    pass


_NONE = type(None)
_CAP = 25  # counterexamples kept per property


def _field(holder: dict, path: str, idx: int, types, default):
    """The value at the last key of ``path`` in ``holder``, which record
    ``idx`` holds at ``path``, or ``default`` if the key is absent. A value
    that is not one of ``types`` raises CheckError, so a required field
    passes a default of None and leaves None out of its types. A JSON
    boolean is not an int: it passes only where ``types`` names ``bool``."""
    value = holder.get(path.rpartition(".")[2], default)
    allowed = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        raise CheckError(f"record {idx}: bad {path}: {value!r}")
    return value


@dataclass
class Counterexample:
    message: str
    records: list[int] = field(default_factory=list)


@dataclass
class PropertyResult:
    name: str
    description: str
    passed: bool = True
    counterexamples: list[Counterexample] = field(default_factory=list)

    def fail(self, message: str, records: list[int] | None = None) -> None:
        self.passed = False
        if len(self.counterexamples) < _CAP:
            self.counterexamples.append(Counterexample(message, records or []))


@dataclass
class CheckReport:
    properties: list[PropertyResult]
    summary: dict

    @property
    def all_pass(self) -> bool:
        return all(p.passed for p in self.properties)

    def result(self, name: str) -> PropertyResult:
        for p in self.properties:
            if p.name == name:
                return p
        raise KeyError(name)

    def format(self) -> str:
        lines = []
        for p in self.properties:
            status = "PASS" if p.passed else "FAIL"
            lines.append(f"{p.name} {status}  {p.description}")
            for c in p.counterexamples[:5]:
                lines.append(f"    counterexample: {c.message} (records {c.records})")
        lines.append("summary: " + json.dumps(self.summary, sort_keys=True))
        return "\n".join(lines)


class Checker:
    """The check as a fold over the trace: ``feed`` each record in trace
    order, then ``report`` once. A record's index is the number of records
    fed before it."""

    def __init__(self) -> None:
        self._n = 0
        self._meta_idx: int | None = None
        self._app: apps_mod.App | None = None
        self._t2 = PropertyResult("T2", "exactly-once events: logged once, delivered once, none lost")
        self._crashed_ctrls: set[str] = set()
        self._crashed_switches: dict[str, int] = {}  # switch -> its first switch-crashed record
        # per replica in run-meta: the ids it delivered and their records
        self._delivered: dict[str, tuple[list[int], array]] = {}
        # per logged event, in log order: its record and its event dict
        self._log_idx = array("q")
        self._logged: list[dict] = []
        self._by_id: dict[int, int] = {}  # event id -> its latest log-append record
        self._by_occurrence: dict[str | None, dict[int | None, int]] = {}  # switch -> seq -> first log position
        self._occurrence_again: dict[tuple, list[int]] = {}  # occurrence -> every log position, if several
        self._unlogged: dict[tuple, list[tuple[int, list]]] = {}  # occurrence -> (record, conns) of emits
        self._processed: dict[int, int] = {}  # event id -> its first processed record
        self._processed_again: dict[int, list[int]] = {}  # event id -> every processed record, if several
        self._bundles: dict[str, _Bundles] = {}

    def feed(self, rec: dict) -> None:
        """Take the next record; a malformed one raises CheckError."""
        idx = self._n
        self._n += 1
        if not isinstance(rec, dict):
            raise CheckError(f"record {idx}: a {type(rec).__name__}, not an object")
        kind = _field(rec, "kind", idx, str, None)
        step = _STEPS.get(kind)
        if step is None:
            return  # a kind the checker does not read
        if self._meta_idx is None and kind != "run-meta":
            raise CheckError(f"record {idx}: {kind} before the run-meta record")
        step(self, rec, idx)

    def _run_meta(self, rec: dict, idx: int) -> None:
        if self._meta_idx is not None:
            return  # the first run-meta configures the check
        meta = _field(_field(rec, "detail", idx, dict, {}), "detail.config", idx, dict, {})
        n_controllers = _field(meta, "detail.config.n_controllers", idx, int, 0)
        app_name = _field(meta, "detail.config.app", idx, str, "forwarding")
        app_params = _field(meta, "detail.config.app_params", idx, (dict, _NONE), None)
        try:
            self._app = apps_mod.make_app(app_name, app_params)
        except ValueError as exc:
            raise CheckError(f"record {idx}: the configured app cannot be built: {exc}") from exc
        self._meta_idx = idx
        self._delivered = {f"c{i}": ([], array("q")) for i in range(n_controllers)}

    def _log_append(self, rec: dict, idx: int) -> None:
        body = _field(_field(rec, "detail", idx, dict, {}), "detail.body", idx, dict, {})
        if body.get("kind") == "event":
            ev = _field(body, "detail.body.event", idx, dict, None)
            eid = _field(ev, "detail.body.event.event_id", idx, int, None)
            switch_id = _field(ev, "detail.body.event.switch_id", idx, (str, _NONE), None)
            seq = _field(ev, "detail.body.event.switch_seq", idx, (int, _NONE), None)
            if eid in self._by_id:
                self._t2.fail(f"event id {eid} logged twice", [self._by_id[eid], idx])
            self._by_id[eid] = idx
            pos = len(self._logged)
            self._logged.append(ev)
            self._log_idx.append(idx)
            first = self._by_occurrence.setdefault(switch_id, {}).setdefault(seq, pos)
            if first != pos:
                self._occurrence_again.setdefault((switch_id, seq), [first]).append(pos)
            self._unlogged.pop((switch_id, seq), None)
        elif body.get("kind") == "processed":
            eid = _field(body, "detail.body.event_id", idx, int, None)
            first = self._processed.setdefault(eid, idx)
            if first != idx:
                self._processed_again.setdefault(eid, [first]).append(idx)

    def _delivered_step(self, rec: dict, idx: int) -> None:
        actor = _field(rec, "actor", idx, str, None)
        if actor not in self._delivered:
            raise CheckError(f"record {idx}: delivered by {actor!r}, not among the "
                             f"{len(self._delivered)} replicas of run-meta record {self._meta_idx}")
        eids, idxs = self._delivered[actor]
        eids.append(_field(rec, "event_id", idx, int, None))
        idxs.append(idx)

    def _emitted(self, rec: dict, idx: int) -> None:
        detail = _field(rec, "detail", idx, dict, {})
        if detail.get("origin") not in ("dataplane", "port-status"):
            return
        seq = _field(rec, "switch_seq", idx, int, None)
        conns = _field(detail, "detail.conns", idx, list, [])
        switch_id = _field(rec, "actor", idx, str, None)
        if seq not in self._by_occurrence.get(switch_id, ()):
            self._unlogged.setdefault((switch_id, seq), []).append((idx, conns))

    def _exec(self, rec: dict, idx: int) -> None:
        switch_id = _field(rec, "actor", idx, str, None)
        bundles = self._bundles.get(switch_id)
        if bundles is None:
            bundles = self._bundles[switch_id] = _Bundles(switch_id)
        bundles.feed(rec, idx)

    def _controller_crashed(self, rec: dict, idx: int) -> None:
        self._crashed_ctrls.add(_field(rec, "actor", idx, str, None))

    def _switch_crashed(self, rec: dict, idx: int) -> None:
        self._crashed_switches.setdefault(_field(rec, "actor", idx, str, None), idx)

    def report(self) -> CheckReport:
        """The verdicts on the records fed; this ends the fold."""
        if self._meta_idx is None:
            raise CheckError("trace has no run-meta record")
        controllers = list(self._delivered)
        survivors = [c for c in controllers if c not in self._crashed_ctrls]
        logged, log_idx, delivered = self._logged, self._log_idx, self._delivered

        # -- T1 --------------------------------------------------------------
        t1 = PropertyResult("T1", "total order: delivered sequences are prefix-consistent")
        for i, a in enumerate(controllers):
            for b in controllers[i + 1 :]:
                sa, sb = delivered[a][0], delivered[b][0]
                n = min(len(sa), len(sb))
                if sa[:n] == sb[:n]:
                    continue
                k = next(k for k in range(n) if sa[k] != sb[k])
                t1.fail(
                    f"{a} delivered {sa[k]} at position {k} but {b} delivered {sb[k]}",
                    [delivered[a][1][k], delivered[b][1][k]],
                )

        # -- T2 --------------------------------------------------------------
        t2 = self._t2
        duplicates = 0
        for occ, positions in sorted(self._occurrence_again.items(), key=lambda item: item[1][0]):
            duplicates += len(positions) - 1
            t2.fail(
                f"occurrence {occ} has {len(positions)} event ids {[logged[p]['event_id'] for p in positions]}",
                [log_idx[p] for p in positions],
            )
        losses = 0
        emits = sorted((idx, occ, conns) for occ, seen in self._unlogged.items() for idx, conns in seen)
        for idx, (switch_id, seq), conns in emits:
            if not any(c in survivors for c in conns):
                continue  # nobody alive ever saw it; not recoverable by design
            losses += 1
            t2.fail(f"emitted occurrence ({switch_id}, {seq}) never reached the log", [idx])
        for c in controllers:
            seen: dict[int, int] = {}
            for eid, idx in zip(*delivered[c]):
                if eid in seen:
                    t2.fail(f"{c} delivered event {eid} more than once", [seen[eid], idx])
                else:
                    seen[eid] = idx
        processed = self._processed
        for eid, first in processed.items():
            idxs = self._processed_again.get(eid, [first])
            if len(idxs) > 1:
                t2.fail(f"event {eid} has {len(idxs)} processed entries", idxs)
            if eid not in self._by_id:
                t2.fail(f"processed entry for unlogged event {eid}", idxs)
        for ev, idx in zip(logged, log_idx):
            if ev["event_id"] not in processed:
                losses += 1
                t2.fail(f"logged event {ev['event_id']} never finished (no processed entry)", [idx])
        finished = sorted(processed)
        for c in survivors:
            got = set(delivered[c][0])
            for eid in finished:
                if eid in self._by_id and eid not in got:
                    t2.fail(f"surviving replica {c} never delivered finished event {eid}")

        # -- T3 --------------------------------------------------------------
        t3 = PropertyResult("T3", "exactly-once commands: executed once, contiguous, in order")
        for bundles in self._bundles.values():
            bundles.close()
        n_commands = sum(len(bundles.commands) for bundles in self._bundles.values())
        unbundled = self._replay(t3)
        for bundles in self._bundles.values():
            for message, records in bundles.failures:
                t3.fail(message, records)
        for bundles in self._bundles.values():
            switch_id = bundles.switch_id
            for eid, first in bundles.first.items():
                group = bundles.again.get(eid, [first])
                if len(group) > 1:
                    idxs = [i for b in group for i in bundles.indices_of(b)]
                    t3.fail(f"commands for event {eid} committed {len(group)} times on {switch_id}", idxs)
                outcome = bundles.outcomes.get(eid, _NOTHING)
                if outcome is _NOTHING:
                    t3.fail(f"bundle on {switch_id} names event {eid} which should send it nothing",
                            bundles.indices_of(first))
                elif outcome is not None:
                    t3.fail(
                        f"commands for event {eid} on {switch_id} differ from the app oracle "
                        f"({outcome[0]} executed vs {outcome[1]} expected)",
                        bundles.indices_of(first),
                    )
        for eid, switch_id in unbundled:
            # the master logs processed only once the switch replied, showed its
            # marker or was lost, so only a switch lost before that is excused
            if self._crashed_switches.get(switch_id, self._n) < processed.get(eid, -1):
                continue
            t3.fail(f"commands for event {eid} never executed on {switch_id}")

        # -- T4 --------------------------------------------------------------
        t4 = PropertyResult("T4", "per-switch FIFO: event ids follow switch sequence order")
        per_switch: dict[str | None, list[int]] = {}
        for pos, ev in enumerate(logged):
            if (ev.get("switch_seq") or 0) > 0:
                per_switch.setdefault(ev.get("switch_id"), []).append(pos)
        for switch_id, positions in per_switch.items():
            positions.sort(key=lambda p: logged[p]["switch_seq"])
            for p, q in zip(positions, positions[1:]):
                last, ev = logged[p], logged[q]
                if ev["event_id"] < last["event_id"]:
                    t4.fail(
                        f"on {switch_id}, seq {last['switch_seq']} got id {last['event_id']} but later "
                        f"seq {ev['switch_seq']} got smaller id {ev['event_id']}",
                        [log_idx[p], log_idx[q]],
                    )

        summary = {
            "events": len(logged),
            "deliveries": sum(len(eids) for eids, _ in delivered.values()),
            "commands": n_commands,
            "duplicates": duplicates,
            "losses": losses,
            "survivors": survivors,
        }
        return CheckReport([t1, t2, t3, t4], summary)

    def _replay(self, t3: PropertyResult) -> dict[tuple[int, str], None]:
        """Replay the deterministic app pipeline over the logged events in id
        order. Each (event, switch)'s commands are compared with the first
        bundle that names the event on that switch as soon as they are made,
        and only the outcome is kept. Returns the (event, switch) keys the
        apps wrote to that no bundle names, in the order first written."""
        unbundled: dict[tuple[int, str], None] = {}
        logged = self._logged
        for pos in sorted(range(len(logged)), key=lambda p: logged[p]["event_id"]):
            eid = logged[pos]["event_id"]
            try:
                event = SwitchEvent.from_json(logged[pos])
            except ofwire.OfwireError as exc:
                t3.fail(f"logged event {eid} cannot be replayed: {exc}", [self._log_idx[pos]])
                continue
            ctx = _OracleCtx()
            try:
                self._app.on_event(event, ctx)
            except Exception:
                continue  # a failing app stages nothing
            for switch_id, want in ctx.staged.items():
                bundles = self._bundles.get(switch_id)
                first = bundles.first.get(eid) if bundles is not None else None
                if first is None:
                    unbundled[(eid, switch_id)] = None
                    continue
                got = bundles.commands_of(first)
                bundles.outcomes[eid] = None if got == want else (len(got), len(want))
        return unbundled


_STEPS = {
    "run-meta": Checker._run_meta,
    "log-append": Checker._log_append,
    "delivered": Checker._delivered_step,
    "event-emitted": Checker._emitted,
    "switch-exec": Checker._exec,
    "controller-crashed": Checker._controller_crashed,
    "switch-crashed": Checker._switch_crashed,
}

_NOTHING = object()  # the outcome of an (event, switch) the apps send nothing


class _Bundles:
    """One switch's executed commands, cut into bundles as they arrive. A
    bundle is a run of bundle-origin records with one (controller,
    bundle_id) key; another key, a record of another origin or the end of
    the trace closes it."""

    __slots__ = ("switch_id", "indices", "starts", "commands", "command_starts", "first", "again",
                 "bundle_ids", "open_key", "marker_ids", "failures", "outcomes")

    def __init__(self, switch_id: str) -> None:
        self.switch_id = switch_id
        self.indices = array("q")  # every bundle record, in order
        self.starts = array("q")  # per bundle, its first position in indices
        self.commands: list[dict] = []  # every bundle's commands but the markers
        self.command_starts = array("q")  # per bundle, its first position in commands
        self.first: dict[int, int] = {}  # event id -> the first bundle that names it
        self.again: dict[int, list[int]] = {}  # event id -> every bundle that names it, if several
        self.bundle_ids: dict[str | None, set] = {}  # controller -> its bundle ids opened here
        self.open_key: tuple | None = None
        self.marker_ids: tuple[int, ...] | None = None  # event ids of the open bundle's last marker
        self.failures: list[tuple[str, list[int]]] = []  # the first of this switch's T3 counterexamples
        self.outcomes: dict = {}  # event id -> None (as the oracle) or (executed, expected) lengths

    def fail(self, message: str, records: list[int]) -> None:
        if len(self.failures) < _CAP:
            self.failures.append((message, records))

    def feed(self, rec: dict, idx: int) -> None:
        detail = _field(rec, "detail", idx, dict, {})
        origin = detail.get("origin")
        if origin != "bundle":
            if origin == "direct":
                self.fail(f"command executed outside any bundle on {self.switch_id}", [idx])
            self.close()
            return
        # bundle ids are per-controller counters, so key on the owner as well
        key = (
            _field(detail, "detail.controller", idx, (str, _NONE), None),
            _field(rec, "bundle_id", idx, (int, _NONE), None),
        )
        if self.open_key is not None and self.open_key != key:
            self.close()
        if self.open_key is None:
            opened = self.bundle_ids.setdefault(key[0], set())
            if key[1] in opened:
                self.fail(f"bundle {key} on {self.switch_id} is not contiguous in the executed log", [idx])
            opened.add(key[1])
            self.open_key = key
            self.marker_ids = None
            self.starts.append(len(self.indices))
            self.command_starts.append(len(self.commands))
        self.indices.append(idx)
        cmd = detail.get("command", {})
        marker = self._marker_of(cmd, idx)
        if marker is not None:
            self.marker_ids = marker.event_ids
        else:
            if self.marker_ids is not None:
                self.fail(f"bundle {key[1]} on {self.switch_id} has commands after its marker", [idx])
            self.commands.append(cmd)

    def close(self) -> None:
        """Close the open bundle, if any: its marker's events name it."""
        if self.open_key is None:
            return
        bundle = len(self.starts) - 1
        if not self.marker_ids:
            self.fail(
                f"bundle {self.open_key[1]} on {self.switch_id} committed without a commit marker",
                self.indices_of(bundle),
            )
        for eid in self.marker_ids or ():
            if eid in self.first:
                self.again.setdefault(eid, [self.first[eid]]).append(bundle)
            else:
                self.first[eid] = bundle
        self.open_key = None

    def indices_of(self, bundle: int) -> list[int]:
        end = self.starts[bundle + 1] if bundle + 1 < len(self.starts) else len(self.indices)
        return self.indices[self.starts[bundle] : end].tolist()

    def commands_of(self, bundle: int) -> list[dict]:
        end = self.command_starts[bundle + 1] if bundle + 1 < len(self.command_starts) else len(self.commands)
        return self.commands[self.command_starts[bundle] : end]

    def _marker_of(self, cmd_json: dict, idx: int) -> ofwire.CommitMarker | None:
        if type(cmd_json) is not dict:
            self.fail(f"executed command is not an object: {cmd_json!r}", [idx])
            return None
        if cmd_json.get("type") != "PacketOut":
            return None
        try:
            msg = ofwire.from_json(cmd_json)
        except ofwire.OfwireError as exc:
            self.fail(f"executed command is malformed: {exc}", [idx])
            return None
        try:
            return ofwire.parse_commit_marker(msg)
        except ofwire.MarkerParseError:
            return None


def check_trace(path: str) -> CheckReport:
    """Check a JSONL trace file, feeding each record as its line is parsed."""
    checker = Checker()
    with open(path, "r", encoding="utf-8") as fh:
        for rec in parse_jsonl(fh):
            checker.feed(rec)
    return checker.report()


def check_records(records: list[dict]) -> CheckReport:
    checker = Checker()
    for rec in records:
        checker.feed(rec)
    return checker.report()


class _OracleCtx:
    """The app context of an oracle replay: it keeps each write as JSON."""

    def __init__(self) -> None:
        self.staged: dict[str, list[dict]] = {}

    def write(self, switch_id: str, message) -> None:
        self.staged.setdefault(switch_id, []).append(ofwire.to_json(message))
