"""Trace checker for the correctness properties.

Ground truth is the switch executed_log as mirrored into the trace, not any
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
  T4  per-switch FIFO: event ids respect each switch's packet sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .. import apps as apps_mod, ofwire
from ..events import KIND_PACKET_IN, SwitchEvent, port_status_seq
from ..trace import TraceParseError, load_jsonl


class CheckError(Exception):
    pass


@dataclass
class Counterexample:
    message: str
    records: list[int] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"message": self.message, "records": self.records}


@dataclass
class PropertyResult:
    name: str
    description: str
    passed: bool = True
    counterexamples: list[Counterexample] = field(default_factory=list)

    def fail(self, message: str, records: list[int] | None = None) -> None:
        self.passed = False
        if len(self.counterexamples) < 25:
            self.counterexamples.append(Counterexample(message, records or []))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "passed": self.passed,
            "counterexamples": [c.to_json() for c in self.counterexamples],
        }


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

    def to_json(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "properties": [p.to_json() for p in self.properties],
            "summary": self.summary,
        }

    def format(self) -> str:
        lines = []
        for p in self.properties:
            status = "PASS" if p.passed else "FAIL"
            lines.append(f"{p.name} {status}  {p.description}")
            for c in p.counterexamples[:5]:
                lines.append(f"    counterexample: {c.message} (records {c.records})")
        lines.append("summary: " + json.dumps(self.summary, sort_keys=True))
        return "\n".join(lines)


@dataclass
class _LoggedEvent:
    event_id: int
    switch_id: str
    switch_seq: int
    kind: str
    record_idx: int
    event_json: dict


def check_trace(path: str) -> CheckReport:
    return check_records(load_jsonl(path))


def check_records(records: list[dict]) -> CheckReport:
    meta = None
    for rec in records:
        if rec.get("kind") == "run-meta":
            meta = rec.get("detail", {}).get("config", {})
            break
    if meta is None:
        raise CheckError("trace has no run-meta record")

    controllers = [f"c{i}" for i in range(meta.get("n_controllers", 0))]
    crashed_ctrls = {r["actor"] for r in records if r.get("kind") == "controller-crashed"}
    crashed_switches = {r["actor"] for r in records if r.get("kind") == "switch-crashed"}
    survivors = [c for c in controllers if c not in crashed_ctrls]

    t1 = PropertyResult("T1", "total order: delivered sequences are prefix-consistent")
    t2 = PropertyResult("T2", "exactly-once events: logged once, delivered once, none lost")
    t3 = PropertyResult("T3", "exactly-once commands: executed once, contiguous, in order")
    t4 = PropertyResult("T4", "per-switch FIFO: event ids follow switch sequence order")

    # -- gather -------------------------------------------------------------
    logged: list[_LoggedEvent] = []
    processed_entries: dict[int, list[int]] = {}
    delivered: dict[str, list[tuple[int, int]]] = {c: [] for c in controllers}
    emitted: list[tuple[int, str, int, list[str]]] = []  # idx, switch, seq, conns
    execs: dict[str, list[tuple[int, dict]]] = {}
    ps_counts: dict[str, int] = {}

    for idx, rec in enumerate(records):
        kind = rec.get("kind")
        actor = rec.get("actor")
        if kind == "log-append":
            body = rec.get("detail", {}).get("body", {})
            if body.get("kind") == "event":
                ev = body.get("event", {})
                logged.append(
                    _LoggedEvent(
                        event_id=ev.get("event_id"),
                        switch_id=ev.get("switch_id"),
                        switch_seq=ev.get("switch_seq"),
                        kind=ev.get("kind"),
                        record_idx=idx,
                        event_json=ev,
                    )
                )
            elif body.get("kind") == "processed":
                processed_entries.setdefault(body.get("event_id"), []).append(idx)
        elif kind == "delivered" and actor in delivered:
            delivered[actor].append((idx, rec.get("event_id")))
        elif kind == "event-emitted":
            detail = rec.get("detail", {})
            origin = detail.get("origin")
            if origin == "dataplane":
                emitted.append((idx, actor, rec.get("switch_seq"), detail.get("conns", [])))
            elif origin == "port-status":
                ps_counts[actor] = detail.get("index", 0)
                emitted.append((idx, actor, port_status_seq(detail.get("index", 0)), detail.get("conns", [])))
        elif kind == "switch-exec":
            execs.setdefault(actor, []).append((idx, rec))

    # -- T1 ------------------------------------------------------------------
    seqs = {c: [eid for _, eid in delivered[c]] for c in controllers}
    for i, a in enumerate(controllers):
        for b in controllers[i + 1 :]:
            sa, sb = seqs[a], seqs[b]
            n = min(len(sa), len(sb))
            for k in range(n):
                if sa[k] != sb[k]:
                    t1.fail(
                        f"{a} delivered {sa[k]} at position {k} but {b} delivered {sb[k]}",
                        [delivered[a][k][0], delivered[b][k][0]],
                    )
                    break

    # -- T2 ------------------------------------------------------------------
    by_occurrence: dict[tuple[str, int], list[_LoggedEvent]] = {}
    by_id: dict[int, _LoggedEvent] = {}
    for ev in logged:
        by_occurrence.setdefault((ev.switch_id, ev.switch_seq), []).append(ev)
        if ev.event_id in by_id:
            t2.fail(f"event id {ev.event_id} logged twice", [by_id[ev.event_id].record_idx, ev.record_idx])
        by_id[ev.event_id] = ev
    duplicates = 0
    for occ, evs in by_occurrence.items():
        if len(evs) > 1:
            duplicates += len(evs) - 1
            t2.fail(
                f"occurrence {occ} has {len(evs)} event ids {[e.event_id for e in evs]}",
                [e.record_idx for e in evs],
            )
    losses = 0
    for idx, switch_id, seq, conns in emitted:
        if not any(c in survivors for c in conns):
            continue  # nobody alive ever saw it; not recoverable by design
        if (switch_id, seq) not in by_occurrence:
            losses += 1
            t2.fail(f"emitted occurrence ({switch_id}, {seq}) never reached the log", [idx])
    for c in controllers:
        seen: dict[int, int] = {}
        for idx, eid in delivered[c]:
            if eid in seen:
                t2.fail(f"{c} delivered event {eid} more than once", [seen[eid], idx])
            else:
                seen[eid] = idx
    processed_ids = set(processed_entries)
    for eid, idxs in processed_entries.items():
        if len(idxs) > 1:
            t2.fail(f"event {eid} has {len(idxs)} processed entries", idxs)
        if eid not in by_id:
            t2.fail(f"processed entry for unlogged event {eid}", idxs)
    for ev in logged:
        if ev.event_id not in processed_ids:
            losses += 1
            t2.fail(f"logged event {ev.event_id} never finished (no processed entry)", [ev.record_idx])
    for c in survivors:
        got = {eid for _, eid in delivered[c]}
        for eid in sorted(processed_ids):
            if eid in by_id and eid not in got:
                t2.fail(f"surviving replica {c} never delivered finished event {eid}")

    # -- T3 ------------------------------------------------------------------
    expected = _oracle_commands(meta, logged, t3)
    n_commands = 0
    bundles_by_event: dict[tuple[int, str], list[dict]] = {}
    for switch_id, recs in execs.items():
        for bundle in _group_bundles(switch_id, recs, t3):
            n_commands += len(bundle["commands"])
            for eid in bundle["event_ids"]:
                bundles_by_event.setdefault((eid, switch_id), []).append(bundle)
    for key, group in bundles_by_event.items():
        eid, switch_id = key
        if len(group) > 1:
            idxs = [i for b in group for i in b["indices"]]
            t3.fail(f"commands for event {eid} committed {len(group)} times on {switch_id}", idxs)
        want = expected.get(key)
        if want is None:
            t3.fail(f"bundle on {switch_id} names event {eid} which should send it nothing",
                    group[0]["indices"])
            continue
        got = group[0]["commands"]
        if got != want:
            t3.fail(
                f"commands for event {eid} on {switch_id} differ from the app oracle "
                f"({len(got)} executed vs {len(want)} expected)",
                group[0]["indices"],
            )
    for (eid, switch_id), want in expected.items():
        if not want:
            continue
        if switch_id in crashed_switches:
            continue
        if (eid, switch_id) not in bundles_by_event:
            t3.fail(f"commands for event {eid} never executed on {switch_id}")

    # -- T4 ------------------------------------------------------------------
    per_switch: dict[str, list[_LoggedEvent]] = {}
    for ev in logged:
        if ev.kind == KIND_PACKET_IN and ev.switch_seq is not None and ev.switch_seq > 0:
            per_switch.setdefault(ev.switch_id, []).append(ev)
    for switch_id, evs in per_switch.items():
        ordered = sorted(evs, key=lambda e: e.switch_seq)
        last = None
        for ev in ordered:
            if last is not None and ev.event_id < last.event_id:
                t4.fail(
                    f"on {switch_id}, seq {last.switch_seq} got id {last.event_id} but later "
                    f"seq {ev.switch_seq} got smaller id {ev.event_id}",
                    [last.record_idx, ev.record_idx],
                )
            last = ev

    summary = {
        "events": len(logged),
        "deliveries": sum(len(v) for v in delivered.values()),
        "commands": n_commands,
        "duplicates": duplicates,
        "losses": losses,
        "survivors": survivors,
    }
    return CheckReport([t1, t2, t3, t4], summary)


def _group_bundles(switch_id: str, recs: list[tuple[int, dict]], t3: PropertyResult) -> list[dict]:
    """Split a switch's exec stream into bundles, enforcing contiguity and
    the marker-last convention."""
    bundles: list[dict] = []
    current: dict | None = None
    seen_bundle_keys: set[tuple] = set()
    for idx, rec in recs:
        detail = rec.get("detail", {})
        origin = detail.get("origin")
        # bundle ids are per-controller counters, so key on the owner as well
        key = (detail.get("controller"), rec.get("bundle_id"))
        if origin != "bundle":
            if origin == "direct":
                t3.fail(f"command executed outside any bundle on {switch_id}", [idx])
            if current is not None:
                _finish_bundle(switch_id, current, bundles, t3)
                current = None
            continue
        if current is not None and current["key"] != key:
            _finish_bundle(switch_id, current, bundles, t3)
            current = None
        if current is None:
            if key in seen_bundle_keys:
                t3.fail(f"bundle {key} on {switch_id} is not contiguous in the executed log", [idx])
            seen_bundle_keys.add(key)
            current = {
                "key": key,
                "bundle_id": rec.get("bundle_id"),
                "commands": [],
                "event_ids": [],
                "indices": [],
                "closed": False,
            }
        current["indices"].append(idx)
        cmd = detail.get("command", {})
        marker = _marker_of(cmd, idx, t3)
        if marker is not None:
            current["event_ids"] = list(marker.event_ids)
            current["closed"] = True
        else:
            if current["closed"]:
                t3.fail(f"bundle {current['bundle_id']} on {switch_id} has commands after its marker", [idx])
            current["commands"].append(cmd)
    if current is not None:
        _finish_bundle(switch_id, current, bundles, t3)
    return bundles


def _finish_bundle(switch_id: str, bundle: dict, bundles: list[dict], t3: PropertyResult) -> None:
    if not bundle["event_ids"]:
        t3.fail(
            f"bundle {bundle['bundle_id']} on {switch_id} committed without a commit marker",
            bundle["indices"],
        )
    bundles.append(bundle)


def _marker_of(cmd_json: dict, idx: int, t3: PropertyResult) -> ofwire.CommitMarker | None:
    if cmd_json.get("type") != "PacketOut":
        return None
    try:
        msg = ofwire.from_json(cmd_json)
    except ofwire.OfwireError as exc:
        t3.fail(f"executed command is malformed: {exc}", [idx])
        return None
    try:
        return ofwire.parse_commit_marker(msg)
    except ofwire.MarkerParseError:
        return None


def _oracle_commands(
    meta: dict, logged: list[_LoggedEvent], t3: PropertyResult
) -> dict[tuple[int, str], list[dict]]:
    """Replay the deterministic app pipeline over the logged event order."""
    try:
        app = apps_mod.make_app(meta.get("app", "forwarding"), meta.get("app_params") or {})
    except ValueError as exc:
        raise CheckError(str(exc)) from exc
    expected: dict[tuple[int, str], list[dict]] = {}
    for ev in sorted(logged, key=lambda e: e.event_id):
        try:
            event = SwitchEvent.from_json(ev.event_json)
        except ofwire.OfwireError as exc:
            t3.fail(f"logged event {ev.event_id} cannot be replayed: {exc}", [ev.record_idx])
            continue
        staged: dict[str, list[dict]] = {}

        class _Ctx:
            def write(self, switch_id: str, message) -> None:
                staged.setdefault(switch_id, []).append(ofwire.to_json(message))

        try:
            app.on_event(event, _Ctx())
        except Exception:
            staged = {}
        for switch_id, cmds in staged.items():
            expected[(ev.event_id, switch_id)] = cmds
    return expected
