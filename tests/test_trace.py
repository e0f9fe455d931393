import gc
import json
import sys
import threading
import tracemalloc
from functools import partial

from ftsdn import ofwire, trace
from ftsdn.coord import CoordService, ProcessedBody, body_to_json
from ftsdn.events import (
    KIND_PACKET_IN,
    KIND_PORT_STATUS,
    KIND_SWITCH_FAILURE,
    SWITCH_FAILURE_SEQ,
    SwitchEvent,
)
from ftsdn.harness.checker import check_trace
from ftsdn.harness.config import AT_TIME, F2, FaultInjection, ScenarioConfig
from ftsdn.harness.scenario import _inject, build_workload, run_scenario
from ftsdn.harness.world_det import DetWorld
from ftsdn.ofwire import Action, BundleAdd, BundleCommit, BundleOpen, FlowMod, MatchKey, PacketIn, PacketOut, PortStatus
from ftsdn.switchsim import Switch
from ftsdn.trace import TraceLog, dump_jsonl, parse_jsonl

THREADS = 8
PER_THREAD = 5000


def test_emit_keeps_fields_and_drops_nones():
    log = TraceLog(clock=lambda: 4.5)
    log.emit("delivered", "c0", epoch=1, event_id=7)
    log.emit("run-meta", "harness", detail={"config": {}})
    assert log.as_dicts() == [
        {"kind": "delivered", "actor": "c0", "timestamp": 4.5, "epoch": 1, "event_id": 7},
        {"kind": "run-meta", "actor": "harness", "timestamp": 4.5, "detail": {"config": {}}},
    ]


def test_emit_stores_the_compact_form_of_a_natural_detail():
    log = TraceLog(clock=lambda: 1.5)
    cmd = FlowMod(MatchKey(in_port=1), (Action.output(3),), 7)
    log.emit("switch-exec", "s0", detail={"command": cmd, "origin": "direct", "controller": "c0"})
    log.emit("log-append", "coord", epoch=1, event_id=4, detail={"seq": 1, "body": ProcessedBody(4)})
    stored = log._fields[8::9]
    assert stored == [
        {"command": ofwire.encode_body(cmd), "origin": "direct", "controller": "c0"},
        {"seq": 1, "body": "processed", "event_id": 4},
    ]
    assert [r["detail"] for r in log.as_dicts()] == [
        {"command": ofwire.to_json(cmd), "origin": "direct", "controller": "c0"},
        {"seq": 1, "body": {"kind": "processed", "event_id": 4}},
    ]


def emit_concurrently(while_emitting=lambda log: None) -> TraceLog:
    """``THREADS`` threads each emit ``PER_THREAD`` records into a new trace,
    with a switch interval short enough to interleave them record by record;
    ``while_emitting(log)`` runs on this thread over and over until they are
    done. Returns the trace."""
    stamps = threading.local()
    log = TraceLog(clock=lambda: stamps.value)
    start = threading.Barrier(THREADS)

    def worker(t: int) -> None:
        start.wait(timeout=10)
        for i in range(PER_THREAD):
            stamps.value = float(t * PER_THREAD + i)
            log.emit(f"k{t}", f"a{t}", epoch=t, event_id=i, switch_id=f"s{t}", switch_seq=i, bundle_id=-i,
                     detail={"t": t, "i": i})

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
        for th in threads:
            th.start()
        while any(th.is_alive() for th in threads):
            while_emitting(log)
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    return log


def assert_every_record_once_whole_in_order(records: list[dict]) -> None:
    assert len(records) == THREADS * PER_THREAD
    next_i = [0] * THREADS
    for rec in records:
        t, i = rec["detail"]["t"], rec["detail"]["i"]
        assert rec == {
            "kind": f"k{t}", "actor": f"a{t}", "timestamp": float(t * PER_THREAD + i),
            "epoch": t, "event_id": i, "switch_id": f"s{t}", "switch_seq": i, "bundle_id": -i,
            "detail": {"t": t, "i": i},
        }
        # each thread's records appear in the order it emitted them
        assert i == next_i[t]
        next_i[t] += 1
    assert next_i == [PER_THREAD] * THREADS


def test_concurrent_emits_keep_every_record_whole():
    assert_every_record_once_whole_in_order(emit_concurrently().as_dicts())


def test_as_dicts_during_concurrent_emits_returns_growing_prefixes(monkeypatch):
    monkeypatch.setattr(trace, "_BLOCK", 100)  # so that each call drains many blocks
    last = [[]]  # the latest read

    def read(log: TraceLog) -> None:
        cur = log.as_dicts()
        # the records of the previous read come first, the same dicts, then new ones
        assert len(cur) >= len(last[0]) and all(a is b for a, b in zip(last[0], cur))
        last[0] = cur

    log = emit_concurrently(while_emitting=read)
    read(log)
    assert log._fields == []
    assert_every_record_once_whole_in_order(last[0])


def test_records_emitted_while_as_dicts_drains_are_left_for_the_next_call(monkeypatch):
    monkeypatch.setattr(trace, "_BLOCK", 100)
    log = TraceLog(clock=lambda: 0.0)
    for i in range(250):
        log.emit("early", "a0", event_id=i)
    record_dict = trace._record_dict

    def emit_midway(*fields):  # in the first block, as a socket thread could
        if fields[4] == 50:
            for i in range(30):
                log.emit("late", "a1", event_id=i)
        return record_dict(*fields)

    monkeypatch.setattr(trace, "_record_dict", emit_midway)
    first = log.as_dicts()
    assert [r["event_id"] for r in first] == list(range(250)) and len(log._fields) == 30 * 9
    second = log.as_dicts()
    assert second[:250] == first and all(a is b for a, b in zip(first, second))
    assert [(r["kind"], r["event_id"]) for r in second[250:]] == [("late", i) for i in range(30)]


def test_dumped_scenario_trace_loads_back_and_checks(tmp_path):
    cfg = ScenarioConfig(n_switches=2, n_controllers=2, packets_per_switch=20, session_timeout_ms=100.0,
                         seed=3, fault_plan=[FaultInjection(point="F2", trigger_event=10)])
    records = run_scenario(cfg).records
    path = str(tmp_path / "trace.jsonl")
    dump_jsonl(records, path)
    with open(path, encoding="utf-8") as fh:
        assert list(parse_jsonl(fh)) == records
    report = check_trace(path)
    assert report.all_pass and report.summary["events"] > 0


def test_dumped_trace_has_the_bytes_of_the_joined_lines(tmp_path):
    records = _small_run().records
    path = tmp_path / "trace.jsonl"
    dump_jsonl(records, str(path))
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
    dump_jsonl([], str(path))
    assert path.read_bytes() == b"\n"


# -- compact details: the three kinds emitted per packet ------------------------

COMPACT_KINDS = ("switch-exec", "event-emitted", "log-append")
DST, SRC = "02:00:00:00:00:01", "02:00:00:00:00:02"


class Conn:
    def __init__(self, controller_id: str, uid: int) -> None:
        self.controller_id = controller_id
        self.uid = uid

    def send(self, msg) -> None:
        pass


def details(log: TraceLog, kind: str) -> list:
    return [r["detail"] for r in log.as_dicts() if r["kind"] == kind]


def test_switch_exec_renders_each_command_as_its_json():
    log = TraceLog(clock=lambda: 0.0)
    sw = Switch("s0", trace=log)
    c0 = Conn("c0", 1)
    sw.attach(c0)
    pkt = ofwire.ether_payload(DST, SRC, b"p")
    bundled = PacketOut((Action.output(2), Action.drop()), pkt)
    sw.on_message(c0, BundleOpen(4))
    sw.on_message(c0, BundleAdd(4, bundled))
    sw.on_message(c0, BundleCommit(4))
    direct = FlowMod(MatchKey(in_port=1, eth_dst=DST), (Action.output(3),), 7)
    sw.on_message(c0, direct)
    sw.inject_packet(pkt, in_port=1)  # hits the rule just installed
    assert details(log, "switch-exec") == [
        {"command": ofwire.to_json(bundled), "origin": "bundle", "controller": "c0"},
        {"command": ofwire.to_json(direct), "origin": "direct", "controller": "c0"},
        {"command": ofwire.to_json(PacketOut(direct.actions, pkt)), "origin": "table", "controller": None},
    ]
    assert [r.get("bundle_id") for r in log.as_dicts() if r["kind"] == "switch-exec"] == [4, None, None]


def test_log_append_renders_each_body_as_its_json():
    log = TraceLog(clock=lambda: 0.0)
    coord = CoordService(trace=log)
    sid = coord.open_session("c0", 100.0, 0.0)
    coord.enroll(sid, "c0", 0.0)
    pkt = ofwire.ether_payload(DST, SRC, b"q")
    bodies = [
        SwitchEvent("s0", 3, KIND_PACKET_IN, PacketIn(ofwire.NO_BUFFER, 2, pkt), event_id=1),
        SwitchEvent("s1", 1, KIND_PORT_STATUS, PortStatus(5, False), event_id=2),
        SwitchEvent("s1", SWITCH_FAILURE_SEQ, KIND_SWITCH_FAILURE, None, event_id=3),
        ProcessedBody(1),
    ]
    coord.append(sid, coord.epoch, bodies, 0.0)
    got = details(log, "log-append")
    assert got == [{"seq": i, "body": body_to_json(body)} for i, body in enumerate(bodies, start=1)]
    assert got[2]["body"]["event"]["message"] is None
    assert got[3] == {"seq": 4, "body": {"kind": "processed", "event_id": 1}}


def test_event_emitted_renders_the_connections_as_a_list():
    log = TraceLog(clock=lambda: 0.0)
    sw = Switch("s0", trace=log)
    c0, c1 = Conn("c0", 1), Conn("c1", 2)
    sw.attach(c0)
    sw.attach(c1)
    sw.inject_packet(ofwire.ether_payload(DST, SRC), in_port=3)
    sw.set_port(2, False)
    sw.on_conn_closed(c0.uid)
    sw.inject_packet(ofwire.ether_payload(DST, SRC), in_port=1)
    sw.attach(Conn("c0", 3))
    sw.set_port(2, True)
    assert details(log, "event-emitted") == [
        {"origin": "dataplane", "in_port": 3, "conns": ["c0", "c1"]},
        {"origin": "port-status", "conns": ["c0", "c1"]},
        {"origin": "dataplane", "in_port": 1, "conns": ["c1"]},
        {"origin": "port-status", "conns": ["c1", "c0"]},
    ]
    assert [r["switch_seq"] for r in log.as_dicts() if r["kind"] == "event-emitted"] == [1, 2, 3, 4]


def test_records_emitted_after_a_read_are_rendered_by_the_next():
    log = TraceLog(clock=lambda: 0.0)
    sw = Switch("s0", trace=log)
    sw.attach(Conn("c0", 1))
    sw.inject_packet(ofwire.ether_payload(DST, SRC), in_port=3)
    first = log.as_dicts()
    sw.inject_packet(ofwire.ether_payload(DST, SRC), in_port=3)  # the switch's shared compact detail again
    second = log.as_dicts()
    assert second[0] == first[0] and second[0]["detail"] is first[0]["detail"]
    assert second[1]["detail"] == {"origin": "dataplane", "in_port": 3, "conns": ["c0"]}


def _small_cfg() -> ScenarioConfig:
    return ScenarioConfig(
        n_switches=2, n_controllers=2, packets_per_switch=20, session_timeout_ms=100.0, app="learning", seed=1,
        fault_plan=[FaultInjection(point=F2, trigger_event=8),
                    FaultInjection(target="switch:s1", point=AT_TIME, at_time_ms=40.0)],
    )


def _small_run():
    result = run_scenario(_small_cfg())
    assert result.passed
    return result


def _holds_bytes_or_tuple(value) -> bool:
    if isinstance(value, (bytes, tuple)):
        return True
    if isinstance(value, dict):
        return any(_holds_bytes_or_tuple(v) for v in value.values())
    if isinstance(value, list):
        return any(_holds_bytes_or_tuple(v) for v in value)
    return False


def _stored(log: TraceLog) -> list[tuple[str, dict]]:
    """The kind and detail of each stored record of a compact kind."""
    fields = log._fields  # the stored records, nine fields each; the kind first, the detail last
    return [(kind, detail) for kind, detail in zip(fields[0::9], fields[8::9]) if kind in COMPACT_KINDS]


def test_as_dicts_leaves_no_compact_detail_stored():
    log = _small_run().world.trace
    assert log._fields == []  # every record is held once, rendered
    stored = [(r["kind"], r["detail"]) for r in log._records if r["kind"] in COMPACT_KINDS]
    assert {kind for kind, _ in stored} == set(COMPACT_KINDS)
    assert [kind for kind, detail in stored if _holds_bytes_or_tuple(detail)] == []


def test_as_dicts_twice_gives_equal_lists(monkeypatch):
    log = _small_run().world.trace
    first = log.as_dicts()
    renders = []
    for kind, render in list(trace._RENDER.items()):
        monkeypatch.setitem(trace._RENDER, kind, lambda detail, render=render: renders.append(detail) or render(detail))
    second = log.as_dicts()
    assert second == first and renders == []  # the second call renders nothing again
    assert second is not first and all(a is b for a, b in zip(first, second))
    assert set(COMPACT_KINDS) <= {r["kind"] for r in first}


def _distinct_details(packets_per_switch: int) -> dict[str, int]:
    cfg = ScenarioConfig(n_switches=2, n_controllers=2, packets_per_switch=packets_per_switch, seed=1)
    result = run_scenario(cfg)
    assert result.passed
    ids: dict[str, set[int]] = {}
    for r in result.records:
        kind = r["kind"]
        if kind == "event-emitted" and r["detail"]["origin"] != "dataplane":
            continue
        if kind in ("event-collected", "delivered", "marker-received", "commit-sent", "event-emitted"):
            ids.setdefault(kind, set()).add(id(r["detail"]))
    return {kind: len(s) for kind, s in ids.items()}


def test_repeated_details_are_shared_however_many_packets_run():
    small, large = _distinct_details(20), _distinct_details(200)
    assert set(small) == {"event-collected", "delivered", "marker-received", "commit-sent", "event-emitted"}
    assert large == small


def test_stored_details_of_the_per_packet_kinds_are_not_tracked_by_the_collector():
    # The trace as a run leaves it, before any as_dicts renders it. A full
    # collection untracks a dict of atomic values, even one that was copied from
    # a dict holding an object, so the run and the first check see no collection.
    cfg = _small_cfg()
    enabled = gc.isenabled()
    gc.disable()
    try:
        world = DetWorld(cfg)
        for inj in build_workload(cfg):
            world.at(inj.time_ms, partial(_inject, world, inj))
        assert world.run(2_000.0)
        world.stop()
        stored = _stored(world.trace)
        assert {kind for kind, _ in stored} == set(COMPACT_KINDS)
        assert {kind for kind, detail in stored if _holds_bytes_or_tuple(detail)} == set(COMPACT_KINDS)  # not rendered
        assert [kind for kind, detail in stored if kind != "event-emitted" and gc.is_tracked(detail)] == []
    finally:
        if enabled:
            gc.enable()
    # An event-emitted detail holds its connections as a tuple. A new tuple is
    # tracked, and the dict holding it with it, until a collection untracks both.
    gc.collect()
    assert [kind for kind, detail in stored if gc.is_tracked(detail)] == []


# The traced peak of a run and its rendering, per record of the trace. A
# trace that kept each record's nine compact fields beside its JSON dict
# after ``as_dicts`` peaked at 557 B/record; one that holds each record in
# one place peaks at 514: each record once, plus one block held in both
# forms, the render memo and the returned list. The bound lies half-way.
RUN_AND_RENDER_PEAK_BYTES_PER_RECORD = 535


def test_a_run_and_its_rendering_hold_each_record_once():
    cfg = ScenarioConfig(n_switches=2, n_controllers=2, packets_per_switch=2000, seed=3)
    gc.collect()
    tracemalloc.start()
    try:
        world = DetWorld(cfg)
        plan = build_workload(cfg)
        for inj in plan:
            world.at(inj.time_ms, partial(_inject, world, inj))
        assert world.run(max(inj.time_ms for inj in plan) + 2_000.0)
        world.stop()
        records = world.trace.as_dicts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 84_005
    assert peak / len(records) < RUN_AND_RENDER_PEAK_BYTES_PER_RECORD
    assert world.trace._fields == []
