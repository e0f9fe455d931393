import gc
import sys
import threading
from functools import partial

from ftsdn import ofwire, trace
from ftsdn.coord import CoordService, ProcessedBody, body_to_json
from ftsdn.events import (
    KIND_PACKET_IN,
    KIND_PORT_STATUS,
    KIND_SWITCH_FAILURE,
    SWITCH_FAILURE_SEQ,
    SwitchEvent,
    port_status_seq,
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


def test_concurrent_emits_keep_every_record_whole():
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
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)

    records = log.as_dicts()
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
        SwitchEvent("s0", 3, KIND_PACKET_IN, PacketIn("s0", 3, ofwire.NO_BUFFER, 2, pkt), event_id=1),
        SwitchEvent("s1", port_status_seq(0), KIND_PORT_STATUS, PortStatus("s1", 5, False), event_id=2),
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
        {"origin": "port-status", "index": 1, "conns": ["c0", "c1"]},
        {"origin": "dataplane", "in_port": 1, "conns": ["c1"]},
        {"origin": "port-status", "index": 2, "conns": ["c1", "c0"]},
    ]


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
    stored = _stored(log)
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
    assert all(a.get("detail") is b.get("detail") for a, b in zip(first, second))
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
