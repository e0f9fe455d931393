"""End-to-end scenario tests on the deterministic transport, plus socket
runs. These exercise the full stack: switches, replicas, coordination,
fault injection, and the checker."""

import json
import threading
import time

import pytest

from ftsdn import ofwire
from ftsdn.ctrl import FatalProtocolError
from ftsdn.harness.config import FaultInjection, ScenarioConfig
from ftsdn.harness.runtime_socket import SocketWorld
from ftsdn.harness.scenario import run_scenario


def base_cfg(**kw):
    defaults = dict(
        n_switches=2,
        n_controllers=2,
        packets_per_switch=50,
        inter_arrival_ms=2.0,
        session_timeout_ms=100.0,
        seed=21,
        app="forwarding",
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def records_of(result, kind, **match):
    out = []
    for i, rec in enumerate(result.records):
        if rec.get("kind") != kind:
            continue
        if all(rec.get(k) == v for k, v in match.items()):
            out.append((i, rec))
    return out


def first_index(result, kind, **match):
    recs = records_of(result, kind, **match)
    assert recs, f"no {kind} record matching {match}"
    return recs[0][0]


def test_fault_free_baseline_executes_every_packet():
    cfg = base_cfg(n_switches=1, packets_per_switch=100)
    result = run_scenario(cfg)
    assert result.quiescent and result.report.all_pass
    outs = [
        r
        for _, r in records_of(result, "switch-exec", actor="s0")
        if r["detail"]["command"]["type"] == "PacketOut"
        and not r["detail"]["command"]["payload"].startswith("454f434d")
    ]
    assert len(outs) == 100
    assert result.report.summary["events"] == 100


def test_f1_event_recovered_from_slave_buffer():
    cfg = base_cfg(fault_plan=[FaultInjection(point="F1", trigger_event=30)])
    result = run_scenario(cfg)
    assert result.quiescent and result.report.all_pass
    crash_idx = first_index(result, "controller-crashed", actor="c0")
    # the old master assigned the id but the append never left
    assigned = records_of(result, "id-assigned", actor="c0", event_id=30)
    assert assigned and assigned[0][0] < crash_idx
    occurrence = (assigned[0][1]["switch_id"], assigned[0][1]["switch_seq"])
    logged = [
        (i, r)
        for i, r in records_of(result, "log-append")
        if r.get("switch_id") == occurrence[0] and r.get("switch_seq") == occurrence[1]
    ]
    assert len(logged) == 1, "the buffered event reaches the log exactly once"
    assert logged[0][0] > crash_idx, "and only after the failover"
    assert logged[0][1]["epoch"] == 2
    # each surviving replica delivered it exactly once
    eid = logged[0][1]["event_id"]
    assert len(records_of(result, "delivered", actor="c1", event_id=eid)) == 1


def test_f2_commands_resent_exactly_once_after_barrier():
    cfg = base_cfg(fault_plan=[FaultInjection(point="F2", trigger_event=30)])
    result = run_scenario(cfg)
    assert result.quiescent and result.report.all_pass
    crash_idx = first_index(result, "controller-crashed", actor="c0")
    # logged before the crash, but no commit ever left the old master
    assert first_index(result, "log-append", event_id=30) < crash_idx
    assert records_of(result, "commit-sent", actor="c0", event_id=30) == []
    # the opened-but-never-committed bundle was discarded at disconnect
    assert records_of(result, "bundle-discarded")
    # the new master probed and resent in a fresh bundle
    assert first_index(result, "barrier-sent", actor="c1") > crash_idx
    assert records_of(result, "probe-resend", actor="c1", event_id=30)
    resends = records_of(result, "commit-sent", actor="c1", event_id=30)
    assert len(resends) == 1


def test_f3_marker_prevents_resend():
    cfg = base_cfg(fault_plan=[FaultInjection(point="F3", trigger_event=30)])
    result = run_scenario(cfg)
    assert result.quiescent and result.report.all_pass
    crash_idx = first_index(result, "controller-crashed", actor="c0")
    sends = records_of(result, "commit-sent", event_id=30)
    assert len(sends) == 1 and sends[0][1]["actor"] == "c0" and sends[0][0] < crash_idx
    assert records_of(result, "marker-received", actor="c1", event_id=30)
    assert records_of(result, "probe-no-resend", actor="c1", event_id=30)
    assert records_of(result, "probe-resend", actor="c1", event_id=30) == []


def test_adversarial_interleaving_keeps_total_order():
    # two switches race; the channel latencies are pinned so the two
    # controllers see opposite arrival orders
    cfg = base_cfg(
        packets_per_switch=2,
        latency_overrides={
            "s0->c0": 1.0,
            "s1->c0": 2.0,
            "s0->c1": 6.0,
            "s1->c1": 1.0,
            "s0->s1": 1.0,
        },
    )
    result = run_scenario(cfg)
    assert result.quiescent and result.report.all_pass

    def arrival_order(actor):
        return [
            (r["switch_id"], r["switch_seq"])
            for _, r in records_of(result, "event-collected", actor=actor)
            if r["detail"]["kind"] == "packet-in"
        ]

    c0 = arrival_order("c0")
    c1 = arrival_order("c1")
    assert c0 == [("s0", 1), ("s1", 1), ("s0", 2), ("s1", 2)]
    assert c1 == [("s1", 1), ("s1", 2), ("s0", 1), ("s0", 2)]
    # despite that, delivery is identical, because the master's log order wins
    d0 = [r["event_id"] for _, r in records_of(result, "delivered", actor="c0")]
    d1 = [r["event_id"] for _, r in records_of(result, "delivered", actor="c1")]
    assert d0 == d1 == [1, 2, 3, 4]


def test_switch_crash_marks_pending_events_processed():
    cfg = base_cfg(
        packets_per_switch=40,
        fault_plan=[FaultInjection(target="switch:s1", point="at-time", at_time_ms=60.0)],
    )
    result = run_scenario(cfg)
    assert result.quiescent and result.report.all_pass
    failures = [
        r for _, r in records_of(result, "log-append")
        if r["detail"]["body"].get("kind") == "event"
        and r["detail"]["body"]["event"]["kind"] == "switch-failure"
    ]
    assert len(failures) == 1
    assert result.report.summary["losses"] == 0


def test_zombie_master_is_fenced_and_survives_as_slave():
    cfg = base_cfg(
        n_switches=1,
        packets_per_switch=60,
        inter_arrival_ms=5.0,
        fault_plan=[FaultInjection(point="zombie", at_time_ms=150.0, pause_ms=400.0)],
    )
    result = run_scenario(cfg)
    assert result.quiescent and result.report.all_pass
    assert records_of(result, "append-rejected", actor="c0")
    demotions = [
        r for _, r in records_of(result, "role-changed", actor="c0") if r["detail"]["role"] == "slave"
    ]
    assert demotions, "the paused ex-master must fall back to slave"
    assert result.report.summary["duplicates"] == 0


def test_woken_zombie_master_is_refused_by_the_switches():
    # the stalled master wakes up still believing it leads and sends bundles
    # after the new master's probe; the switches refuse them, so no command
    # runs twice. It sends them only when the latency draws queue an entries
    # push ahead of the leader change, so the test sweeps seeds for the race.
    refused_on = []
    for seed in range(20):
        cfg = base_cfg(
            app="learning",
            seed=seed,
            packets_per_switch=80,
            inter_arrival_ms=3.0,
            batch_time_ms=5.0,
            fault_plan=[FaultInjection(point="zombie", at_time_ms=60.0, pause_ms=150.0)],
        )
        result = run_scenario(cfg)
        assert result.quiescent and result.report.all_pass, f"seed {seed}: {result.report.format()}"
        opened = records_of(result, "refused-not-master", detail={"controller": "c0", "type": "BundleOpen"})
        if opened and records_of(result, "bundle-refused", actor="c0"):
            refused_on.append(seed)
    assert refused_on, "no seed woke the zombie into a refused bundle"


def test_learning_app_installs_rules_and_survives_failover():
    cfg = base_cfg(app="learning", packets_per_switch=80,
                   fault_plan=[FaultInjection(point="F2", trigger_event=12)])
    result = run_scenario(cfg)
    assert result.quiescent and result.report.all_pass
    flowmods = [
        r for _, r in records_of(result, "switch-exec")
        if r["detail"]["command"]["type"] == "FlowMod"
    ]
    assert flowmods
    table_hits = [r for _, r in records_of(result, "switch-exec") if r["detail"]["origin"] == "table"]
    assert table_hits, "installed rules must short-circuit later packets"


def test_port_status_takes_the_transactional_path():
    def add_port_flap(world):
        node = world.switches["s0"]
        world.at(40.0, lambda: node.switch.set_port(3, False))

    cfg = base_cfg(n_switches=1, packets_per_switch=10)
    result = run_scenario(cfg, mutate=add_port_flap)
    assert result.quiescent and result.report.all_pass
    ps = [
        r for _, r in records_of(result, "log-append")
        if r["detail"]["body"].get("kind") == "event"
        and r["detail"]["body"]["event"]["kind"] == "port-status"
    ]
    assert len(ps) == 1
    eid = ps[0]["event_id"]
    assert len(records_of(result, "delivered", actor="c0", event_id=eid)) == 1
    assert len(records_of(result, "delivered", actor="c1", event_id=eid)) == 1


def test_unrecoverable_loss_times_out_with_partial_trace():
    # a single controller tolerates no faults; killing it strands the run
    cfg = base_cfg(n_controllers=1, packets_per_switch=30,
                   fault_plan=[FaultInjection(point="at-time", at_time_ms=50.0)])
    result = run_scenario(cfg)
    assert not result.quiescent
    assert records_of(result, "quiescence-timeout")
    assert not result.passed  # the run fails on non-quiescence, not on the trace


def test_deterministic_reruns_are_byte_identical():
    def blob():
        cfg = base_cfg(app="learning", seed=33,
                       fault_plan=[FaultInjection(point="F1", trigger_event=9)])
        result = run_scenario(cfg)
        return b"\n".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")).encode() for r in result.records
        )

    assert blob() == blob()


def test_three_replicas_stay_prefix_consistent_under_f2():
    cfg = base_cfg(n_controllers=3, packets_per_switch=40, seed=14,
                   fault_plan=[FaultInjection(point="F2", trigger_event=25)])
    result = run_scenario(cfg)
    assert result.quiescent and result.report.all_pass
    assert result.report.summary["survivors"] == ["c1", "c2"]


def test_two_sequential_master_crashes_with_f_two():
    cfg = base_cfg(
        n_controllers=3,
        packets_per_switch=60,
        inter_arrival_ms=3.0,
        seed=15,
        fault_plan=[
            FaultInjection(point="F2", trigger_event=20),
            FaultInjection(point="at-time", at_time_ms=320.0),
        ],
    )
    result = run_scenario(cfg)
    assert result.quiescent and result.report.all_pass
    crashed = [r["actor"] for _, r in records_of(result, "controller-crashed")]
    assert crashed == ["c0", "c1"]
    assert result.report.summary["duplicates"] == 0
    assert result.report.summary["losses"] == 0


def test_replicas_keep_no_delivered_events_at_quiescence():
    cfg = base_cfg(n_controllers=3, fault_plan=[FaultInjection(point="F2", trigger_event=30)])
    result = run_scenario(cfg)
    assert result.passed
    live = [c.replica for c in result.world.ctrls.values() if c.exec.alive]
    assert [r.controller_id for r in live] == ["c1", "c2"]
    for replica in live:
        assert replica.delivered_upto == replica.max_logged_id > 0
        assert not replica.slave_buffer
        assert not replica.events_by_id
        assert not replica.processed_logged


def test_timed_fault_at_a_crashed_leader_is_missed():
    # F2 kills c0 at 27 ms; the service names it leader until its session
    # expires at 127 ms, so the at-time fault at 60 ms has no live target
    cfg = ScenarioConfig(
        n_switches=1,
        n_controllers=3,
        session_timeout_ms=100.0,
        batch_time_ms=5.0,
        seed=1,
        fault_plan=[
            FaultInjection(point="F2", trigger_event=2),
            FaultInjection(point="at-time", at_time_ms=60.0),
        ],
    )
    result = run_scenario(cfg)
    missed = [r["detail"] for r in result.missed_faults]
    assert missed == [{"target": "c0", "point": "at-time", "reason": "leader-dead"}]
    assert len(records_of(result, "fault-injected")) == 1
    assert [r["actor"] for _, r in records_of(result, "controller-crashed")] == ["c0"]
    assert result.quiescent and result.report.all_pass
    assert not result.passed


def test_timed_fault_without_a_leader_is_missed():
    # the only controller dies at 20 ms and its session expires at about 120 ms
    cfg = base_cfg(
        n_switches=1,
        n_controllers=1,
        packets_per_switch=5,
        fault_plan=[
            FaultInjection(point="at-time", at_time_ms=20.0),
            FaultInjection(point="zombie", at_time_ms=300.0),
        ],
    )
    result = run_scenario(cfg)
    missed = [r["detail"] for r in result.missed_faults]
    assert missed == [{"target": None, "point": "zombie", "reason": "no-leader"}]
    assert not result.passed


def test_socket_transport_smoke():
    cfg = ScenarioConfig(
        transport="sockets",
        n_switches=1,
        n_controllers=2,
        packets_per_switch=20,
        inter_arrival_ms=3.0,
        session_timeout_ms=200.0,
        seed=40,
    )
    result = run_scenario(cfg)
    assert result.quiescent
    assert result.report.all_pass


def test_socket_kill_after_last_packet_fires():
    cfg = ScenarioConfig(
        transport="sockets",
        n_switches=1,
        n_controllers=2,
        packets_per_switch=10,
        inter_arrival_ms=3.0,
        session_timeout_ms=200.0,
        seed=40,
        fault_plan=[FaultInjection(target="master", point="at-time", at_time_ms=2000.0)],
    )
    result = run_scenario(cfg)
    assert len(records_of(result, "fault-injected")) == 1
    assert len(records_of(result, "controller-crashed")) == 1
    assert result.passed


SOCKET_FAULTS = {
    "F1": FaultInjection(point="F1", trigger_event=3),
    "F2": FaultInjection(point="F2", trigger_event=3),
    "F3": FaultInjection(point="F3", trigger_event=3),
    "zombie": FaultInjection(point="zombie", at_time_ms=60.0, pause_ms=400.0),
    "switch-crash": FaultInjection(target="switch:s1", point="at-time", at_time_ms=60.0),
}


@pytest.mark.parametrize("fault", SOCKET_FAULTS.values(), ids=SOCKET_FAULTS.keys())
def test_socket_fault_points(fault):
    cfg = ScenarioConfig(
        transport="sockets",
        n_switches=2,
        n_controllers=2,
        packets_per_switch=40,
        inter_arrival_ms=5.0,
        batch_time_ms=5.0,
        session_timeout_ms=200.0,
        seed=3,
        fault_plan=[fault],
    )
    result = run_scenario(cfg)
    assert result.quiescent
    assert result.report.all_pass, result.report.format()
    assert len(records_of(result, "fault-injected")) == 1


def test_socket_world_fires_no_fault_without_run():
    cfg = ScenarioConfig(
        transport="sockets",
        n_switches=1,
        n_controllers=2,
        session_timeout_ms=200.0,
        fault_plan=[FaultInjection(point="at-time", at_time_ms=10.0)],
    )
    world = SocketWorld(cfg)
    try:
        time.sleep(0.2)
    finally:
        world.stop()
    kinds = {r["kind"] for r in world.trace.as_dicts()}
    assert "fault-injected" not in kinds and "controller-crashed" not in kinds


def test_socket_protocol_error_crashes_the_replica():
    world = SocketWorld(ScenarioConfig(transport="sockets", n_switches=1, n_controllers=2, session_timeout_ms=200.0))
    slave = world.ctrls["c1"]

    def broken(entry):
        raise FatalProtocolError("injected")

    slave.replica.on_log_entry = broken
    try:
        world.switches["s0"].inject(ofwire.ether_payload("02:00:00:00:00:02", "02:00:00:00:00:01", b"x"), 1)
        quiescent = world.wait_quiescent(5.0)
    finally:
        world.stop()
    fatal = [r for r in world.trace.as_dicts() if r["kind"] == "replica-fatal"]
    assert [r["actor"] for r in fatal] == ["c1"]
    assert slave.dead
    assert quiescent


def test_socket_world_stop_ends_its_threads():
    for n_switches, n_threads in ((2, 5), (3, 6)):
        before = set(threading.enumerate())
        world = SocketWorld(ScenarioConfig(transport="sockets", n_switches=n_switches, n_controllers=2))
        started = set(threading.enumerate()) - before
        world.stop()
        assert len(started) == n_threads  # one per node: the coord server, each switch, each controller
        assert not [t for t in started if t.is_alive()]


def test_each_replica_gets_one_entries_message_per_accepted_append():
    accepted = []
    received = {}

    def record(world):
        service = world.coord.service
        append = service.append

        def counted_append(*args):
            span = append(*args)  # raises for a rejected append
            accepted.append(span)
            return span

        service.append = counted_append
        for cid, cnode in world.ctrls.items():
            coord_end = cnode.endpoints[0]  # a controller connects to the coordination service first
            handler = coord_end.on_message

            def on_message(msg, cid=cid, handler=handler):
                if msg["op"] == "entries":
                    received.setdefault(cid, []).append(msg["entries"])
                handler(msg)

            coord_end.on_message = on_message

    result = run_scenario(base_cfg(n_controllers=3, batch_time_ms=5.0), mutate=record)
    assert result.passed
    log = result.world.coord.service.log
    assert any(hi > lo for lo, hi in accepted)  # some appends carried several entries
    assert sorted(received) == ["c0", "c1", "c2"]
    for calls in received.values():
        assert [(call[0].seq, call[-1].seq) for call in calls] == accepted
        assert [entry for call in calls for entry in call] == log
