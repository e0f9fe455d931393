"""End-to-end scenario tests on the deterministic transport, plus socket
runs. These exercise the full stack: switches, replicas, coordination,
fault injection, and the checker."""

import hashlib
import json
import threading
import time
from functools import partial

import pytest

from ftsdn import ofwire
from ftsdn.ctrl import FatalProtocolError, Replica
from ftsdn.harness.cli import main
from ftsdn.harness.config import FaultInjection, ScenarioConfig
from ftsdn.harness.runtime_socket import SocketWorld
from ftsdn.harness.scenario import build_workload, run_scenario
from ftsdn.harness.world_det import DetWorld
from ftsdn.switchsim import Switch

from latency_pins import pin_latencies


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


# The sha256 of each plan's (time_ms, switch_id, payload, in_port) reprs, in plan order, for
# the det-forward and det-learn-failover benchmark configs (the fault plan does not change
# the packets), 12 switches (s10 sorts before s2) with every packet at one time, and a
# negative gap.
PLAN_SHA256 = {
    (8, 1000, 4, 2.0, 1): "c0b613d4edded1fd3e9f6f87d89930b994beb0c8d9e4544ed92e0207dae612c1",
    (8, 2000, 4, 2.0, 1): "e1e2b592167e2642f6ff07708e4b566b4765618841c5dd6c2466382730e52667",
    (12, 40, 3, 0.0, 7): "ccf2f025b8f24192d9bf68e3b247b20e1ae2f6f20cdc8df285f6e7446b7182f7",
    (3, 30, 2, -1.5, 2): "ce5453d11ee03a3fb3548e7cdf0b5ef6baf4c90d19547fb5d909b36d247cd2a0",
}


@pytest.mark.parametrize("params", PLAN_SHA256)
def test_the_packet_plan_is_pinned(params):
    n_switches, packets_per_switch, hosts_per_switch, inter_arrival_ms, seed = params
    cfg = ScenarioConfig(n_switches=n_switches, packets_per_switch=packets_per_switch,
                         hosts_per_switch=hosts_per_switch, inter_arrival_ms=inter_arrival_ms, seed=seed)
    h = hashlib.sha256()
    for inj in build_workload(cfg):
        h.update(repr((inj.time_ms, inj.switch_id, inj.payload, inj.in_port)).encode())
    assert h.hexdigest() == PLAN_SHA256[params]


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
    cfg = base_cfg(packets_per_switch=2)
    pins = {("s0", "c0"): 1.0, ("s1", "c0"): 2.0, ("s0", "c1"): 6.0, ("s1", "c1"): 1.0}
    result = run_scenario(cfg, mutate=pin_latencies(pins))
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


@pytest.mark.parametrize("kill", [False, True], ids=["no-fault", "master-kill"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("app", ["forwarding", "learning"])
def test_port_flaps_are_numbered_with_the_packet_ins(app, seed, kill):
    def flap_ports(world):
        for node in world.switches.values():
            for i in range(8):
                world.at(25.0 + 7.0 * i, partial(node.switch.set_port, 3, i % 2 == 1))

    faults = [FaultInjection(target="master", point="at-time", at_time_ms=61.0)] if kill else []
    cfg = base_cfg(n_controllers=3, packets_per_switch=40, inter_arrival_ms=3.0, batch_time_ms=5.0,
                   app=app, seed=seed, fault_plan=faults)
    result = run_scenario(cfg, mutate=flap_ports)
    assert result.passed, result.report.format()
    logged, emitted = {}, {}
    for rec in result.records:
        if rec["kind"] == "log-append" and rec["detail"]["body"].get("kind") == "event":
            ev = rec["detail"]["body"]["event"]
            if ev["kind"] != "switch-failure":
                logged.setdefault(ev["switch_id"], []).append((ev["switch_seq"], ev["kind"]))
        elif rec["kind"] == "event-emitted" and rec["detail"]["origin"] in ("dataplane", "port-status"):
            kind = "packet-in" if rec["detail"]["origin"] == "dataplane" else "port-status"
            emitted.setdefault(rec["actor"], []).append((rec["switch_seq"], kind))
    assert set(logged) == {"s0", "s1"}
    for switch_id, occurrences in logged.items():
        assert sorted(occurrences) == emitted[switch_id]
        assert [kind for _, kind in occurrences].count("port-status") == 8


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


def test_fault_that_never_fires_is_missed(capsys, tmp_path):
    # the run logs 10 events, so event 10,000 never reaches the F1 point
    fault = FaultInjection(point="F1", trigger_event=10_000)
    cfg = base_cfg(n_switches=1, packets_per_switch=10, fault_plan=[fault])
    result = run_scenario(cfg)
    missed = [r["detail"] for r in result.missed_faults]
    assert missed == [{"target": "master", "point": "F1", "reason": "never-reached"}]
    assert records_of(result, "fault-injected") == []
    assert result.quiescent and result.report.all_pass
    assert not result.passed
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_json()))
    assert main(["run", "--config", str(path)]) == 1
    assert "planned fault missed its target" in capsys.readouterr().out


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


@pytest.mark.parametrize("transport", ["deterministic", "sockets"])
def test_the_first_master_fences_every_switch(transport):
    # a controller is linked to its switches before its session opens; elected
    # any earlier, it would announce its role to no switch
    cfg = ScenarioConfig(transport=transport, n_switches=3, n_controllers=2)
    world = SocketWorld(cfg) if transport == "sockets" else DetWorld(cfg)
    fenced = [("c0", 1)] * 3

    def roles():
        switches = [node.switch for node in world.switches.values()]
        return [(getattr(sw.master, "controller_id", None), sw.master_epoch) for sw in switches]

    try:
        if transport == "sockets":  # built once c0 is master; its announcements are on their way
            deadline = time.monotonic() + 2.0
            while roles() != fenced and time.monotonic() < deadline:
                time.sleep(0.01)
        else:
            world.sched.run(cfg.workload_start_ms)
        assert world.ctrls["c0"].replica.role == "master"
        assert roles() == fenced
    finally:
        world.stop()


@pytest.mark.parametrize("transport", ["deterministic", "sockets"])
def test_a_protocol_error_crashes_the_replica(transport):
    cfg = ScenarioConfig(transport=transport, n_switches=1, n_controllers=2, session_timeout_ms=200.0)
    world = SocketWorld(cfg) if transport == "sockets" else DetWorld(cfg)
    slave = world.ctrls["c1"]

    def broken(seq, body):
        raise FatalProtocolError("injected")

    slave.replica.on_log_entry = broken
    payload = ofwire.ether_payload("02:00:00:00:00:02", "02:00:00:00:00:01", b"x")
    world.at(20.0, lambda: world.inject("s0", payload, 1))
    try:
        quiescent = world.run(5000.0)
    finally:
        world.stop()
    records = world.trace.as_dicts()
    assert [r["actor"] for r in records if r["kind"] == "replica-fatal"] == ["c1"]
    crashed = [(r["actor"], r["detail"]) for r in records if r["kind"] == "controller-crashed"]
    assert crashed == [("c1", {"reason": "fatal"})]
    assert slave.dead
    assert quiescent


@pytest.mark.parametrize("transport", ["deterministic", "sockets"])
def test_wrappers_installed_after_the_world_is_built_see_every_message(transport, monkeypatch):
    # perfbench's probes wrap the classes; the model bench and the mutations wrap one switch
    at_switch = []  # (switch, controller) per message a switch handled
    at_replica = []  # (controller, switch) per message a replica handled
    at_s0 = []  # controller per message the wrapper on s0 alone saw

    def wrap(world):
        switch_on_message = Switch.on_message
        on_switch_message = Replica.on_switch_message

        def switch_wrapper(self, conn, msg):
            at_switch.append((self.switch_id, conn.controller_id))
            switch_on_message(self, conn, msg)

        def replica_wrapper(self, switch_id, msg):
            at_replica.append((self.controller_id, switch_id))
            on_switch_message(self, switch_id, msg)

        monkeypatch.setattr(Switch, "on_message", switch_wrapper)
        monkeypatch.setattr(Replica, "on_switch_message", replica_wrapper)
        s0 = world.switches["s0"].switch
        s0_on_message = s0.on_message

        def instance_wrapper(conn, msg):
            at_s0.append(conn.controller_id)
            s0_on_message(conn, msg)

        s0.on_message = instance_wrapper

    cfg = base_cfg(transport=transport, n_controllers=3, packets_per_switch=10, inter_arrival_ms=3.0,
                   session_timeout_ms=200.0)
    result = run_scenario(cfg, mutate=wrap)
    assert result.passed, result.report.format()
    pairs = {(s, c) for s in ("s0", "s1") for c in ("c0", "c1", "c2")}
    assert {s for s, _ in at_switch} == {"s0", "s1"}
    assert {(s, c) for c, s in at_replica} == pairs
    # the instance wrapper sits on top of the class wrapper, so both see each of s0's messages
    assert at_s0 and at_s0 == [c for s, c in at_switch if s == "s0"]


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
            coord_end = cnode.exec.links[-1]  # a controller's last link is to the coordination service
            handler = coord_end.on_message

            def on_message(msg, cid=cid, handler=handler):
                if msg["op"] == "entries":
                    received.setdefault(cid, []).append((msg["first"], msg["bodies"]))
                handler(msg)

            coord_end.on_message = on_message

    result = run_scenario(base_cfg(n_controllers=3, batch_time_ms=5.0), mutate=record)
    assert result.passed
    log = result.world.coord.service.log
    assert any(hi > lo for lo, hi in accepted)  # some appends carried several entries
    assert sorted(received) == ["c0", "c1", "c2"]
    for calls in received.values():
        assert [(first, first + len(bodies) - 1) for first, bodies in calls] == accepted
        assert [body for _, bodies in calls for body in bodies] == log
