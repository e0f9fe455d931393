"""The three workloads, each driven from the benchmark's own process.

A workload hands the program only generated inputs: a scenario config and
the packet plan that ``build_workload`` derives from the config's seed.
Every run goes through the same stages: set-up (build the world until a
master is elected, then schedule the workload), the measured phase (inject
until quiescence), taking the trace, and checking it.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import socket
import threading
import time
from array import array
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter, process_time

from ftsdn import ofwire
from ftsdn.harness.checker import check_records
from ftsdn.harness.config import AT_TIME, F2, F3, FaultInjection, ScenarioConfig
from ftsdn.harness.runtime_socket import SocketWorld
from ftsdn.harness.scenario import _inject, build_workload  # _inject: the same records `ftsdn run` writes
from ftsdn.harness.world_det import DetWorld
from ftsdn.trace import TraceLog

from measure import failed_count, largest_gap_after, latencies_from_due

# trace kinds the checker reads; the rest are diagnostic
CHECKER_KINDS = frozenset(
    {"run-meta", "controller-crashed", "switch-crashed", "log-append", "delivered", "event-emitted", "switch-exec"}
)

# The open loop runs at 200 pkts/s, about 22% of the socket world's measured
# saturation rate (about 900 pkts/s). At 400 pkts/s, slow spells of a shared
# host (1.7x) pushed the loop near saturation and the median latency jumped
# from 6 to 8.5 ms.
SOCKET_RATE_PPS = 200
# A session is short because the program's retained heap grows with every
# packet (the trace is kept in memory), and with it the collector's pauses:
# at 400 pkts/s, 30 s sessions reached a 277 ms p99 and one in five lost both
# coordination sessions to spurious expiry. A run repeats sessions. Each one
# has about 1200 latency samples before the kill.
SOCKET_SESSION_S = 7.0
SOCKET_KILL_BEFORE_END_S = 1.0  # outage (500 ms timeout + promotion) plus recovery traffic
SETUPS = 3  # set-ups per run; set-up is short, so it is timed several times
CHECK_REPEATS = 3  # the checker is cheap beside a run, so time it several times
_MARKER_HEX = ofwire.MARKER_MAGIC.hex()


def _det_forward(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        n_switches=8, n_controllers=3, packets_per_switch=1000, hosts_per_switch=4,
        inter_arrival_ms=2.0, app="forwarding", seed=seed,
    )


def _det_learn_failover(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        n_switches=8, n_controllers=3, packets_per_switch=2000, hosts_per_switch=4,
        inter_arrival_ms=2.0, app="learning", seed=seed,
        fault_plan=[
            FaultInjection(target="master", point=F2, trigger_event=20),
            FaultInjection(target="master", point=F3, trigger_event=400),
        ],
    )


def _socket_steady(seed: int) -> ScenarioConfig:
    n_switches = 2
    duration_ms = SOCKET_SESSION_S * 1000.0
    per_switch_gap_ms = 1000.0 * n_switches / SOCKET_RATE_PPS
    start_ms = 20.0
    return ScenarioConfig(
        transport="sockets", n_switches=n_switches, n_controllers=2, app="forwarding", seed=seed,
        batch_time_ms=5.0, session_timeout_ms=500.0, heartbeat_interval_ms=2.0,
        inter_arrival_ms=per_switch_gap_ms, workload_start_ms=start_ms,
        packets_per_switch=int((duration_ms - start_ms) / per_switch_gap_ms),
        fault_plan=[
            FaultInjection(target="master", point=AT_TIME, at_time_ms=duration_ms - SOCKET_KILL_BEFORE_END_S * 1000.0)
        ],
    )


# the workloads by name; each makes its scenario config from the seed
WORKLOADS = {
    "det-forward": _det_forward,
    "det-learn-failover": _det_learn_failover,
    "socket-steady": _socket_steady,
}


@dataclass
class RunResult:
    """One set-up, measured phase and check of a workload."""

    setup_s: list  # seconds of each set-up made for this run
    run_s: float
    cpu_s: float
    as_dicts_s: float
    check_s: list  # seconds of each check of this run's trace
    records: list
    stamp_ms: list  # milliseconds at which each record was emitted, on the run's clock
    measure_start_ms: float  # milliseconds on the same clock when the measured phase began
    attempted: int
    due_ms: dict  # payload hex -> wall-clock ms the packet was due
    latency_until_ms: float | None  # only packets due before this count for latency
    kill_ms: list  # wall-clock ms of each fired fault
    planned_faults: int
    quiescent: bool
    checker_pass: bool
    leader_at_end: bool
    rules_max: int
    gen_late_ms: list = field(default_factory=list)
    report_text: str = ""

    def analyse(self) -> dict:
        per_switch, served = _data_packet_outs(self.records, self.stamp_ms)
        served = {k: t for k, t in served.items() if k in self.due_ms}
        fired = sum(1 for r in self.records if r["kind"] == "fault-injected")
        crashed = {r["actor"] for r in self.records if r["kind"] == "controller-crashed"}
        expired = [r["detail"]["controller"] for r in self.records if r["kind"] == "session-expired"]
        run_ok = self.quiescent and self.checker_pass and fired == self.planned_faults and self.leader_at_end
        due = self.due_ms
        if self.latency_until_ms is not None:
            due = {k: t for k, t in due.items() if t < self.latency_until_ms}
        first_kill = min(self.kill_ms) if self.kill_ms else None
        gaps = [largest_gap_after(times, first_kill) for times in per_switch.values()]
        return {
            "run_ok": run_ok,
            "served": len(served),
            "failed": failed_count(self.attempted, len(served), run_ok),
            "faults_fired": fired,
            "sessions_expired": len(expired),
            "spurious_expiries": sum(1 for c in expired if c not in crashed),
            "latencies_ms": sorted(latencies_from_due(due, served)),
            "failover_gap_ms": max(gaps, default=0.0),
        }


def _data_packet_outs(records: list, stamp_ms: list) -> tuple[dict, dict]:
    """Stamp in ms of every data PacketOut executed, per switch, and of the
    first one executed for each payload."""
    per_switch: dict[str, list] = {}
    served: dict[str, float] = {}
    for rec, t in zip(records, stamp_ms):
        if rec["kind"] != "switch-exec":
            continue
        cmd = rec["detail"]["command"]
        if cmd.get("type") != "PacketOut" or cmd.get("payload", "").startswith(_MARKER_HEX):
            continue
        per_switch.setdefault(rec["actor"], []).append(t)
        served.setdefault(cmd["payload"], t)
    return per_switch, served


def _check(records: list):
    """Check the trace; returns the report and the seconds of each check."""
    times = []
    for _ in range(CHECK_REPEATS):
        gc.collect()  # every check starts from the same heap
        t0 = perf_counter()
        report = check_records(records)
        times.append(perf_counter() - t0)
    return report, times


# ---------------------------------------------------------------------------
# deterministic transport


class _StampedClock:
    """Simulated-time clock for the program's trace that also notes the
    process CPU time of each record, so per-packet latency and output stalls
    can be read afterwards."""

    def __init__(self) -> None:
        self.sched = None
        self.stamps = array("d")

    def __call__(self) -> float:
        self.stamps.append(process_time())
        return self.sched.now if self.sched is not None else 0.0


def _build_det(cfg: ScenarioConfig):
    clock = _StampedClock()
    world = DetWorld(cfg, trace=TraceLog(clock=clock))
    clock.sched = world.sched
    world.trace.emit("run-meta", "harness", detail={"config": cfg.to_json()})
    plan = build_workload(cfg)
    for inj in plan:
        world.sched.schedule_at(inj.time_ms, partial(_inject, world, inj))
    # elect the first master: everything due before the first packet
    world.sched.run(plan[0].time_ms - 1e-9)
    if world.coord.service.leader is None:
        raise RuntimeError("no master elected before the first packet")
    return world, plan, clock


def run_det(cfg: ScenarioConfig, probes=None) -> RunResult:
    """One deterministic run, staged as ``ftsdn run`` stages it, after
    setting the world up several times and keeping the last one.

    The deterministic world runs on this thread alone and never waits, so its
    set-up, latencies and stalls are timed on the process CPU clock: time the
    host gives to other guests does not count."""
    setups = []
    for _ in range(SETUPS):
        world = None  # let the previous world go before timing the next
        t0 = process_time()
        world, plan, clock = _build_det(cfg)
        setups.append(process_time() - t0)
    workload_end = max(inj.time_ms for inj in plan)
    deadline = workload_end + (len(cfg.fault_plan) + 1) * 4 * cfg.session_timeout_ms + 2_000.0

    if probes is not None:
        probes.install()
    c1 = process_time()
    t1 = perf_counter()
    try:
        quiescent = world.run(deadline)
        run_s = perf_counter() - t1
        cpu_s = process_time() - c1
    finally:
        if probes is not None:
            probes.uninstall()
    if not quiescent:
        world.trace.emit("quiescence-timeout", "harness", detail={"deadline_ms": deadline})

    t2 = perf_counter()
    records = world.trace.as_dicts()
    as_dicts_s = perf_counter() - t2
    report, check_s = _check(records)

    stamp_ms = [t * 1000.0 for t in clock.stamps]
    due_ms = {
        rec["detail"]["payload"]: t for rec, t in zip(records, stamp_ms) if rec["kind"] == "packet-injected"
    }
    kill_ms = [t for rec, t in zip(records, stamp_ms) if rec["kind"] == "fault-injected"]
    return RunResult(
        run_s=run_s, cpu_s=cpu_s, as_dicts_s=as_dicts_s, check_s=check_s,
        records=records, stamp_ms=stamp_ms, measure_start_ms=c1 * 1000.0,
        attempted=len(plan), due_ms=due_ms, latency_until_ms=None, kill_ms=kill_ms,
        planned_faults=len(cfg.fault_plan), quiescent=quiescent, checker_pass=report.all_pass,
        leader_at_end=world.coord.service.leader is not None,
        rules_max=max(len(n.switch.flow_table) for n in world.switches.values()),
        setup_s=setups, report_text="" if report.all_pass else report.format(),
    )


# ---------------------------------------------------------------------------
# socket transport


def _teardown(world: SocketWorld, threads_before: int) -> None:
    """Close every socket and stop every executor, then wait until the
    threads the world started have ended.

    ``SocketWorld.stop`` closes the listening sockets, but closing does not
    wake a thread blocked in ``accept``; those threads would keep each
    session's servers, log and trace alive, and every later session would
    pay for them in collector pauses. Shutting the listeners down wakes them.
    """
    for ctrl in world.ctrls.values():
        if not ctrl.dead:
            ctrl.crash()  # shuts its sockets, so the peers' reader threads see EOF
    for server in [world.coord, *world.switches.values()]:
        try:
            server._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
    world.stop()
    deadline = time.monotonic() + 5.0
    while threading.active_count() > threads_before and time.monotonic() < deadline:
        time.sleep(0.01)
    if threading.active_count() > threads_before:
        raise RuntimeError(f"socket world left {threading.active_count() - threads_before} threads running")


def _build_socket(cfg: ScenarioConfig):
    t0 = perf_counter()
    world = SocketWorld(cfg)
    world.trace.emit("run-meta", "harness", detail={"config": cfg.to_json()})
    plan = _poisson_times(build_workload(cfg), cfg)
    return world, plan, perf_counter() - t0


def _poisson_times(plan: list, cfg: ScenarioConfig) -> list:
    """Keep the plan's packets and order but make arrivals a seeded Poisson
    process at the same mean rate. Evenly spaced arrivals every batch period
    lock into phase with the batch timer, and latency then depends on which
    side of the timer the packets fall."""
    rng = random.Random(cfg.seed ^ 0x9015)
    rate_per_ms = SOCKET_RATE_PPS / 1000.0
    t = cfg.workload_start_ms
    out = []
    for inj in plan:
        out.append(dataclasses.replace(inj, time_ms=t))
        t += rng.expovariate(rate_per_ms)
    return out


def run_socket(cfg: ScenarioConfig, probes=None) -> RunResult:
    """One open-loop socket session: set up several times and keep the last
    world, then inject on schedule, kill the master once, and drain."""
    setups = []
    world = plan = None
    threads_before = threading.active_count()
    for _ in range(SETUPS):
        if world is not None:
            _teardown(world, threads_before)
        world, plan, setup_s = _build_socket(cfg)
        setups.append(setup_s)

    kill_at_s = [f.at_time_ms / 1000.0 for f in cfg.fault_plan]
    due_ms: dict[str, float] = {}
    late_ms: list[float] = []
    kill_ms: list[float] = []
    leader_lost = False
    if probes is not None:
        probes.install()
    c1 = process_time()
    start = perf_counter()
    start_wall_ms = time.time_ns() * 1e-6
    try:
        for inj in plan:
            elapsed = perf_counter() - start
            while kill_at_s and elapsed >= kill_at_s[0]:
                kill_at_s.pop(0)
                target = world.master_id()
                if target is None:
                    leader_lost = True
                    continue
                kill_ms.append(time.time_ns() * 1e-6)
                world.trace.emit("fault-injected", "harness", detail={"target": target, "point": AT_TIME})
                world.ctrls[target].crash()
            due = inj.time_ms / 1000.0
            delay = due - (perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            late_ms.append((perf_counter() - start - due) * 1000.0)
            payload_hex = inj.payload.hex()
            due_ms[payload_hex] = start_wall_ms + inj.time_ms
            world.trace.emit(
                "packet-injected", "harness", switch_id=inj.switch_id,
                detail={"in_port": inj.in_port, "payload": payload_hex},
            )
            world.switches[inj.switch_id].inject(inj.payload, inj.in_port)
        leader_lost = leader_lost or world.master_id() is None
        # without a leader nothing more can be served: stop instead of waiting
        quiescent = False if leader_lost else world.wait_quiescent(10.0)
        run_s = perf_counter() - start
        cpu_s = process_time() - c1
    finally:
        if probes is not None:
            probes.uninstall()
    rules_max = max(len(n.switch.flow_table) for n in world.switches.values())
    leader_at_end = world.master_id() is not None
    t2 = perf_counter()
    records = world.trace.as_dicts()
    as_dicts_s = perf_counter() - t2
    _teardown(world, threads_before)

    report, check_s = _check(records)
    kill_before = min(kill_ms) if kill_ms else None
    return RunResult(
        run_s=run_s, cpu_s=cpu_s, as_dicts_s=as_dicts_s,
        check_s=check_s, records=records, stamp_ms=[r["timestamp"] * 1e-6 for r in records],
        measure_start_ms=start_wall_ms, attempted=len(plan), due_ms=due_ms,
        latency_until_ms=kill_before, kill_ms=kill_ms, planned_faults=len(cfg.fault_plan),
        quiescent=quiescent, checker_pass=report.all_pass, leader_at_end=leader_at_end and not leader_lost,
        rules_max=rules_max, setup_s=setups, gen_late_ms=late_ms,
        report_text="" if report.all_pass else report.format(),
    )


def run_once(cfg: ScenarioConfig, probes=None) -> RunResult:
    if cfg.transport == "sockets":
        return run_socket(cfg, probes)
    return run_det(cfg, probes)

