"""Scenario runner: build a topology in either transport, drive the
workload and fault plan to quiescence, and hand the trace to the checker."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

from .. import ofwire
from .checker import CheckReport, check_records
from .config import ScenarioConfig
from .core import World
from .runtime_socket import SocketWorld
from .world_det import DetWorld


def host_mac(switch_index: int, host_index: int) -> str:
    return f"02:00:00:{switch_index:02x}:00:{host_index + 1:02x}"


@dataclass(slots=True)
class Injection:
    time_ms: float
    switch_id: str
    payload: bytes
    in_port: int


def build_workload(cfg: ScenarioConfig) -> list[Injection]:
    """Per-switch fixed-rate packet plan with seeded host pairs.

    Switches start in lockstep so that cross-switch races are exercised; the
    inter-switch interleaving seen by each controller is then decided by the
    seeded channel latencies. The plan is sorted stably by time, then by
    switch id as a string (``s10`` before ``s2``).
    """
    rng = random.Random((cfg.seed << 8) ^ 0x5EED)
    hosts = list(range(cfg.hosts_per_switch))
    others = [[h for h in hosts if h != src] for src in hosts]  # each source's destinations
    plan: list[Injection] = []
    for si in range(cfg.n_switches):
        sid = f"s{si}"
        macs = [ofwire.mac_bytes(host_mac(si, h)) for h in hosts]
        for pi in range(cfg.packets_per_switch):
            src = rng.choice(hosts)
            dst = rng.choice(others[src])
            t = cfg.workload_start_ms + pi * cfg.inter_arrival_ms
            plan.append(Injection(t, sid, macs[dst] + macs[src] + b"pkt-%d-%d" % (si, pi), src + 1))
    plan.sort(key=attrgetter("time_ms", "switch_id"))
    return plan


@dataclass
class ScenarioResult:
    records: list[dict]
    report: CheckReport
    quiescent: bool
    world: object

    @property
    def missed_faults(self) -> list[dict]:
        """The planned faults that found no live node to hit or never fired."""
        return [r for r in self.records if r["kind"] == "fault-missed"]

    @property
    def passed(self) -> bool:
        return self.quiescent and self.report.all_pass and not self.missed_faults


def run_scenario(cfg: ScenarioConfig, mutate=None) -> ScenarioResult:
    """Run ``cfg`` in its transport until quiescence or the deadline, then
    check the trace. ``mutate(world)`` may patch the world before it runs."""
    cfg.validate()
    world = SocketWorld(cfg) if cfg.transport == "sockets" else DetWorld(cfg)
    world.trace.emit("run-meta", "harness", detail={"config": cfg.to_json()})
    if mutate is not None:
        mutate(world)
    plan = build_workload(cfg)
    for inj in plan:
        world.at(inj.time_ms, partial(_inject, world, inj))
    workload_end = max((inj.time_ms for inj in plan), default=0.0)
    fault_slack = (len(cfg.fault_plan) + 1) * 4 * cfg.session_timeout_ms
    deadline = workload_end + fault_slack + 2_000.0
    try:
        quiescent = world.run(deadline)
        if not quiescent:
            world.trace.emit("quiescence-timeout", "harness", detail={"deadline_ms": deadline})
    finally:
        world.stop()
    world.record_unfired()
    records = world.trace.as_dicts()
    report = check_records(records)
    return ScenarioResult(records, report, quiescent, world)


def _inject(world: World, inj: Injection) -> None:
    world.trace.emit(
        "packet-injected",
        "harness",
        switch_id=inj.switch_id,
        detail={"in_port": inj.in_port, "payload": inj.payload.hex()},
    )
    world.inject(inj.switch_id, inj.payload, inj.in_port)
