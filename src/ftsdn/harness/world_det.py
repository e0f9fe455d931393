"""Deterministic topology: coordination service, replicas, and switches as
actors on one scheduler, joined by FIFO channels whose latencies the
scheduler draws. A link is one channel, and both its ends are bound as soon
as it is made."""

from __future__ import annotations

from typing import Callable

from ..switchsim import Switch
from ..trace import TraceLog
from .config import ScenarioConfig
from .core import Controller, CoordHost, World
from .runtime_det import Channel, Executor, Scheduler


class SwitchNode:
    def __init__(self, sched: Scheduler, sid: str, trace: TraceLog) -> None:
        self.exec = Executor(sched, sid)
        self.switch = Switch(sid, trace=trace.emitter(sid))


class DetWorld(World):
    def __init__(self, cfg: ScenarioConfig, trace: TraceLog | None = None) -> None:
        cfg.validate()
        self.sched = Scheduler(cfg.seed)
        super().__init__(cfg, trace if trace is not None else TraceLog(clock=lambda: self.sched.now))
        self.coord = CoordHost(Executor(self.sched, "coord"), self.trace)
        self.switches = {f"s{i}": SwitchNode(self.sched, f"s{i}", self.trace) for i in range(cfg.n_switches)}
        cids = [f"c{i}" for i in range(cfg.n_controllers)]
        self.ctrls = {
            cid: Controller(cid, Executor(self.sched, cid), cfg, self.trace, self.fault_hook(cid))
            for cid in cids
        }
        for ctrl in self.ctrls.values():
            self._connect(ctrl)
        self._arm_timed_faults()

    # -- construction -------------------------------------------------------

    def _link(self, a, b, bind_a: Callable, bind_b: Callable) -> None:
        """One channel between ``a`` and ``b``; its ends are bound at once."""
        end_a, end_b = Channel(self.sched, a.exec, b.exec).ends
        bind_a(end_a)
        bind_b(end_b)

    # -- what the shared driver and fault injector need ------------------------

    def at(self, time_ms: float, fn: Callable[[], None]) -> None:
        self.sched.schedule_at(time_ms, fn)

    def crash_switch(self, sid: str) -> None:
        node = self.switches[sid]
        if not node.exec.alive:
            return
        node.switch.crash()
        node.exec.stop()

    def stall(self, cid: str, pause_ms: float) -> None:
        node = self.ctrls[cid]
        node.exec.busy_until = max(node.exec.busy_until, self.sched.now + pause_ms)

    def inject(self, sid: str, payload: bytes, in_port: int) -> None:
        node = self.switches[sid]
        if node.exec.alive:
            node.switch.inject_packet(payload, in_port)

    def run(self, deadline_ms: float) -> bool:
        return self.sched.run(deadline_ms, self.quiescent)

