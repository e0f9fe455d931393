"""Deterministic topology: coordination service, replicas, and switches as
actors on one scheduler, joined by seeded-latency FIFO channels."""

from __future__ import annotations

from typing import Callable

from ..switchsim import Switch
from ..trace import TraceLog
from .config import ScenarioConfig
from .core import Controller, CoordHost, World, bind_controller
from .runtime_det import Channel, Executor, Scheduler, default_latency, fixed_latency


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

    def _latency_fn(self, src: str, dst: str):
        override = self.cfg.latency_overrides.get(f"{src}->{dst}")
        if override is None:
            override = self.cfg.latency_overrides.get(f"{dst}->{src}")
        if override is not None:
            return fixed_latency(float(override))
        return default_latency(self.sched.rng)

    def _connect(self, ctrl: Controller) -> None:
        """Join a controller to the coordination service and every switch,
        then open its session."""
        cid = ctrl.cid
        chan = Channel(self.sched, ctrl.exec, self.coord.exec, self._latency_fn(cid, "coord"))
        ctrl_end, coord_end = chan.ends
        ctrl.bind_coord(ctrl_end)
        for sid, snode in self.switches.items():
            chan = Channel(self.sched, ctrl.exec, snode.exec, self._latency_fn(cid, sid))
            ctrl_end, sw_end = chan.ends
            bind_controller(snode.switch, cid, sw_end)
            ctrl.bind_switch(sid, ctrl_end)
        self.coord.bind_controller(cid, self.cfg.session_timeout_ms, coord_end)
        ctrl.start_heartbeat()

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

