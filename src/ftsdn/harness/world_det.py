"""Deterministic topology: coordination service, replicas, and switches as
actors on one scheduler, joined by seeded-latency FIFO channels."""

from __future__ import annotations

from typing import Callable

from ..coord import EventBody
from ..ctrl import ReplicaConfig
from ..switchsim import Switch
from ..trace import TraceLog
from .config import ScenarioConfig
from .core import Controller, CoordHost, SwitchConn, World
from .runtime_det import Channel, CostModel, Executor, Scheduler, default_latency, fixed_latency


class CtrlNode(Controller):
    def __init__(self, world: "DetWorld", cid: str, rcfg: ReplicaConfig | None) -> None:
        super().__init__(cid, Executor(world.sched, cid), world.cfg, rcfg, world.trace, world.fault_hook(cid))
        self.world = world
        self.endpoints: list = []

    def fail(self) -> None:
        self.world.crash_controller(self.cid, reason="fatal")


class SwitchNode:
    def __init__(self, world: "DetWorld", sid: str) -> None:
        self.world = world
        self.sid = sid
        self.exec = Executor(world.sched, sid)
        self.switch = Switch(sid, trace=world.trace.emitter(sid))
        self.endpoints: list = []


class DetWorld(World):
    def __init__(
        self,
        cfg: ScenarioConfig,
        trace: TraceLog | None = None,
        costs: CostModel | None = None,
        replica_cfg: ReplicaConfig | None = None,
    ) -> None:
        cfg.validate()
        self.sched = Scheduler(cfg.seed)
        super().__init__(cfg, trace if trace is not None else TraceLog(clock=lambda: self.sched.now))
        self.costs = costs or CostModel()
        self.coord = CoordHost(Executor(self.sched, "coord"), self.trace)
        self.switches = {f"s{i}": SwitchNode(self, f"s{i}") for i in range(cfg.n_switches)}
        self.ctrls = {f"c{i}": CtrlNode(self, f"c{i}", replica_cfg) for i in range(cfg.n_controllers)}
        for cnode in self.ctrls.values():
            self._connect(cnode)
        self._arm_timed_faults()

    # -- construction -------------------------------------------------------

    def _latency_fn(self, src: str, dst: str):
        override = self.cfg.latency_overrides.get(f"{src}->{dst}")
        if override is None:
            override = self.cfg.latency_overrides.get(f"{dst}->{src}")
        if override is not None:
            return fixed_latency(float(override))
        return default_latency(self.sched.rng)

    def _connect(self, cnode: CtrlNode) -> None:
        """Join a controller to the coordination service and every switch,
        then open its session."""
        costs = self.costs
        cid = cnode.cid
        chan = Channel(self.sched, cnode.exec, self.coord.exec, self._latency_fn(cid, "coord"))
        ctrl_end, coord_end = chan.ends
        cnode.send_coord = ctrl_end.send
        cnode.endpoints.append(ctrl_end)
        ctrl_end.on_message = cnode.guard(cnode.on_coord_msg)
        ctrl_end.send_cost = _ctrl_to_coord_cost(costs)
        ctrl_end.recv_cost = _coord_to_ctrl_recv_cost(costs)
        coord_end.recv_cost = _coord_recv_cost(costs)
        for sid, snode in self.switches.items():
            chan = Channel(self.sched, cnode.exec, snode.exec, self._latency_fn(cid, sid))
            ctrl_end, sw_end = chan.ends
            cnode.switch_links[sid] = ctrl_end.send
            cnode.endpoints.append(ctrl_end)
            snode.endpoints.append(sw_end)
            conn = SwitchConn(cid, sw_end.send)
            ctrl_end.on_message = cnode.guard(lambda msg, s=sid, c=cnode: c.replica.on_switch_message(s, msg))
            ctrl_end.on_close = cnode.guard(lambda s=sid, c=cnode: c.replica.on_switch_disconnect(s))
            ctrl_end.send_cost = lambda msg: costs.ctrl_send
            ctrl_end.recv_cost = lambda msg: costs.ctrl_recv
            sw_end.on_message = lambda msg, c=conn, sw=snode: sw.switch.on_message(c, msg)
            sw_end.on_close = lambda c=conn, sw=snode: sw.switch.on_conn_closed(c.uid)
            sw_end.send_cost = lambda msg: costs.switch_send
            sw_end.recv_cost = lambda msg: costs.switch_recv
            snode.switch.attach(conn)
            cnode.replica.attach_switch(sid)
        coord_end.on_message = self.coord.open_session(cid, self.cfg.session_timeout_ms, coord_end.send)
        cnode.start_heartbeat()

    # -- what the shared driver and fault injector need ------------------------

    def at(self, time_ms: float, fn: Callable[[], None]) -> None:
        self.sched.schedule_at(time_ms, fn)

    def crash_controller(self, cid: str, reason: str) -> None:
        node = self.ctrls[cid]
        if not node.exec.alive:
            return
        node.exec.kill()
        for ep in node.endpoints:
            ep.close()
        self.trace.emit("controller-crashed", cid, detail={"reason": reason})

    def crash_switch(self, sid: str) -> None:
        node = self.switches[sid]
        if not node.exec.alive:
            return
        node.switch.crash()
        node.exec.kill()
        for ep in node.endpoints:
            ep.close()

    def stall(self, cid: str, pause_ms: float) -> None:
        node = self.ctrls[cid]
        node.exec.busy_until = max(node.exec.busy_until, self.sched.now + pause_ms)

    def inject(self, sid: str, payload: bytes, in_port: int) -> None:
        node = self.switches[sid]
        if node.exec.alive:
            node.switch.inject_packet(payload, in_port)

    def run(self, deadline_ms: float) -> bool:
        return self.sched.run(deadline_ms, self.quiescent)


def _ctrl_to_coord_cost(costs: CostModel):
    def cost(msg: dict) -> float:
        if msg.get("op") == "append":
            return costs.ctrl_flush_fixed + costs.ctrl_flush_per_entry * len(msg["bodies"])
        return 0.0

    return cost


def _coord_recv_cost(costs: CostModel):
    def cost(msg: dict) -> float:
        if msg.get("op") == "append":
            return costs.coord_request + costs.coord_per_entry * len(msg["bodies"])
        return 0.0

    return cost


def _coord_to_ctrl_recv_cost(costs: CostModel):
    def cost(msg: dict) -> float:
        if msg.get("op") == "entries":
            return sum(
                costs.ctrl_recv_log_event if isinstance(e.body, EventBody) else costs.ctrl_recv_log_processed
                for e in msg["entries"]
            )
        return 0.0

    return cost
