"""The protocol wiring both transports share.

A transport supplies executors and links: the deterministic one a scheduler
with in-memory channels, the socket one an event loop per node with TCP
connections. Both give an executor ``now()``, ``call_later(delay_ms, fn,
maintenance)`` and ``cancel(handle)``; maintenance timers keep nothing alive
in the deterministic scheduler. Messages on the coordination link are dicts
that carry log entries and bodies as objects; a transport that needs bytes
converts them at its edge.
"""

from __future__ import annotations

import itertools
import threading
from functools import partial
from typing import Callable

from .. import apps as apps_mod
from ..coord import CoordError, CoordService, EmptyAppend, NotLeader, SessionExpired
from ..ctrl import FatalProtocolError, Replica, ReplicaConfig
from .config import AT_TIME, ZOMBIE, FaultInjection, ScenarioConfig

# how long after a session's deadline the expiry check runs, in ms
EXPIRY_SLACK_MS = 0.01


class Crashed(BaseException):
    """Unwinds the current handler when a fault hook kills the node; both
    executors swallow it."""


class CoordHost:
    """The coordination service behind one executor: sessions, the pushes
    to each session's controller, its requests, and the expiry timer."""

    def __init__(self, executor, trace) -> None:
        self.exec = executor
        self.service = CoordService(trace=trace.emitter("coord"))
        self._expiry_timer = None

    def open_session(self, controller_id: str, timeout_ms: float, push: Callable[[dict], None]):
        """Open, subscribe and enroll a controller's session; returns the
        handler for the requests it sends."""
        now = self.exec.now()
        sid = self.service.open_session(controller_id, timeout_ms, now)
        self.service.subscribe(1, lambda entry: push({"op": "entry", "entry": entry}))
        self.service.watch_leadership(
            lambda leader, epoch, log_len: push({"op": "leader", "leader": leader, "epoch": epoch, "log_len": log_len})
        )
        self.service.enroll(sid, controller_id, now)
        self.arm_expiry()
        return lambda msg: self._on_request(sid, push, msg)

    def _on_request(self, sid: int, push: Callable[[dict], None], msg: dict) -> None:
        op = msg["op"]
        now = self.exec.now()
        if op == "append":
            error = None
            try:
                self.service.append(sid, msg["epoch"], msg["bodies"], now)
            except SessionExpired:
                error = "session-expired"
            except NotLeader:
                error = "not-leader"
            except EmptyAppend:
                error = "rejected-empty"
            push({"op": "append-reply", "req": msg["req"], "error": error})
        elif op == "heartbeat":
            try:
                self.service.heartbeat(sid, now)
            except CoordError:
                pass  # dead session; the client learns through leadership changes
        # No re-arm: a request only moves a deadline later, so the armed
        # timer is early at worst, and _check_expiry re-arms it.

    def arm_expiry(self) -> None:
        if self._expiry_timer is not None:
            self.exec.cancel(self._expiry_timer)
            self._expiry_timer = None
        deadline = self.service.next_deadline()
        if deadline is None:
            return
        delay = max(0.0, deadline - self.exec.now()) + EXPIRY_SLACK_MS
        self._expiry_timer = self.exec.call_later(delay, self._check_expiry, True)

    def _check_expiry(self) -> None:
        self._expiry_timer = None
        self.service.check_expiry(self.exec.now())
        self.arm_expiry()


class Controller:
    """One replica and its coordination client; implements ReplicaEnv.

    The transport sets ``send_coord`` and fills ``switch_links`` with a send
    function per switch, and defines ``fail()``, which crashes the node."""

    send_coord: Callable[[dict], None]

    def __init__(
        self,
        cid: str,
        executor,
        cfg: ScenarioConfig,
        replica_cfg: ReplicaConfig | None,
        trace,
        fault_hook: Callable[..., None] | None,
    ) -> None:
        self.cid = cid
        self.exec = executor
        self.trace = trace
        self.heartbeat_interval_ms = cfg.heartbeat_interval_ms
        rcfg = replica_cfg or ReplicaConfig(batch_size=cfg.batch_size, batch_time_ms=cfg.batch_time_ms)
        self.replica = Replica(
            cid,
            rcfg,
            [apps_mod.make_app(cfg.app, cfg.app_params)],
            env=self,
            trace=trace.emitter(cid),
            fault_hook=fault_hook,
        )
        self.switch_links: dict[str, Callable] = {}
        self._append_cbs: dict[int, Callable[[str | None], None]] = {}
        self._next_req = itertools.count(1)

    def fail(self) -> None:
        raise NotImplementedError

    def guard(self, fn: Callable[..., None]) -> Callable[..., None]:
        """Wrap a handler: a broken protocol invariant is recorded and
        crashes this node instead of escaping into the transport."""

        def run(*args) -> None:
            try:
                fn(*args)
            except FatalProtocolError as exc:
                self.trace.emit("replica-fatal", self.cid, detail={"error": str(exc)})
                self.fail()

        return run

    # -- ReplicaEnv ---------------------------------------------------------

    def now(self) -> float:
        return self.exec.now()

    def call_later(self, delay_ms: float, fn: Callable[[], None]):
        return self.exec.call_later(delay_ms, self.guard(fn), False)

    def cancel(self, handle) -> None:
        self.exec.cancel(handle)

    def send_switch(self, switch_id: str, msg) -> None:
        send = self.switch_links.get(switch_id)
        if send is not None:
            send(msg)

    def coord_append(self, epoch: int, bodies: list, callback: Callable[[str | None], None]) -> None:
        req = next(self._next_req)
        self._append_cbs[req] = callback
        self.send_coord({"op": "append", "req": req, "epoch": epoch, "bodies": bodies})

    # -- coordination link --------------------------------------------------

    def on_coord_msg(self, msg: dict) -> None:
        op = msg["op"]
        if op == "entry":
            self.replica.on_log_entry(msg["entry"])
        elif op == "leader":
            self.replica.on_leadership(msg["leader"], msg["epoch"], msg["log_len"])
        elif op == "append-reply":
            cb = self._append_cbs.pop(msg["req"], None)
            if cb is not None:
                cb(msg["error"])

    def start_heartbeat(self) -> None:
        self.exec.call_later(self.heartbeat_interval_ms, self._heartbeat, True)

    def _heartbeat(self) -> None:
        self.send_coord({"op": "heartbeat"})
        self.start_heartbeat()


class World:
    """What both worlds share: ``coord`` (a CoordHost), ``switches`` (nodes
    with a ``switch``), ``ctrls`` (Controllers), the quiescence test and the
    fault injector.

    A world supplies ``at(time_ms, fn)``, which runs ``fn`` at ``time_ms`` of
    the run; ``crash_controller(cid, reason)``; ``crash_switch(sid)``;
    ``stall(cid, pause_ms)``, which freezes a controller without killing it;
    ``inject(sid, payload, in_port)``; and ``run(deadline_ms)``, which returns
    whether the world reached quiescence by the deadline. It builds each
    controller with ``fault_hook(cid)`` and calls ``_arm_timed_faults()`` once
    every node is connected."""

    coord: CoordHost
    switches: dict
    ctrls: dict

    def __init__(self, cfg: ScenarioConfig, trace) -> None:
        self.cfg = cfg
        self.trace = trace
        self._unfired: list[FaultInjection] = list(cfg.fault_plan)
        self._fire_lock = threading.Lock()

    def stop(self) -> None:
        """End every thread the world started; a world without threads has nothing to do."""

    def quiescent(self) -> bool:
        """Every switch event is logged and finished, and every live replica
        has delivered all of them with nothing left in flight."""
        service = self.coord.service
        if service.n_events != service.n_processed:
            return False
        if service.n_switch_events != sum(node.switch.events_emitted for node in self.switches.values()):
            return False
        max_id = service.max_event_id
        return all(
            c.replica.is_quiescent() and c.replica.delivered_upto == max_id
            for c in self.ctrls.values()
            if c.exec.alive
        )

    # -- fault injection ------------------------------------------------------

    def _take(self, fault: FaultInjection) -> bool:
        """Mark ``fault`` fired; False if it already was. The list is replaced,
        not changed, so hooks running on other threads can keep walking it."""
        with self._fire_lock:
            left = [f for f in self._unfired if f is not fault]
            if len(left) == len(self._unfired):
                return False
            self._unfired = left
            return True

    def fault_hook(self, cid: str) -> Callable[..., None]:
        """The F1/F2/F3 hook of controller ``cid``: the first planned master
        fault whose point and trigger event it reaches crashes it there."""

        def hook(point: str, event_ids=None, event_id=None, switch_id=None) -> None:
            for fault in self._unfired:
                if fault.point != point or fault.target != "master":
                    continue
                if fault.trigger_event not in (event_ids if event_ids is not None else [event_id]):
                    continue
                if not self._take(fault):
                    continue
                self.trace.emit(
                    "fault-injected",
                    "harness",
                    detail={"target": cid, "point": point, "trigger_event": fault.trigger_event},
                )
                self.crash_controller(cid, reason=point)
                raise Crashed()

        return hook

    def _arm_timed_faults(self) -> None:
        for fault in self.cfg.fault_plan:
            if fault.point in (AT_TIME, ZOMBIE):
                self.at(fault.at_time_ms, partial(self._fire_timed, fault))

    def _fire_timed(self, fault: FaultInjection) -> None:
        if not self._take(fault):
            return
        if fault.point == AT_TIME and fault.target.startswith("switch:"):
            sid = fault.target.split(":", 1)[1]
            self.trace.emit("fault-injected", "harness", detail={"target": sid, "point": AT_TIME})
            self.crash_switch(sid)
            return
        # the service names a crashed master leader until its session expires
        leader = self.coord.service.leader
        if leader is None or not self.ctrls[leader].exec.alive:
            reason = "no-leader" if leader is None else "leader-dead"
            detail = {"target": leader, "point": fault.point, "reason": reason}
            self.trace.emit("fault-missed", "harness", detail=detail)
            return
        if fault.point == AT_TIME:
            self.trace.emit("fault-injected", "harness", detail={"target": leader, "point": AT_TIME})
            self.crash_controller(leader, reason=AT_TIME)
            return
        pause = fault.pause_ms if fault.pause_ms is not None else 3 * self.cfg.session_timeout_ms
        # a stalled process: everything queued runs only after the pause,
        # including its own heartbeats, so the session expires underneath it
        self.stall(leader, pause)
        self.trace.emit("fault-injected", "harness", detail={"target": leader, "point": ZOMBIE, "pause_ms": pause})


class SwitchConn:
    """A controller's connection as a switch sees it."""

    _uids = itertools.count(1)

    def __init__(self, controller_id: str, send: Callable) -> None:
        self.controller_id = controller_id
        self.uid = next(SwitchConn._uids)
        self.send = send
