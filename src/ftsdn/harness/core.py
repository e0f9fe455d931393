"""The protocol wiring both transports share.

A transport supplies executors and one way to open a link,
``_link(a, b, bind_a, bind_b)``: the deterministic one an in-memory channel
on one scheduler, the socket one a TCP connection between two nodes' event
loops. ``World._connect`` opens every link of a controller through it, so a
controller is wired the same way under both transports. Both give an
executor ``now()``, ``call_later(delay_ms, fn, maintenance)``,
``cancel(handle)`` and ``stop()``, which kills the node and closes its
links; maintenance timers keep nothing alive in the deterministic
scheduler. A link has ``send(msg)`` and the ``on_message(msg)`` and
``on_close()`` handlers that the ``bind_*`` helpers here set.
Messages on the coordination link are dicts that carry log bodies as
objects; a transport that needs bytes converts them at its edge. The
service pushes the log to each controller one push per append: an
``entries`` message with the seq of the append's first entry (``first``)
and all of its ``bodies``, in seq order, under the key an ``append``
request uses. Every link is FIFO, so the service answers a controller's
appends in the order it sent them, and an ``append-reply`` needs no request
id. A switch keys each controller's state by that controller's link end
(``SwitchConn``), so a new link starts afresh.
"""

from __future__ import annotations

import threading
from collections import deque
from functools import partial
from typing import Callable

from .. import apps as apps_mod
from ..coord import CoordError, CoordService, EmptyAppend, NotLeader, SessionExpired
from ..ctrl import FatalProtocolError, Replica
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
        self.service = CoordService(trace=trace)
        self._expiry_timer = None

    def bind_controller(self, controller_id: str, timeout_ms: float, link) -> None:
        """Open, subscribe and enroll a controller's session, which gets its
        pushes and sends its requests on ``link``."""
        push = link.send
        now = self.exec.now()
        sid = self.service.open_session(controller_id, timeout_ms, now)
        self.service.subscribe(1, lambda first, bodies: push({"op": "entries", "first": first, "bodies": bodies}))
        self.service.watch_leadership(
            lambda leader, epoch, log_len: push({"op": "leader", "leader": leader, "epoch": epoch, "log_len": log_len})
        )
        self.service.enroll(sid, controller_id, now)
        self.arm_expiry()
        link.on_message = lambda msg: self._on_request(sid, push, msg)

    def _on_request(self, sid: int, push: Callable[[dict], None], msg: dict) -> None:
        op = msg["op"]
        now = self.exec.now()
        if op == "heartbeat":  # the most frequent request, so tested first
            try:
                self.service.heartbeat(sid, now)
            except CoordError:
                pass  # dead session; the client learns through leadership changes
        elif op == "append":
            error = None
            try:
                self.service.append(sid, msg["epoch"], msg["bodies"], now)
            except SessionExpired:
                error = "session-expired"
            except NotLeader:
                error = "not-leader"
            except EmptyAppend:
                error = "rejected-empty"
            push({"op": "append-reply", "error": error})
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

    ``World._connect`` hands each of its links to ``bind_switch`` or
    ``bind_coord``; binding the coordination link starts the heartbeat."""

    send_coord: Callable[[dict], None]

    def __init__(
        self,
        cid: str,
        executor,
        cfg: ScenarioConfig,
        trace,
        fault_hook: Callable[..., None] | None,
    ) -> None:
        self.cid = cid
        self.exec = executor
        self.trace = trace
        self.heartbeat_interval_ms = cfg.heartbeat_interval_ms
        self.replica = Replica(
            cid,
            apps_mod.make_app(cfg.app, cfg.app_params),
            env=self,
            trace=trace,
            fault_hook=fault_hook,
            batch_size=cfg.batch_size,
            batch_time_ms=cfg.batch_time_ms,
        )
        self.switch_links: dict[str, Callable] = {}
        # the callbacks of sent appends, in send order: replies come in that order
        self._append_cbs: deque[Callable[[str | None], None]] = deque()
        self.dead = False

    def bind_coord(self, link) -> None:
        self.send_coord = link.send
        link.on_message = self.guard(self.on_coord_msg)
        self.start_heartbeat()

    def bind_switch(self, sid: str, link) -> None:
        # the replica's handlers are looked up per message, so a wrapper
        # installed after the world is built sees every one
        self.switch_links[sid] = link.send
        link.on_message = self.guard(lambda msg: self.replica.on_switch_message(sid, msg))
        link.on_close = self.guard(lambda: self.replica.on_switch_disconnect(sid))
        self.replica.attach_switch(sid)

    def crash(self, reason: str = "killed") -> None:
        """Kill the node: its links close and its timers stop. Crashing a
        dead node does nothing."""
        if self.dead:
            return
        self.dead = True
        self.exec.stop()
        self.trace.emit("controller-crashed", self.cid, detail={"reason": reason})

    def guard(self, fn: Callable[..., None]) -> Callable[..., None]:
        """Wrap a handler: a broken protocol invariant is recorded and
        crashes this node instead of escaping into the transport."""

        def run(*args) -> None:
            try:
                fn(*args)
            except FatalProtocolError as exc:
                self.trace.emit("replica-fatal", self.cid, detail={"error": str(exc)})
                self.crash("fatal")

        return run

    # -- ReplicaEnv ---------------------------------------------------------

    def call_later(self, delay_ms: float, fn: Callable[[], None]):
        return self.exec.call_later(delay_ms, self.guard(fn), False)

    def cancel(self, handle) -> None:
        self.exec.cancel(handle)

    def send_switch(self, switch_id: str, msg) -> None:
        send = self.switch_links.get(switch_id)
        if send is not None:
            send(msg)

    def coord_append(self, epoch: int, bodies: list, callback: Callable[[str | None], None]) -> None:
        self._append_cbs.append(callback)
        self.send_coord({"op": "append", "epoch": epoch, "bodies": bodies})

    # -- coordination link --------------------------------------------------

    def on_coord_msg(self, msg: dict) -> None:
        op = msg["op"]
        if op == "entries":
            for seq, body in enumerate(msg["bodies"], start=msg["first"]):
                self.replica.on_log_entry(seq, body)
        elif op == "leader":
            self.replica.on_leadership(msg["leader"], msg["epoch"], msg["log_len"])
        elif op == "append-reply":
            self._append_cbs.popleft()(msg["error"])

    def start_heartbeat(self) -> None:
        self.exec.call_later(self.heartbeat_interval_ms, self._heartbeat, True)

    def _heartbeat(self) -> None:
        self.send_coord({"op": "heartbeat"})
        self.start_heartbeat()


class World:
    """What both worlds share: ``coord`` (a CoordHost), ``switches`` (nodes
    with a ``switch``), ``ctrls`` (Controllers), the quiescence test and the
    fault injector.

    The core opens and binds every link and owns the controller crash. A
    world supplies executors; ``_link(a, b, bind_a, bind_b)``, which opens
    one link between nodes ``a`` and ``b`` and runs ``bind_a`` and
    ``bind_b`` on its two ends, each on the node that owns the end;
    ``at(time_ms, fn)``, which runs ``fn`` at ``time_ms`` of the run;
    ``crash_switch(sid)``; ``stall(cid, pause_ms)``, which freezes a
    controller without killing it; ``inject(sid, payload, in_port)``; and
    ``run(deadline_ms)``, which returns whether the world reached
    quiescence by the deadline. It builds each Controller with
    ``fault_hook(cid)`` and connects it with ``_connect``, then calls
    ``_arm_timed_faults()`` once every node is connected."""

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

    def _connect(self, ctrl: Controller) -> None:
        """Link a controller to every switch, then to the coordination
        service, whose bind opens its session. The session comes last: a
        controller elected before it holds its switches would announce its
        role to none of them and leave them unfenced."""
        for sid, node in self.switches.items():
            self._link(ctrl, node, partial(ctrl.bind_switch, sid), partial(bind_controller, node.switch, ctrl.cid))
        open_session = partial(self.coord.bind_controller, ctrl.cid, self.cfg.session_timeout_ms)
        self._link(ctrl, self.coord, ctrl.bind_coord, open_session)

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
                self.ctrls[cid].crash(point)
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
            self.ctrls[leader].crash(AT_TIME)
            return
        pause = fault.pause_ms if fault.pause_ms is not None else 3 * self.cfg.session_timeout_ms
        # a stalled process: everything queued runs only after the pause,
        # including its own heartbeats, so the session expires underneath it
        self.stall(leader, pause)
        self.trace.emit("fault-injected", "harness", detail={"target": leader, "point": ZOMBIE, "pause_ms": pause})

    def record_unfired(self) -> None:
        """Once the run is over, write each planned fault that never fired as a miss."""
        for fault in self._unfired:
            detail = {"target": fault.target, "point": fault.point, "reason": "never-reached"}
            self.trace.emit("fault-missed", "harness", detail=detail)


class SwitchConn:
    """A controller's connection as a switch sees it, and the switch's key for it."""

    def __init__(self, controller_id: str, send: Callable) -> None:
        self.controller_id = controller_id
        self.send = send


def bind_controller(switch, controller_id: str, link) -> None:
    """Attach controller ``controller_id``'s connection on ``link`` to
    ``switch``, whose handlers are looked up per message."""
    conn = SwitchConn(controller_id, link.send)
    link.on_message = lambda msg: switch.on_message(conn, msg)
    link.on_close = lambda: switch.on_conn_closed(conn)
    switch.attach(conn)
