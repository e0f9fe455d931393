"""Simulated OpenFlow switch.

One logical executor per switch: the runtime feeds `on_message` strictly in
per-connection FIFO order (merged across connections in arrival order), so a
BarrierReply naturally covers everything received earlier on that
connection. The connection object is the key of all per-connection state
(open bundles, the master role): a new connection, even from the same
controller, shares nothing with an old one. Bundles stage commands until
commit and are applied atomically and in order; open bundles owned by a
connection are discarded when that connection drops. As OFPT_ROLE_REQUEST
does (OpenFlow 1.3 section 6.3.7), a RoleAnnounce makes the connection it
arrives on the master, and bundles and commands from any other connection
are refused. The wire is stock: replicas number packet-ins and port-status
messages by arrival, and the switch's own count goes only to its
event-emitted records, the checker's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Protocol

from . import ofwire
from .events import NULL_TRACE
from .ofwire import (
    Action,
    BarrierReply,
    BarrierRequest,
    BundleAdd,
    BundleCommit,
    BundleOpen,
    BundleReply,
    FlowMod,
    PacketIn,
    PacketOut,
    PortStatus,
    RoleAnnounce,
)
from .trace import TraceLog

# what only the master may send: it changes the switch's state
_MASTER_ONLY = (BundleOpen, BundleAdd, BundleCommit, PacketOut, FlowMod)


class ControllerConn(Protocol):
    """What the switch needs from a controller connection."""

    controller_id: str

    def send(self, msg: ofwire.OfMessage) -> None: ...


@dataclass
class FlowRule:
    match_key: ofwire.MatchKey
    actions: tuple[Action, ...]
    priority: int


class FlowTable:
    def __init__(self) -> None:
        # in insertion order, which a replaced rule keeps
        self.rules: dict[tuple[ofwire.MatchKey, int], FlowRule] = {}

    def insert(self, fm: FlowMod) -> None:
        """An ADD whose match and priority equal an existing rule's replaces
        that rule's actions in place (OpenFlow 1.3 section 6.4)."""
        key = (fm.match_key, fm.priority)
        rule = self.rules.get(key)
        if rule is None:
            self.rules[key] = FlowRule(fm.match_key, fm.actions, fm.priority)
        else:
            rule.actions = fm.actions

    def lookup(self, in_port: int, eth_src: str | None, eth_dst: str | None) -> FlowRule | None:
        """The matching rule of highest priority; of equals, the oldest."""
        best: FlowRule | None = None
        for rule in self.rules.values():
            if rule.match_key.matches(in_port, eth_src, eth_dst) and (best is None or rule.priority > best.priority):
                best = rule
        return best

    def __len__(self) -> int:
        return len(self.rules)


class Switch:
    def __init__(self, switch_id: str, trace: TraceLog | None = None) -> None:
        self.switch_id = switch_id
        self._log = trace if trace is not None else NULL_TRACE
        self.flow_table = FlowTable()
        # replaced, not changed, so a fan-out keeps the connections it started with
        self.conns: tuple[ControllerConn, ...] = ()
        self._conns_changed()  # sets the event-emitted details ``_port_status_detail`` and ``_emitted_detail``
        # open bundles' staged commands by (connection, bundle id)
        self.bundles: dict[tuple[ControllerConn, int], list[ofwire.OfMessage]] = {}
        self.next_switch_seq = 1  # the number of the next packet-in or port-status sent
        self.master: ControllerConn | None = None  # the master's connection, kept when it closes; None: any may command
        self.master_epoch = 0
        self.dead = False
        self.events_emitted = 0  # dataplane packet-ins and port-status fan-outs

    # -- connection lifecycle ------------------------------------------------

    def attach(self, conn: ControllerConn) -> None:
        self.conns += (conn,)
        self._conns_changed()

    def on_conn_closed(self, conn: ControllerConn) -> None:
        if conn not in self.conns:
            return
        self.conns = tuple(c for c in self.conns if c is not conn)
        self._conns_changed()
        for key in [key for key in self.bundles if key[0] is conn]:
            del self.bundles[key]
            self._log.emit("bundle-discarded", self.switch_id, bundle_id=key[1], detail={"owner": conn.controller_id})
        self._log.emit("conn-closed", self.switch_id, detail={"controller": conn.controller_id})

    def crash(self) -> None:
        self.dead = True
        self._log.emit("switch-crashed", self.switch_id)

    # -- dataplane -------------------------------------------------------------

    def inject_packet(self, payload: bytes, in_port: int) -> None:
        if self.dead:
            return
        eth = ofwire.parse_ether(payload)
        src, dst = (eth[1], eth[0]) if eth else (None, None)
        rule = self.flow_table.lookup(in_port, src, dst)
        if rule is not None:
            self._record_exec(
                PacketOut(rule.actions, payload), origin="table", bundle_id=None, controller_id=None
            )
            self._run_actions(rule.actions, payload, in_port)
            return
        self._emit_packet_in(payload, in_port, origin="dataplane")

    def set_port(self, port: int, up: bool) -> None:
        if self.dead:
            return
        self.events_emitted += 1
        self._send_async(PortStatus(port, up), self._port_status_detail)

    def _emit_packet_in(self, payload: bytes, in_port: int, origin: str) -> None:
        if origin == "dataplane":
            self.events_emitted += 1
        self._send_async(PacketIn(ofwire.NO_BUFFER, in_port, payload), self._emitted_detail(origin, in_port))

    def _send_async(self, msg: PacketIn | PortStatus, detail: dict) -> None:
        """Number ``msg``, trace it and send it on every connection."""
        seq = self.next_switch_seq
        self.next_switch_seq += 1
        self._log.emit("event-emitted", self.switch_id, switch_seq=seq, detail=detail)
        for conn in self.conns:
            conn.send(msg)

    def _conns_changed(self) -> None:
        # One read-only detail for port-status and one per (origin, in_port) for
        # a packet-in, shared until the next change; their tuple of controllers,
        # strings only, keeps them out of the garbage collector (see trace.py).
        conns = tuple(c.controller_id for c in self.conns)
        self._port_status_detail = {"origin": "port-status", "conns": conns}
        self._emitted_detail = cache(lambda origin, in_port: {"origin": origin, "in_port": in_port, "conns": conns})

    # -- controller-to-switch path ---------------------------------------------

    def on_message(self, conn: ControllerConn, msg: ofwire.OfMessage) -> None:
        if self.dead:
            return
        if conn is not self.master and self.master is not None and isinstance(msg, _MASTER_ONLY):
            # a slave may not change the switch (OpenFlow 1.3 section 6.3.7)
            detail = {"controller": conn.controller_id, "type": type(msg).__name__}
            self._log.emit("refused-not-master", self.switch_id, detail=detail)
            if not isinstance(msg, (PacketOut, FlowMod)):
                conn.send(BundleReply(msg.bundle_id, False))
            return
        if isinstance(msg, BundleOpen):
            key = (conn, msg.bundle_id)
            if key in self.bundles:
                conn.send(BundleReply(msg.bundle_id, False))
                return
            self.bundles[key] = []
        elif isinstance(msg, BundleAdd):
            staged = self.bundles.get((conn, msg.bundle_id))
            if staged is None:
                conn.send(BundleReply(msg.bundle_id, False))
                return
            staged.append(msg.inner)
        elif isinstance(msg, BundleCommit):
            key = (conn, msg.bundle_id)
            staged = self.bundles.get(key)
            if staged is None:
                conn.send(BundleReply(msg.bundle_id, False))
                return
            for cmd in staged:
                self._apply(cmd, origin="bundle", bundle_id=msg.bundle_id, controller_id=conn.controller_id)
            del self.bundles[key]
            conn.send(BundleReply(msg.bundle_id, True))
        elif isinstance(msg, BarrierRequest):
            conn.send(BarrierReply(msg.xid))
        elif isinstance(msg, (PacketOut, FlowMod)):
            self._apply(msg, origin="direct", bundle_id=None, controller_id=conn.controller_id)
        elif isinstance(msg, RoleAnnounce):
            stale = msg.epoch < self.master_epoch
            if not stale:
                self.master, self.master_epoch = conn, msg.epoch
            kind = "stale-role-announce" if stale else "role-announce"
            self._log.emit(kind, self.switch_id, epoch=msg.epoch, detail={"controller": conn.controller_id})
        else:
            raise ofwire.ProtocolError(f"switch received unexpected message {msg!r}")

    def _apply(self, cmd: ofwire.OfMessage, origin: str, bundle_id: int | None, controller_id: str | None) -> None:
        self._record_exec(cmd, origin, bundle_id, controller_id)
        if isinstance(cmd, FlowMod):
            self.flow_table.insert(cmd)
        elif isinstance(cmd, PacketOut):
            self._run_actions(cmd.actions, cmd.payload, in_port=ofwire.CONTROLLER_PORT)
        else:
            raise ofwire.ProtocolError(f"cannot apply {cmd!r}")

    def _run_actions(self, actions: tuple[Action, ...], payload: bytes, in_port: int) -> None:
        for action in actions:
            if action.kind == "controller":
                self._emit_packet_in(payload, ofwire.CONTROLLER_PORT, origin="controller-out")
            # "output" and "drop" have no further simulated effect beyond the log

    def _record_exec(self, cmd: ofwire.OfMessage, origin: str, bundle_id: int | None, controller_id: str | None) -> None:
        """Trace one applied command; origin is "bundle", "direct" or "table".
        These records are the checker's ground truth."""
        detail = {"command": cmd, "origin": origin, "controller": controller_id}
        self._log.emit("switch-exec", self.switch_id, bundle_id=bundle_id, detail=detail)
