"""Simulated OpenFlow switch.

One logical executor per switch: the runtime feeds `on_message` strictly in
per-connection FIFO order (merged across connections in arrival order), so a
BarrierReply naturally covers everything received earlier on that
connection. Bundles stage commands until commit and are applied atomically
and in order; open bundles owned by a connection are discarded when that
connection drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from . import ofwire
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

BUNDLE_OPEN = "open"
BUNDLE_COMMITTED = "committed"
BUNDLE_DISCARDED = "discarded"


class ControllerConn(Protocol):
    """What the switch needs from a controller connection."""

    controller_id: str
    uid: int

    def send(self, msg: ofwire.OfMessage) -> None: ...


@dataclass
class FlowRule:
    match_key: ofwire.MatchKey
    actions: tuple[Action, ...]
    priority: int
    order: int  # insertion index, ties go to the older rule


class FlowTable:
    def __init__(self) -> None:
        self.rules: dict[tuple[ofwire.MatchKey, int], FlowRule] = {}

    def insert(self, fm: FlowMod) -> None:
        """An ADD whose match and priority equal an existing rule's replaces
        that rule's actions in place (OpenFlow 1.3 section 6.4)."""
        key = (fm.match_key, fm.priority)
        rule = self.rules.get(key)
        if rule is None:
            self.rules[key] = FlowRule(fm.match_key, fm.actions, fm.priority, len(self.rules))
        else:
            rule.actions = fm.actions

    def lookup(self, in_port: int, eth_src: str | None, eth_dst: str | None) -> FlowRule | None:
        best: FlowRule | None = None
        for rule in self.rules.values():
            if not rule.match_key.matches(in_port, eth_src, eth_dst):
                continue
            if best is None or (rule.priority, -rule.order) > (best.priority, -best.order):
                best = rule
        return best

    def __len__(self) -> int:
        return len(self.rules)


@dataclass
class StagedBundle:
    bundle_id: int
    conn_uid: int
    owner: str
    messages: list[ofwire.OfMessage] = field(default_factory=list)
    state: str = BUNDLE_OPEN


@dataclass
class ExecEntry:
    """Ground-truth record of one command applied by the switch."""

    index: int
    command: ofwire.OfMessage
    origin: str  # "bundle" | "direct" | "table"
    bundle_id: int | None
    controller_id: str | None


class Switch:
    def __init__(self, switch_id: str, trace: Callable[..., None] | None = None) -> None:
        self.switch_id = switch_id
        self._trace = trace or (lambda kind, **kw: None)
        self.flow_table = FlowTable()
        self.conns: dict[int, ControllerConn] = {}
        self.bundles: dict[tuple[int, int], StagedBundle] = {}
        self.next_switch_seq = 1
        self.executed_log: list[ExecEntry] = []
        self.master_id: str | None = None
        self.dead = False
        self._port_status_count = 0
        self.events_emitted = 0  # dataplane packet-ins and port-status fan-outs
        # benchmark counters: bumped when a commit request or plain command arrives
        self.commits_received = 0
        self.plain_commands_received = 0

    # -- connection lifecycle ------------------------------------------------

    def attach(self, conn: ControllerConn) -> None:
        self.conns[conn.uid] = conn

    def on_conn_closed(self, conn_uid: int) -> None:
        conn = self.conns.pop(conn_uid, None)
        if conn is None:
            return
        for key, bundle in list(self.bundles.items()):
            if bundle.conn_uid == conn_uid and bundle.state == BUNDLE_OPEN:
                bundle.state = BUNDLE_DISCARDED
                del self.bundles[key]
                self._trace("bundle-discarded", bundle_id=bundle.bundle_id, detail={"owner": bundle.owner})
        self._trace("conn-closed", detail={"controller": conn.controller_id})

    def crash(self) -> None:
        self.dead = True
        self._trace("switch-crashed")

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
        self._port_status_count += 1
        self.events_emitted += 1
        msg = PortStatus(self.switch_id, port, up)
        self._trace(
            "event-emitted",
            detail={"origin": "port-status", "index": self._port_status_count, "conns": self._conn_ids()},
        )
        for conn in list(self.conns.values()):
            conn.send(msg)

    def _emit_packet_in(self, payload: bytes, in_port: int, origin: str) -> None:
        seq = self.next_switch_seq
        self.next_switch_seq += 1
        if origin == "dataplane":
            self.events_emitted += 1
        self._trace(
            "event-emitted",
            switch_seq=seq,
            detail={"origin": origin, "in_port": in_port, "conns": self._conn_ids()},
        )
        msg = PacketIn(self.switch_id, seq, ofwire.NO_BUFFER, in_port, payload)
        for conn in list(self.conns.values()):
            conn.send(msg)

    def _conn_ids(self) -> list[str]:
        return [c.controller_id for c in self.conns.values()]

    # -- controller-to-switch path ---------------------------------------------

    def on_message(self, conn: ControllerConn, msg: ofwire.OfMessage) -> None:
        if self.dead:
            return
        if isinstance(msg, BundleOpen):
            key = (conn.uid, msg.bundle_id)
            if key in self.bundles and self.bundles[key].state == BUNDLE_OPEN:
                conn.send(BundleReply(msg.bundle_id, False))
                return
            self.bundles[key] = StagedBundle(msg.bundle_id, conn.uid, conn.controller_id)
        elif isinstance(msg, BundleAdd):
            bundle = self.bundles.get((conn.uid, msg.bundle_id))
            if bundle is None or bundle.state != BUNDLE_OPEN:
                conn.send(BundleReply(msg.bundle_id, False))
                return
            bundle.messages.append(msg.inner)
        elif isinstance(msg, BundleCommit):
            self.commits_received += 1
            bundle = self.bundles.get((conn.uid, msg.bundle_id))
            if bundle is None or bundle.state != BUNDLE_OPEN:
                conn.send(BundleReply(msg.bundle_id, False))
                return
            for staged in bundle.messages:
                self._apply(staged, origin="bundle", bundle_id=bundle.bundle_id, controller_id=bundle.owner)
            bundle.state = BUNDLE_COMMITTED
            del self.bundles[(conn.uid, msg.bundle_id)]
            conn.send(BundleReply(msg.bundle_id, True))
        elif isinstance(msg, BarrierRequest):
            conn.send(BarrierReply(msg.xid))
        elif isinstance(msg, (PacketOut, FlowMod)):
            self.plain_commands_received += 1
            self._apply(msg, origin="direct", bundle_id=None, controller_id=conn.controller_id)
        elif isinstance(msg, RoleAnnounce):
            self.master_id = msg.controller_id
            self._trace("role-announce", epoch=msg.epoch, detail={"controller": msg.controller_id})
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
        entry = ExecEntry(len(self.executed_log), cmd, origin, bundle_id, controller_id)
        self.executed_log.append(entry)
        self._trace(
            "switch-exec",
            bundle_id=bundle_id,
            detail={"command": ofwire.to_json(cmd), "origin": origin, "controller": controller_id},
        )
