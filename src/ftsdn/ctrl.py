"""Controller replica.

The master stamps every switch event with a monotonically increasing id,
replicates batches of events to the shared log, feeds logged events to the
application pipeline in id order, and pushes the resulting commands to each
affected switch inside a bundle whose last message is a commit marker. Once
every affected switch has acknowledged its bundle, shown its marker or
died, the master logs an event-processed entry. ``pending_replies`` is the
one record of what each unfinished event still waits on, per switch.

Slaves buffer raw events (a logged copy takes its event out of the buffer),
track commit markers, and deliver an event to their own application only
after its processed entry is logged, with all resulting writes discarded.
A replica keeps a logged event only until it delivers it.

On election a new master first replays logged-but-unfinished events to
rebuild the old master's state, then decides per affected switch whether to
resend: a recorded commit marker means the switch already executed the
commands; otherwise a barrier round-trip proves no marker can still be in
flight, so the commands are resent in a fresh bundle. Until a switch's
barrier reply, a held event waits on that switch for the probe; after it,
only for the resent bundle. Once no held event waits on anything, the slave
buffer is drained into the log and normal operation resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Protocol

from . import ofwire
from .apps import App
from .coord import LogBody, ProcessedBody
from .events import (
    KIND_PACKET_IN,
    KIND_PORT_STATUS,
    KIND_SWITCH_FAILURE,
    NULL_TRACE,
    SWITCH_FAILURE_SEQ,
    SwitchEvent,
)
from .ofwire import (
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
    make_commit_marker,
    parse_commit_marker,
)
from .trace import TraceLog

ROLE_SLAVE = "slave"
ROLE_ELECT = "master-elect"
ROLE_MASTER = "master"


class FatalProtocolError(Exception):
    """A state the protocol promises is unreachable; never handled."""


class AppWriteError(Exception):
    pass


class ReplicaEnv(Protocol):
    """Runtime services a replica needs; implemented per transport."""

    def call_later(self, delay_ms: float, fn: Callable[[], None]) -> object: ...

    def cancel(self, handle: object) -> None: ...

    def send_switch(self, switch_id: str, msg: ofwire.OfMessage) -> None: ...

    def coord_append(
        self, epoch: int, bodies: list[LogBody], callback: Callable[[str | None], None]
    ) -> None: ...


class AppContext:
    """Write sink handed to applications while one event is being processed."""

    def __init__(self, event: SwitchEvent, sink: Callable[[str, ofwire.OfMessage], None]) -> None:
        self.event = event
        self._sink = sink
        self._active = True

    def write(self, switch_id: str, message: ofwire.OfMessage) -> None:
        if not self._active:
            raise AppWriteError("write outside an event callback")
        if not isinstance(message, (PacketOut, FlowMod)):
            raise AppWriteError(f"apps may only write PacketOut or FlowMod, got {type(message).__name__}")
        self._sink(switch_id, message)

    def _close(self) -> None:
        self._active = False


@dataclass
class _Promotion:
    """Book-keeping for one slave-to-master transition, from election on."""

    watermark: int  # catch-up starts once the local log is this long
    # unfinished events' commands per switch; None until catch-up starts
    held: dict[int, dict[str, list[ofwire.OfMessage]]] | None = None
    barrier_waits: dict[str, int] = field(default_factory=dict)  # switch -> xid


def _noop_hook(point: str, **kw) -> None:
    return None


class Replica:
    def __init__(
        self,
        controller_id: str,
        app: App,
        env: ReplicaEnv,
        trace: TraceLog | None = None,
        fault_hook: Callable[..., None] | None = None,
        batch_size: int = 1000,
        batch_time_ms: float = 50.0,
    ) -> None:
        self.controller_id = controller_id
        self.batch_size = batch_size
        self.batch_time_ms = batch_time_ms
        self.app = app
        self.env = env
        self._log = trace if trace is not None else NULL_TRACE
        self._fault_hook = fault_hook or _noop_hook

        self.role = ROLE_SLAVE
        self.epoch = 0
        self.live_switches: set[str] = set()

        # shared-log position; events_by_id and processed_logged hold only
        # logged events not yet delivered (ids above delivered_upto)
        self.log_len = 0
        self.events_by_id: dict[int, SwitchEvent] = {}
        self.processed_logged: set[int] = set()
        self.max_logged_id = 0
        self._logged_keys: set[tuple[str, int]] = set()  # occurrences of every logged event

        # master-side replication state
        self.next_event_id = 1
        self.pending_batch: list[LogBody] = []
        self._pending_keys: set[tuple[str, int]] = set()
        self._inflight: list[list[LogBody]] = []
        self._batch_timer: object | None = None
        # events whose processed entry this replica enqueued and has not seen
        # logged; one a deposition dropped is enqueued again at its next promotion
        self._processed_unlogged: set[int] = set()

        # slave-side buffer: occurrences not yet logged, in arrival order
        self.slave_buffer: dict[tuple[str, int], SwitchEvent] = {}

        # delivery pipeline: delivered ids form the dense prefix 1..delivered_upto
        self.delivered_upto = 0

        # bundle manager state
        self._next_bundle_id = 1
        self._next_xid = 1
        self._bundle_owner: dict[int, int] = {}  # bundle -> event
        # unfinished event -> switches it waits on: for a bundle reply, or,
        # during a promotion, for that switch's barrier probe
        self.pending_replies: dict[int, set[str]] = {}

        # learned from commit markers: the (event_id, switch_id) pairs a switch has committed
        self.processed_at_switch: set[tuple[int, str]] = set()

        # per switch, the packet-ins (markers too) and port-status messages it sent here
        self._arrivals: dict[str, int] = {}
        self._promo: _Promotion | None = None

        # one read-only detail per value for the kinds traced per event, shared
        # by every record that carries it (see trace.py)
        self._collected_detail = cache(lambda kind: {"kind": kind})
        self._delivered_detail = cache(lambda discarded, writes: {"discarded": discarded, "writes": writes})
        self._marker_detail = cache(lambda marker_epoch: {"marker_epoch": marker_epoch})
        self._commit_detail = cache(lambda commands: {"commands": commands})

    def _trace(
        self,
        kind: str,
        *,
        event_id: int | None = None,
        switch_id: str | None = None,
        switch_seq: int | None = None,
        bundle_id: int | None = None,
        detail: dict | None = None,
    ) -> None:
        self._log.emit(
            kind, self.controller_id, epoch=self.epoch, event_id=event_id, switch_id=switch_id,
            switch_seq=switch_seq, bundle_id=bundle_id, detail=detail,
        )

    # ------------------------------------------------------------------
    # switch-facing input

    def attach_switch(self, switch_id: str) -> None:
        self.live_switches.add(switch_id)
        self._arrivals[switch_id] = 0

    def on_switch_disconnect(self, switch_id: str) -> None:
        if switch_id not in self.live_switches:
            return
        self.live_switches.discard(switch_id)
        self._trace("conn-lost", switch_id=switch_id)
        # the failed switch satisfies anything still waiting on it; while its
        # barrier is outstanding, what waits on it is the probe
        probing = self._promo is not None and self._promo.barrier_waits.pop(switch_id, None) is not None
        for eid in sorted(self.pending_replies):
            if switch_id in self.pending_replies.get(eid, ()):
                if probing:
                    self._trace("probe-switch-dead", event_id=eid, switch_id=switch_id)
                self._switch_done(eid, switch_id)
        ev = SwitchEvent(switch_id, SWITCH_FAILURE_SEQ, KIND_SWITCH_FAILURE, None)
        self._ingest(ev)

    def on_switch_message(self, switch_id: str, msg: ofwire.OfMessage) -> None:
        if isinstance(msg, PacketIn):
            seq = self._arrivals[switch_id] = self._arrivals[switch_id] + 1
            marker = parse_commit_marker(msg)
            if marker is not None:
                for eid in marker.event_ids:
                    self.processed_at_switch.add((eid, switch_id))
                    self._trace(
                        "marker-received",
                        event_id=eid,
                        switch_id=switch_id,
                        detail=self._marker_detail(marker.master_epoch),
                    )
                return
            self._ingest(SwitchEvent(switch_id, seq, KIND_PACKET_IN, msg))
        elif isinstance(msg, PortStatus):
            seq = self._arrivals[switch_id] = self._arrivals[switch_id] + 1
            self._ingest(SwitchEvent(switch_id, seq, KIND_PORT_STATUS, msg))
        elif isinstance(msg, BundleReply):
            self._on_bundle_reply(switch_id, msg)
        elif isinstance(msg, BarrierReply):
            self._on_barrier_reply(switch_id, msg.xid)
        else:
            self._trace("unexpected-message", switch_id=switch_id, detail={"msg": ofwire.to_json(msg)})

    # ------------------------------------------------------------------
    # event admission

    def _ingest(self, ev: SwitchEvent) -> None:
        key = ev.occurrence
        self._trace(
            "event-collected", switch_id=ev.switch_id, switch_seq=ev.switch_seq, detail=self._collected_detail(ev.kind)
        )
        if key in self._logged_keys or key in self._pending_keys or key in self.slave_buffer:
            self._trace("duplicate-dropped", switch_id=ev.switch_id, switch_seq=ev.switch_seq)
            return
        if self.role == ROLE_MASTER:
            ev.event_id = self.next_event_id
            self.next_event_id += 1
            self._trace("id-assigned", event_id=ev.event_id, switch_id=ev.switch_id, switch_seq=ev.switch_seq)
            self._pending_keys.add(key)
            self.pending_batch.append(ev)
            self._arm_or_flush()
        else:
            self.slave_buffer[key] = ev
            self._trace("buffered", switch_id=ev.switch_id, switch_seq=ev.switch_seq)

    # ------------------------------------------------------------------
    # replication batching

    def _arm_or_flush(self) -> None:
        if len(self.pending_batch) >= self.batch_size:
            self._flush()
        elif self._batch_timer is None:
            self._batch_timer = self.env.call_later(self.batch_time_ms, self._flush_timer)

    def _flush_timer(self) -> None:
        self._batch_timer = None
        if self.pending_batch:
            self._flush()

    def _flush(self) -> None:
        if not self.pending_batch:
            return
        if self._batch_timer is not None:
            self.env.cancel(self._batch_timer)
            self._batch_timer = None
        bodies = self.pending_batch
        self.pending_batch = []
        for i in range(0, len(bodies), self.batch_size):
            chunk = bodies[i : i + self.batch_size]
            ids = [b.event_id for b in chunk if isinstance(b, SwitchEvent)]
            self._fault_hook("F1", event_ids=ids)
            self._inflight.append(chunk)
            self.env.coord_append(self.epoch, chunk, lambda err, c=chunk: self._append_done(c, err))

    def _append_done(self, chunk: list[LogBody], error: str | None) -> None:
        if error is None:
            try:
                self._inflight.remove(chunk)
            except ValueError:
                pass
            return
        self._trace("append-rejected", detail={"error": error})
        if chunk in self._inflight:
            # a newer master exists; fall back to slave and keep the events buffered
            self._deposed()

    # ------------------------------------------------------------------
    # shared-log input

    def on_log_entry(self, seq: int, body: LogBody) -> None:
        if seq != self.log_len + 1:
            raise FatalProtocolError(f"log gap: expected seq {self.log_len + 1}, got {seq}")
        self.log_len = seq
        if isinstance(body, SwitchEvent):
            ev = body
            if ev.event_id is None or ev.event_id != self.max_logged_id + 1:
                raise FatalProtocolError(f"non-dense event id {ev.event_id} after {self.max_logged_id}")
            self.max_logged_id = ev.event_id
            self.events_by_id[ev.event_id] = ev
            key = ev.occurrence
            self._logged_keys.add(key)
            self._pending_keys.discard(key)
            if self.slave_buffer.pop(key, None) is not None:
                self._trace("buffer-filtered", event_id=ev.event_id, switch_id=ev.switch_id, switch_seq=ev.switch_seq)
            self._trace("logged", event_id=ev.event_id, switch_id=ev.switch_id, detail={"seq": seq})
        else:
            if not 1 <= body.event_id <= self.max_logged_id:
                raise FatalProtocolError(f"processed entry for unknown event {body.event_id}")
            if body.event_id > self.delivered_upto:
                self.processed_logged.add(body.event_id)
            self._processed_unlogged.discard(body.event_id)
            if self.role == ROLE_MASTER:
                self._trace("processed-logged", event_id=body.event_id)
        self._advance()
        promo = self._promo
        if promo is not None and promo.held is None and self.log_len >= promo.watermark:
            self._start_promotion_work(promo)

    def _advance(self) -> None:
        # a promotion's catch-up delivers on its own once it has started
        if self._promo is not None and self._promo.held is not None:
            return
        # slaves replay an event only once its transaction is known complete;
        # both roles go strictly in id order, so every replica delivers the same sequence
        master = self.role == ROLE_MASTER
        while True:
            ev = self.events_by_id.get(self.delivered_upto + 1)
            if ev is None or not (master or ev.event_id in self.processed_logged):
                break
            staged = self._deliver(ev, discard=not master)
            if master:
                self._finalize(ev, staged)

    # ------------------------------------------------------------------
    # application pipeline

    def _deliver(self, ev: SwitchEvent, discard: bool) -> dict[str, list[ofwire.OfMessage]]:
        assert ev.event_id == self.delivered_upto + 1, "pipeline must deliver in id order"
        staged: dict[str, list[ofwire.OfMessage]] = {}
        writes = 0

        def sink(switch_id: str, message: ofwire.OfMessage) -> None:
            nonlocal writes
            writes += 1
            if not discard:
                staged.setdefault(switch_id, []).append(message)

        ctx = AppContext(ev, sink)
        try:
            self.app.on_event(ev, ctx)
        except Exception as exc:  # app faults must not diverge the replicas
            staged.clear()
            self._trace("app-error", event_id=ev.event_id, detail={"app": self.app.name, "error": repr(exc)})
        ctx._close()
        self.delivered_upto = ev.event_id
        self.events_by_id.pop(ev.event_id, None)
        self.processed_logged.discard(ev.event_id)
        self._trace(
            "delivered",
            event_id=ev.event_id,
            switch_id=ev.switch_id,
            switch_seq=ev.switch_seq,
            detail=self._delivered_detail(discard, writes),
        )
        return staged

    # ------------------------------------------------------------------
    # bundle manager

    def _finalize(self, ev: SwitchEvent, staged: dict[str, list[ofwire.OfMessage]]) -> None:
        eid = ev.event_id
        assert eid is not None
        sent_any = False
        for switch_id, cmds in staged.items():
            if switch_id not in self.live_switches:
                self._trace("finalize-switch-dead", event_id=eid, switch_id=switch_id)
                continue
            self._send_bundle(eid, switch_id, cmds)
            sent_any = True
        if sent_any:
            self._fault_hook("F3", event_id=eid)
        if eid not in self.pending_replies:
            self._enqueue_processed(eid)

    def _bundle_contents(self, eid: int, cmds: list[ofwire.OfMessage]) -> list[ofwire.OfMessage]:
        """What a bundle for event ``eid`` stages: its commands, then the commit marker."""
        return [*cmds, make_commit_marker(self.epoch, [eid])]

    def _send_bundle(self, eid: int, switch_id: str, cmds: list[ofwire.OfMessage]) -> None:
        bid = self._next_bundle_id
        self._next_bundle_id += 1
        self._bundle_owner[bid] = eid
        self.env.send_switch(switch_id, BundleOpen(bid))
        for msg in self._bundle_contents(eid, cmds):
            self.env.send_switch(switch_id, BundleAdd(bid, msg))
        self._fault_hook("F2", event_id=eid, switch_id=switch_id)
        self.env.send_switch(switch_id, BundleCommit(bid))
        self.pending_replies.setdefault(eid, set()).add(switch_id)
        self._trace(
            "commit-sent", event_id=eid, switch_id=switch_id, bundle_id=bid, detail=self._commit_detail(len(cmds))
        )

    def _on_bundle_reply(self, switch_id: str, msg: BundleReply) -> None:
        if not msg.success:
            # the switch follows another master: a newer one exists
            self._trace("bundle-refused", switch_id=switch_id, bundle_id=msg.bundle_id)
            self._deposed()
            return
        eid = self._bundle_owner.pop(msg.bundle_id, None)
        if eid is None:
            self._trace("stray-bundle-reply", switch_id=switch_id, bundle_id=msg.bundle_id)
            return
        self._trace("bundle-committed", event_id=eid, switch_id=switch_id, bundle_id=msg.bundle_id)
        self._switch_done(eid, switch_id)

    def _switch_done(self, eid: int, switch_id: str) -> None:
        """Event ``eid`` no longer waits on ``switch_id``: the switch replied,
        showed its marker or died. The last wait settled finishes the event."""
        waiting = self.pending_replies.get(eid)
        if waiting is None:
            return
        waiting.discard(switch_id)
        if not waiting:
            del self.pending_replies[eid]
            self._finish(eid)

    def _finish(self, eid: int) -> None:
        self._enqueue_processed(eid)
        # during a promotion only held events wait, so this was the last one
        if self._promo is not None and not self.pending_replies:
            self._drain_and_resume()

    def _enqueue_processed(self, eid: int) -> None:
        self._processed_unlogged.add(eid)
        self.pending_batch.append(ProcessedBody(eid))
        self._arm_or_flush()

    # ------------------------------------------------------------------
    # leadership

    def on_leadership(self, leader: str, epoch: int, log_len: int) -> None:
        self.epoch = max(self.epoch, epoch)
        if leader == self.controller_id:
            if self.role != ROLE_SLAVE:
                return
            self.role = ROLE_ELECT
            self._trace("role-changed", detail={"role": ROLE_MASTER})
            self._promo = _Promotion(watermark=log_len)
            if self.log_len >= log_len:
                self._start_promotion_work(self._promo)
        else:
            if self.role != ROLE_SLAVE:
                self._deposed()

    def _start_promotion_work(self, promo: _Promotion) -> None:
        promo.held = {}
        # 0. fence: from here on each switch refuses commands from any other
        #    controller, so a deposed master that has not noticed yet cannot
        #    commit behind the probe below (OpenFlow 1.3 master/slave roles)
        for switch_id in sorted(self.live_switches):
            self.env.send_switch(switch_id, RoleAnnounce(self.epoch))
        # 1. catch-up: replay everything the old master logged, discarding the
        #    writes of finished events and holding the writes of unfinished ones
        for eid in range(self.delivered_upto + 1, self.max_logged_id + 1):
            ev = self.events_by_id[eid]
            if eid in self.processed_logged:
                self._deliver(ev, discard=True)
            else:
                staged = self._deliver(ev, discard=False)
                promo.held[eid] = {s: list(cmds) for s, cmds in staged.items()}
        # 2. probe: one barrier per affected switch settles whether a marker
        #    from the old master can still be in flight on this connection;
        #    until it replies, the held event waits on that switch
        for eid in sorted(promo.held):
            for switch_id in promo.held[eid]:
                if (eid, switch_id) in self.processed_at_switch:
                    self._trace("probe-no-resend", event_id=eid, switch_id=switch_id)
                elif switch_id not in self.live_switches:
                    self._trace("probe-switch-dead", event_id=eid, switch_id=switch_id)
                else:
                    self.pending_replies.setdefault(eid, set()).add(switch_id)
        for switch_id in sorted(set().union(*self.pending_replies.values())):
            xid = self._next_xid
            self._next_xid += 1
            promo.barrier_waits[switch_id] = xid
            self.env.send_switch(switch_id, BarrierRequest(xid))
            self._trace("barrier-sent", switch_id=switch_id, detail={"xid": xid})
        # 3. what needs no probe is finished now. The log up to the watermark
        #    is in, so a processed entry this replica enqueued as an earlier
        #    master and still has not seen logged was dropped when it was deposed
        for eid in sorted(self._processed_unlogged):
            self._enqueue_processed(eid)
        for eid in sorted(promo.held):
            if eid not in self.pending_replies:
                self._enqueue_processed(eid)
        if not self.pending_replies:
            self._drain_and_resume()

    def _on_barrier_reply(self, switch_id: str, xid: int) -> None:
        promo = self._promo
        if promo is None or promo.barrier_waits.get(switch_id) != xid:
            self._trace("stray-barrier-reply", switch_id=switch_id, detail={"xid": xid})
            return
        del promo.barrier_waits[switch_id]
        # every wait on this switch is the probe; a resend makes it a bundle wait
        for eid in sorted(self.pending_replies):
            if switch_id not in self.pending_replies.get(eid, ()):
                continue
            if (eid, switch_id) in self.processed_at_switch:
                # the old master committed; the marker arrived before this reply
                self._trace("probe-no-resend", event_id=eid, switch_id=switch_id)
                self._switch_done(eid, switch_id)
            else:
                # nothing committed and nothing can still be in flight: resend
                self._trace("probe-resend", event_id=eid, switch_id=switch_id)
                self._send_bundle(eid, switch_id, promo.held[eid][switch_id])

    def _drain_and_resume(self) -> None:
        promo = self._promo
        assert promo is not None
        self._promo = None
        self.next_event_id = self.max_logged_id + 1
        buffered = self.slave_buffer
        self.slave_buffer = {}
        self.role = ROLE_MASTER
        # a logged copy has already taken its event out of the buffer
        for key, ev in buffered.items():
            ev.event_id = self.next_event_id
            self.next_event_id += 1
            self._pending_keys.add(key)
            self._trace("id-assigned", event_id=ev.event_id, switch_id=ev.switch_id, switch_seq=ev.switch_seq)
            self.pending_batch.append(ev)
        if self.pending_batch:
            self._flush()
        self._trace("promotion-complete", detail={"held": len(promo.held)})
        self._advance()

    def _deposed(self) -> None:
        if self.role == ROLE_SLAVE and self._promo is None and not self._inflight and not self.pending_batch:
            return
        if self.role != ROLE_SLAVE:
            self._trace("role-changed", detail={"role": ROLE_SLAVE})
        self.role = ROLE_SLAVE
        self._promo = None
        if self._batch_timer is not None:
            self.env.cancel(self._batch_timer)
            self._batch_timer = None
        moved: list[SwitchEvent] = []
        for chunk in self._inflight:
            moved.extend(b for b in chunk if isinstance(b, SwitchEvent))
        moved.extend(b for b in self.pending_batch if isinstance(b, SwitchEvent))
        self._inflight = []
        self.pending_batch = []
        for ev in moved:
            key = ev.occurrence
            self._pending_keys.discard(key)
            if key in self._logged_keys or key in self.slave_buffer:
                continue
            self.slave_buffer[key] = SwitchEvent(ev.switch_id, ev.switch_seq, ev.kind, ev.message)
        # in-flight bundles may still commit; their markers will be recorded
        self.pending_replies = {}
        self._bundle_owner = {}
        self._advance()

    # ------------------------------------------------------------------
    # quiescence introspection (used by the harness)

    def is_quiescent(self) -> bool:
        if self.pending_batch or self._inflight or self.pending_replies or self._promo is not None:
            return False
        if self.role == ROLE_MASTER:
            return self.delivered_upto == self.max_logged_id
        return not self.slave_buffer
