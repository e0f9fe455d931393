"""Strongly consistent coordination service.

A single-process stand-in for a replicated ensemble, exposing the contract
the control plane depends on: an append-only shared log with atomic batched
appends, watches that replay every entry in order (one push per append,
carrying the seq of its first entry and all of its bodies), sessions with
timeout-based failure detection, and arrival-ordered leader election with
fencing epochs. A log entry is its body, a ``SwitchEvent`` or a
``ProcessedBody``; the entry with seq n is ``log[n - 1]``.

All methods must be invoked from one logical serializer (the owning actor or
a lock); the service itself holds no threads. Time is passed in explicitly
so the harness clock can drive expiry deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .events import KIND_SWITCH_FAILURE, NULL_TRACE, SwitchEvent

if TYPE_CHECKING:
    from .trace import TraceLog


class CoordError(Exception):
    pass


class SessionExpired(CoordError):
    pass


class NotLeader(CoordError):
    pass


class EmptyAppend(CoordError):
    pass


class ElectionError(CoordError):
    pass


@dataclass
class ProcessedBody:
    event_id: int


LogBody = SwitchEvent | ProcessedBody


def body_to_json(body: LogBody) -> dict:
    if isinstance(body, SwitchEvent):
        return {"kind": "event", "event": body.to_json()}
    return {"kind": "processed", "event_id": body.event_id}


def body_from_json(d: dict) -> LogBody:
    if d["kind"] == "event":
        return SwitchEvent.from_json(d["event"])
    if d["kind"] == "processed":
        return ProcessedBody(d["event_id"])
    raise ValueError(f"unknown log body kind {d['kind']!r}")


@dataclass
class Session:
    session_id: int
    owner: str
    timeout_ms: float
    last_heartbeat: float
    expired: bool = False


@dataclass
class _Watch:
    cursor: int  # index into the log of the next entry to deliver
    deliver: Callable[[int, list[LogBody]], None]  # (seq of the first body, bodies)


# leadership callback: (leader_id, epoch, log_length_at_change)
LeaderCallback = Callable[[str, int, int], None]


class CoordService:
    def __init__(self, trace: TraceLog | None = None) -> None:
        self.log: list[LogBody] = []
        self._log = trace if trace is not None else NULL_TRACE
        self._sessions: dict[int, Session] = {}
        self._next_session_id = 1
        self._candidates: list[tuple[str, int]] = []  # arrival-ordered (owner, session_id)
        self.leader: str | None = None
        self.epoch = 0
        self._watches: list[_Watch] = []
        self._leader_subs: list[LeaderCallback] = []
        # cheap counters for quiescence checks
        self.n_events = 0
        self.n_switch_events = 0  # events that came off a switch, not synthesized switch failures
        self.n_processed = 0

    # -- sessions ----------------------------------------------------------

    def open_session(self, owner: str, timeout_ms: float, now: float) -> int:
        sid = self._next_session_id
        self._next_session_id += 1
        self._sessions[sid] = Session(sid, owner, timeout_ms, now)
        return sid

    def _live(self, session_id: int, now: float) -> Session:
        sess = self._sessions.get(session_id)
        if sess is None:
            raise SessionExpired(f"unknown session {session_id}")
        if not sess.expired and now - sess.last_heartbeat > sess.timeout_ms:
            self._expire(sess)
        if sess.expired:
            raise SessionExpired(f"session {session_id} of {sess.owner} expired")
        return sess

    def heartbeat(self, session_id: int, now: float) -> None:
        sess = self._live(session_id, now)
        sess.last_heartbeat = now

    def check_expiry(self, now: float) -> list[str]:
        """Expire overdue sessions; returns owners expired on this tick."""
        expired = []
        for sess in list(self._sessions.values()):
            if not sess.expired and now - sess.last_heartbeat > sess.timeout_ms:
                self._expire(sess)
                expired.append(sess.owner)
        return expired

    def next_deadline(self) -> float | None:
        deadlines = [
            s.last_heartbeat + s.timeout_ms for s in self._sessions.values() if not s.expired
        ]
        return min(deadlines) if deadlines else None

    def _expire(self, sess: Session) -> None:
        sess.expired = True
        self._log.emit("session-expired", "coord", detail={"controller": sess.owner})
        self.resign(sess.session_id)

    # -- election ----------------------------------------------------------

    def enroll(self, session_id: int, controller_id: str, now: float) -> None:
        sess = self._live(session_id, now)
        if any(sid == session_id for _, sid in self._candidates):
            raise ElectionError(f"session {session_id} already enrolled")
        self._candidates.append((controller_id, sess.session_id))
        if self.leader is None:
            self._update_leader()

    def resign(self, session_id: int) -> None:
        before = self._candidates
        self._candidates = [c for c in before if c[1] != session_id]
        if len(self._candidates) != len(before):
            self._update_leader()

    def watch_leadership(self, cb: LeaderCallback) -> None:
        self._leader_subs.append(cb)
        if self.leader is not None:
            cb(self.leader, self.epoch, len(self.log))

    def _update_leader(self) -> None:
        head = self._candidates[0][0] if self._candidates else None
        if head is None:
            self.leader = None
            return
        if head != self.leader or self.epoch == 0:
            self.leader = head
            self.epoch += 1
            self._log.emit("leader-elected", "coord", epoch=self.epoch, detail={"controller": head})
            for cb in list(self._leader_subs):
                cb(head, self.epoch, len(self.log))

    def _leader_session_id(self) -> int | None:
        return self._candidates[0][1] if self._candidates else None

    def fence(self, session_id: int, epoch: int, now: float) -> None:
        """Raise unless the session is live, leads, and writes under the current epoch."""
        self._live(session_id, now)
        if session_id != self._leader_session_id() or epoch != self.epoch:
            raise NotLeader(f"append under epoch {epoch}, current epoch {self.epoch}")

    # -- log ---------------------------------------------------------------

    def append(self, session_id: int, epoch: int, bodies: list[LogBody], now: float) -> tuple[int, int]:
        """Append all bodies contiguously and atomically; returns seq range."""
        if not bodies:
            raise EmptyAppend("rejected-empty")
        self.fence(session_id, epoch, now)
        first = len(self.log) + 1
        self.log.extend(bodies)
        for seq, body in enumerate(bodies, start=first):
            if isinstance(body, SwitchEvent):
                self.n_events += 1
                if body.kind != KIND_SWITCH_FAILURE:
                    self.n_switch_events += 1
                switch_id, switch_seq = body.switch_id, body.switch_seq
            else:
                self.n_processed += 1
                switch_id = switch_seq = None
            self._log.emit(
                "log-append", "coord", epoch=self.epoch, event_id=body.event_id, switch_id=switch_id,
                switch_seq=switch_seq, detail={"seq": seq, "body": body},
            )
        for watch in self._watches:
            self._pump(watch)
        return first, len(self.log)

    def subscribe(self, from_seq: int, deliver: Callable[[int, list[LogBody]], None]) -> None:
        """Deliver every entry with seq >= from_seq exactly once, in order,
        as ``deliver(first_seq, bodies)``.

        The backlog is replayed synchronously in one call; after that each
        append's entries are pushed in one call as they are appended.
        """
        if from_seq < 1:
            raise CoordError("from_seq must be >= 1")
        watch = _Watch(cursor=from_seq - 1, deliver=deliver)
        self._watches.append(watch)
        self._pump(watch)

    def _pump(self, watch: _Watch) -> None:
        if watch.cursor < len(self.log):
            first = watch.cursor + 1
            watch.cursor = len(self.log)
            watch.deliver(first, self.log[first - 1 :])

    @property
    def max_event_id(self) -> int:
        for body in reversed(self.log):
            if isinstance(body, SwitchEvent):
                return body.event_id or 0
        return 0
