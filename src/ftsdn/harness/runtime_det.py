"""Deterministic in-memory transport.

A single-threaded scheduler drives actor mailboxes in simulated time. Every
channel is FIFO; cross-channel interleaving comes from latencies drawn from
the seeded RNG, which is exactly the nondeterminism a real multi-connection
deployment exhibits and nothing more. A handler's sends to one peer arrive
together as one delivery, as back-to-back writes on one TCP connection do:
the channel holds them until the handler ends, then schedules them with one
latency draw and charges the receiver the sum of their receive costs in one
handler that reads them in order. The delivery leaves with the last of its
sends and arrives when the last of them would have, had each drawn its own
latency, so a burst crosses the link no faster than its messages one by one.
A send made outside any handler, such as a harness injection, is a delivery
of its own. Crashing a node delivers its held and in-flight messages before
the peers observe the disconnect, matching TCP semantics for an abruptly
killed process.

The scheduler draws every latency, and its seeded RNG is read nowhere else:
``Scheduler.latency(src, dst, n)`` is the one place where the world's
nondeterminism enters. A test that pins a link replaces that method.

Each channel end can charge its actor a service cost per message it sends
and per message it receives, so that a throughput experiment has a real
bottleneck resource. The model bench (``bench.py``) sets these costs;
scenario runs leave them unset, and an unset cost is never called.

A scheduled event is a plain list ``[time, seq, fn, maintenance, cancelled]``.
Lists compare element by element in C, and ``(time, seq)`` is unique, so heap
steps never call back into Python and never compare ``fn``. The list is also
the handle that ``schedule_at``, ``post`` and ``call_later`` return.
"""

from __future__ import annotations

import heapq
import random
from functools import partial
from typing import Callable

from .core import Crashed


Event = list  # [time, seq, fn, maintenance, cancelled]
_MAINTENANCE, _CANCELLED = 3, 4

# a lone message's latency is uniform on [LATENCY_LO_MS, LATENCY_LO_MS + LATENCY_SPAN_MS)
LATENCY_LO_MS = 0.2
LATENCY_SPAN_MS = 1.3


class Scheduler:
    def __init__(self, seed: int) -> None:
        self.now = 0.0
        self.rng = random.Random(seed)
        self._heap: list[Event] = []
        self._seq = 0
        self._live_work = 0  # scheduled non-maintenance events

    def latency(self, src: str, dst: str, n: int) -> float:
        """The latency of one delivery of ``n`` messages from ``src`` to ``dst``:
        the latest of ``n`` uniform latencies. The largest of ``n`` uniforms on
        ``[0, 1)`` is distributed as ``U ** (1 / n)``, so one draw gives it; a
        lone message draws exactly what ``rng.uniform(0.2, 1.5)`` would."""
        return LATENCY_LO_MS + LATENCY_SPAN_MS * self.rng.random() ** (1 / n)

    def schedule_at(self, when: float, fn: Callable[[], None], maintenance: bool = False) -> Event:
        self._seq += 1
        ev = [when, self._seq, fn, maintenance, False]
        heapq.heappush(self._heap, ev)
        if not maintenance:
            self._live_work += 1
        return ev

    def cancel(self, ev: Event) -> None:
        if not ev[_CANCELLED]:
            ev[_CANCELLED] = True
            if not ev[_MAINTENANCE]:
                self._live_work -= 1

    def run(
        self,
        until: float,
        quiescent: Callable[[], bool] | None = None,
    ) -> bool:
        """Drive events until ``quiescent()`` holds with no live work queued,
        or the deadline passes. Returns True when quiescence was reached."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if self._live_work == 0 and quiescent is not None and quiescent():
                return True
            ev = pop(heap)
            when, _, fn, maintenance, cancelled = ev
            if cancelled:
                continue
            if when > until:
                heapq.heappush(heap, ev)
                return quiescent() if quiescent else True
            if when > self.now:
                self.now = when
            if not maintenance:
                self._live_work -= 1
            try:
                fn()
            except Crashed:
                pass
        return quiescent() if quiescent else True


class Executor:
    """One actor's serial execution context with service-time accounting."""

    def __init__(self, sched: Scheduler, node_id: str) -> None:
        self.sched = sched
        self.node_id = node_id
        self.alive = True
        self.busy_until = 0.0
        self._cursor: float | None = None  # virtual time while inside a handler
        self._outbox: list[tuple[Channel, int]] = []  # directions holding this handler's sends
        self.links: list[Endpoint] = []  # this actor's channel ends, in the order they were made

    def now(self) -> float:
        return self._cursor if self._cursor is not None else self.sched.now

    def debit(self, cost_ms: float) -> None:
        if self._cursor is not None:
            self._cursor += cost_ms

    def _run(self, fn: Callable[..., None], cost_ms: float, *args: object) -> None:
        """Run ``fn(*args)`` as this actor, after its earlier work, charging ``cost_ms``."""
        if not self.alive:
            return
        start = max(self.sched.now, self.busy_until)
        self._cursor = start + cost_ms
        try:
            fn(*args)
        finally:
            if self._outbox:
                outbox, self._outbox = self._outbox, []
                for chan, to_side in outbox:
                    chan.flush(to_side)
            self.busy_until = self._cursor
            self._cursor = None

    def post(self, fn: Callable[[], None], arrive: float, maintenance: bool = False) -> Event:
        return self.sched.schedule_at(arrive, partial(self._run, fn, 0.0), maintenance)

    def call_later(self, delay_ms: float, fn: Callable[[], None], maintenance: bool = False) -> Event:
        return self.post(fn, arrive=self.now() + max(0.0, delay_ms), maintenance=maintenance)

    def cancel(self, handle: Event) -> None:
        self.sched.cancel(handle)

    def kill(self) -> None:
        self.alive = False

    def stop(self) -> None:
        """Kill this actor, then close its channel ends in the order they were
        made; each peer hears of the close after what was already sent."""
        self.kill()
        for end in self.links:
            end.close()


class Endpoint:
    """One side of a bidirectional FIFO channel."""

    def __init__(self, channel: "Channel", side: int) -> None:
        self._channel = channel
        self._side = side
        self.on_message: Callable[[object], None] | None = None
        self.on_close: Callable[[], None] | None = None
        # service-cost hooks; None (no cost) unless the model bench assigns them
        self.send_cost: Callable[[object], float] | None = None
        self.recv_cost: Callable[[object], float] | None = None

    def send(self, msg: object) -> None:
        self._channel.send(self._side, msg)

    def deliver(self, msgs: list) -> None:
        """Hand one delivery's messages to ``on_message`` in order; a node
        that dies on one of them reads no more."""
        on_message = self.on_message
        if on_message is None:
            return
        receiver = self._channel.execs[self._side]
        for msg in msgs:
            if not receiver.alive:
                return
            on_message(msg)

    def close(self) -> None:
        self._channel.close(self._side)


class Channel:
    def __init__(self, sched: Scheduler, exec_a: Executor, exec_b: Executor) -> None:
        self.sched = sched
        self.execs = (exec_a, exec_b)
        self.ends = (Endpoint(self, 0), Endpoint(self, 1))
        exec_a.links.append(self.ends[0])
        exec_b.links.append(self.ends[1])
        self._last_arrival = [0.0, 0.0]  # per direction (indexed by receiving side)
        self._held: list[list] = [[], []]  # per direction: sends waiting for their handler to end
        self._last_send = [0.0, 0.0]  # per direction: when the latest held send left
        self._open = True

    def send(self, from_side: int, msg: object) -> None:
        if not self._open:
            return
        sender = self.execs[from_side]
        if not sender.alive:
            return
        send_cost = self.ends[from_side].send_cost
        if send_cost is not None:
            sender.debit(send_cost(msg))
        to_side = 1 - from_side
        if sender._cursor is None:  # outside any handler: a harness injection
            self._dispatch(to_side, [msg], self.sched.now)
            return
        held = self._held[to_side]
        if not held:
            sender._outbox.append((self, to_side))
        held.append(msg)
        self._last_send[to_side] = sender._cursor

    def flush(self, to_side: int) -> None:
        """Send the messages held for ``to_side`` as one delivery."""
        held = self._held[to_side]
        if held:
            self._held[to_side] = []
            self._dispatch(to_side, held, self._last_send[to_side])

    def _dispatch(self, to_side: int, msgs: list, depart: float) -> None:
        """Schedule ``msgs`` as one delivery: one latency draw, behind every
        earlier delivery in this direction, costing the receiver the sum of
        their receive costs."""
        sender, receiver = self.execs[1 - to_side], self.execs[to_side]
        latency = self.sched.latency(sender.node_id, receiver.node_id, len(msgs))
        arrival = max(depart + latency, self._last_arrival[to_side] + 1e-9)
        self._last_arrival[to_side] = arrival
        dst = self.ends[to_side]
        recv_cost = dst.recv_cost
        cost = 0.0 if recv_cost is None else sum([recv_cost(msg) for msg in msgs])
        self.sched.schedule_at(arrival, partial(receiver._run, dst.deliver, cost, msgs))

    def close(self, from_side: int) -> None:
        """Close after in-flight messages are delivered, like a flushed TCP FIN.
        The closing side's held sends leave first, so a node that dies inside
        a handler still delivers what it sent before."""
        if not self._open:
            return
        self._open = False
        to_side = 1 - from_side
        self.flush(to_side)
        dst = self.ends[to_side]
        when = max(self.sched.now, self._last_arrival[to_side]) + 1e-6

        def notify() -> None:
            if dst.on_close is not None:
                dst.on_close()

        self.execs[to_side].post(notify, arrive=when)
