"""Socket transport: the same protocol cores over TCP loopback.

Each node (coordination server, switch, controller replica) runs on one
thread, running an asyncio event loop. A link is one TCP connection:
``SocketWorld._link`` dials the far node's listener and accepts on the
world's thread, then hands each socket to the loop of the node that owns
it, which binds it before its first read. There it is an asyncio protocol,
which splits the byte stream into messages and hands each to the node's
handler; a message that fails to decode is recorded as an
``executor-error`` and closes its connection. Every link carries
``ofwire`` frames, a 4-byte length and a body: an OpenFlow message between
a controller and a switch, a JSON message on the coordination link. Killing
a controller closes its sockets, so peers observe an orderly disconnect
while the coordination session keeps running until its timeout expires,
exactly like an abruptly killed process behind a kernel TCP stack.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import socket
import threading
import time
from functools import partial

from .. import ofwire
from ..coord import body_from_json, body_to_json
from ..switchsim import Switch
from ..trace import TraceLog
from .config import ScenarioConfig
from .core import Controller, CoordHost, Crashed, World


class SocketExecutor:
    """One node's thread, running an asyncio event loop. ``post``, ``adopt``
    and ``stop`` may be called from any thread, ``call_later`` and
    ``cancel`` only on the loop's own. An exception that escapes a task is
    written to the trace as an ``executor-error`` record, and the executor
    carries on."""

    def __init__(self, name: str, trace: TraceLog) -> None:
        self.name = name
        self.trace = trace
        self.alive = True
        self.loop = asyncio.new_event_loop()
        # what asyncio itself would log, such as a connection that failed to open
        self.loop.set_exception_handler(lambda _, context: self._record(context.get("exception") or context["message"]))
        self._stopped = self.loop.create_future()
        self._listener: socket.socket | None = None
        self._links: set[_Link] = set()
        self.thread = threading.Thread(target=self._run, name=f"exec-{name}", daemon=True)
        self.thread.start()

    def now(self) -> float:
        return time.monotonic() * 1000.0

    def post(self, fn) -> None:
        self._soon(self._safe, fn)

    def call_later(self, delay_ms: float, fn, maintenance: bool) -> asyncio.TimerHandle:
        """``maintenance`` is part of the shared executor interface; a thread
        needs no idle test, so it is not used here."""
        return self.loop.call_later(delay_ms / 1000.0, self._safe, fn)

    def cancel(self, handle: asyncio.TimerHandle) -> None:
        handle.cancel()

    def stop(self) -> None:
        """Run no more tasks. On the loop, close the listener and every
        connection, then end the thread; the caller does not wait for it."""
        self.alive = False
        self._soon(self._shutdown)

    def listen(self) -> socket.socket:
        """A loopback listener that links to this node are dialled on. The
        node does not accept on it; ``SocketWorld._link`` does."""
        self._listener = socket.create_server(("127.0.0.1", 0))
        return self._listener

    def adopt(self, sock: socket.socket, wire, bind) -> concurrent.futures.Future:
        """Hand a connected socket to this loop as a link that speaks
        ``wire`` and is passed to ``bind`` before its first read. The
        future is done once the link is bound."""
        # asyncio sets this only on sockets made with proto TCP, and accept() gives proto 0
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        link = _Link(self, sock, wire, bind)
        return asyncio.run_coroutine_threadsafe(self.loop.create_connection(lambda: link, sock=sock), self.loop)

    def _soon(self, *callback) -> None:
        try:
            self.loop.call_soon_threadsafe(*callback)
        except RuntimeError:
            pass  # the loop has closed: the node is gone

    def _safe(self, fn, *args) -> None:
        if not self.alive:
            return
        try:
            fn(*args)
        except Crashed:
            pass
        except Exception as exc:
            self._record(exc)

    def _record(self, error) -> None:
        self.trace.emit("executor-error", self.name, detail={"error": repr(error)})

    def _shutdown(self) -> None:
        if self._stopped.done():
            return
        if self._listener is not None:
            self._listener.close()
        for link in list(self._links):
            link.close()
        self._stopped.set_result(None)

    def _run(self) -> None:
        try:
            self.loop.run_until_complete(self._stopped)
        finally:
            self.loop.close()


class _Link(asyncio.Protocol):
    """One TCP connection on its node's loop, carrying ``ofwire`` frames;
    ``wire`` is how a message becomes a frame and a frame's body a message.
    ``bind`` gets the link once it is connected, before its first read.
    Each message read goes to ``on_message``; a stream that does not decode
    is recorded and closes the connection. ``on_close`` runs when the
    connection closes, at either end."""

    on_message = None
    on_close = None

    def __init__(self, executor: SocketExecutor, sock: socket.socket, wire, bind) -> None:
        self.exec = executor
        self.sock = sock
        self.encode, decode_body = wire
        self.buf = ofwire.FrameBuffer(decode_body)
        self.bind = bind
        self.closed = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.exec._links.add(self)
        if not self.exec.alive:
            self.close()
            return
        self.exec._safe(self.bind, self)

    def data_received(self, data: bytes) -> None:
        if self.closed:
            return
        try:
            msgs = self.buf.feed(data)
        except Exception as exc:
            self.exec._record(exc)
            self.close()
            return
        for msg in msgs:
            if self.closed:
                return
            self.exec._safe(self.on_message, msg)

    def connection_lost(self, exc: Exception | None) -> None:
        # A failed write closes the transport without reading what has arrived, so read it now.
        # Closing over unread data would also reset the connection, dropping what this end wrote
        # that the kernel has not sent yet.
        try:
            while data := self.sock.recv(1 << 16):
                self.data_received(data)
        except OSError:  # nothing more has arrived, or the peer reset the connection
            pass
        self.closed = True
        self.exec._links.discard(self)
        if self.on_close is not None:
            self.exec._safe(self.on_close)

    def send(self, msg) -> None:
        """A peer that has gone away is noticed by the reader, not here."""
        if not self.transport.is_closing():
            self.transport.write(self.encode(msg))

    def close(self) -> None:
        self.closed = True
        self.transport.abort()


def _encode_frame(msg: ofwire.OfMessage) -> bytes:
    return ofwire.encode(msg)  # looked up per call, so a wrapper installed later sees every frame


# a heartbeat carries nothing but its op, so every one is the same frame
_HEARTBEAT_BODY = b'{"op":"heartbeat"}'
_HEARTBEAT_FRAME = ofwire.frame(_HEARTBEAT_BODY)


def _encode_coord(msg: dict) -> bytes:
    """A coordination message is framed JSON; the log bodies of an
    ``entries`` push or an ``append`` request become their JSON form."""
    if msg["op"] == "heartbeat":
        return _HEARTBEAT_FRAME
    if "bodies" in msg:
        msg = {**msg, "bodies": [body_to_json(b) for b in msg["bodies"]]}
    return ofwire.frame(json.dumps(msg, separators=(",", ":")).encode("utf-8"))


def _decode_coord(body: bytes) -> dict:
    """The message ``_encode_coord`` framed; a heartbeat skips the JSON decoder."""
    if body == _HEARTBEAT_BODY:
        return {"op": "heartbeat"}
    msg = json.loads(body)
    if "bodies" in msg:
        msg["bodies"] = [body_from_json(b) for b in msg["bodies"]]
    return msg


class CoordServer(CoordHost):
    wire = (_encode_coord, _decode_coord)  # what its links carry

    def __init__(self, trace: TraceLog) -> None:
        super().__init__(SocketExecutor("coord", trace), trace)
        self._listener = self.exec.listen()


class SwitchServer:
    wire = (_encode_frame, ofwire.decode_body)

    def __init__(self, switch_id: str, trace: TraceLog) -> None:
        self.exec = SocketExecutor(switch_id, trace)
        self.switch = Switch(switch_id, trace=trace)
        self._listener = self.exec.listen()

    def inject(self, payload: bytes, in_port: int) -> None:
        self.exec.post(lambda: self.switch.inject_packet(payload, in_port))

    def crash(self) -> None:
        """Fail the switch after the work already queued: it stops, and every
        controller sees its connection drop."""
        self.exec.post(self.switch.crash)
        self.exec.post(self.exec.stop)


class SocketWorld(World):
    """One coordination server, the switches, and the controller replicas.

    Times given to ``at`` are milliseconds after ``run`` is called; nothing
    planned, the fault plan included, fires unless ``run`` walks it."""

    def __init__(self, cfg: ScenarioConfig) -> None:
        cfg.validate()
        super().__init__(cfg, TraceLog(clock=time.time_ns))
        self._timeline: list = []  # (time_ms, fn) in the order planned
        self.coord = CoordServer(self.trace)
        self.switches: dict[str, SwitchServer] = {
            f"s{i}": SwitchServer(f"s{i}", self.trace) for i in range(cfg.n_switches)
        }
        cids = [f"c{i}" for i in range(cfg.n_controllers)]
        self.ctrls: dict[str, Controller] = {
            cid: Controller(cid, SocketExecutor(cid, self.trace), cfg, self.trace, self.fault_hook(cid))
            for cid in cids
        }
        # each _connect returns with the controller's session open, so c0's is the first and c0 leads
        for ctrl in self.ctrls.values():
            self._connect(ctrl)
        self._await_master("c0")
        self._arm_timed_faults()

    def _link(self, a, b, bind_a, bind_b) -> None:
        """Dial ``b``'s listener and accept the connection on this thread,
        then hand each end to its node's loop and wait until both are bound.
        The link speaks what ``b``'s links carry."""
        near = socket.create_connection(b._listener.getsockname())
        far, _ = b._listener.accept()
        bound = [a.exec.adopt(near, b.wire, bind_a), b.exec.adopt(far, b.wire, bind_b)]
        for future in bound:
            future.result()

    def _await_master(self, cid: str, timeout_s: float = 5.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.ctrls[cid].replica.role == "master":
                return
            time.sleep(0.002)
        raise RuntimeError(f"{cid} never became master")

    def master_id(self) -> str | None:
        return self.coord.service.leader

    # -- what the shared driver and fault injector need ------------------------

    def at(self, time_ms: float, fn) -> None:
        self._timeline.append((time_ms, fn))

    def crash_switch(self, sid: str) -> None:
        self.switches[sid].crash()

    def stall(self, cid: str, pause_ms: float) -> None:
        self.ctrls[cid].exec.post(partial(time.sleep, pause_ms / 1000.0))

    def inject(self, sid: str, payload: bytes, in_port: int) -> None:
        self.switches[sid].inject(payload, in_port)

    def run(self, deadline_ms: float) -> bool:
        """Run what is planned up to the deadline on the wall clock, on this
        thread, then wait for quiescence for the time that is left."""
        start = time.monotonic()
        for time_ms, fn in sorted(self._timeline, key=lambda entry: entry[0]):
            if time_ms > deadline_ms:
                break
            delay = time_ms / 1000.0 - (time.monotonic() - start)
            if delay > 0:
                time.sleep(delay)
            fn()
        return self.wait_quiescent(deadline_ms / 1000.0 - (time.monotonic() - start))

    def wait_quiescent(self, timeout_s: float) -> bool:
        deadline = time.monotonic() + timeout_s
        stable = 0
        while time.monotonic() < deadline:
            if self.quiescent():
                stable += 1
                if stable >= 3:  # settle: three consecutive clean polls
                    return True
            else:
                stable = 0
            time.sleep(0.02)
        return False

    def stop(self) -> None:
        """Stop every node, then wait for each node's thread to end. Every
        node stops running tasks before any closes a connection, so stopping
        adds nothing to the trace."""
        execs = [node.exec for node in (*self.ctrls.values(), *self.switches.values(), self.coord)]
        for executor in execs:
            executor.alive = False
        for executor in execs:
            executor.stop()
        for executor in execs:
            executor.thread.join()
