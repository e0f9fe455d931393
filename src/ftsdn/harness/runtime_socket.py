"""Socket transport: the same protocol cores over TCP loopback.

Each node (coordination server, switch, controller replica) runs on one
thread, running an asyncio event loop. Each TCP connection is an asyncio
protocol on the loop of the node that owns it, which splits the byte stream
into messages and hands each to the node's handler; a message that fails to
decode is recorded as an ``executor-error`` and closes its connection.
Controller-switch connections carry binary frames, the coordination
connection length-prefixed JSON. Killing a controller closes its sockets, so
peers observe an orderly disconnect while the coordination session keeps
running until its timeout expires, exactly like an abruptly killed process
behind a kernel TCP stack.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
import time
from functools import partial

from .. import ofwire
from ..coord import LogEntry, body_from_json
from ..switchsim import Switch
from ..trace import TraceLog
from .config import ScenarioConfig
from .core import Controller, CoordHost, Crashed, SwitchConn, World


class SocketExecutor:
    """One node's thread, running an asyncio event loop. ``post`` and
    ``stop`` may be called from any thread, ``call_later`` and ``cancel``
    only on the loop's own. An exception that escapes a task is written to
    the trace as an ``executor-error`` record, and the executor carries on."""

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
        self._adopting: set[asyncio.Task] = set()  # the loop holds tasks weakly
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

    def serve(self, make_link) -> socket.socket:
        """Accept connections on a new loopback listener, each read by ``make_link()``."""
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.setblocking(False)
        self._soon(self.loop.add_reader, self._listener, self._accept, make_link)
        return self._listener

    async def adopt(self, sock: socket.socket, link: _Link) -> _Link:
        """Hand a connected socket to this loop, read by ``link``."""
        # asyncio sets this only on sockets made with proto TCP, and accept() gives proto 0
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        link.sock = sock
        await self.loop.create_connection(lambda: link, sock=sock)
        return link

    def _accept(self, make_link) -> None:
        try:
            sock, _ = self._listener.accept()
        except BlockingIOError:
            return
        except OSError:  # the listener was shut down: accept no more
            self.loop.remove_reader(self._listener)
            return
        task = self.loop.create_task(self.adopt(sock, make_link()))
        self._adopting.add(task)
        task.add_done_callback(self._adopting.discard)

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
            self.loop.remove_reader(self._listener)
            self._listener.close()
        for link in list(self._links):
            link.close()
        self._stopped.set_result(None)

    def _run(self) -> None:
        try:
            self.loop.run_until_complete(self._stopped)
            if self._adopting:  # let the connections still being handed over finish
                self.loop.run_until_complete(asyncio.gather(*self._adopting, return_exceptions=True))
        finally:
            self.loop.close()


class _Link(asyncio.Protocol):
    """One TCP connection on its node's loop. ``buf.feed`` splits the byte
    stream into messages and each goes to ``on_message``; a stream that does
    not decode is recorded and closes the connection. ``on_close`` runs when
    the connection closes, at either end."""

    def __init__(self, executor: SocketExecutor, buf, encode, on_message=None, on_close=None) -> None:
        self.exec = executor
        self.buf = buf
        self.encode = encode
        self.on_message = on_message
        self.on_close = on_close
        self.closed = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.exec._links.add(self)
        if not self.exec.alive:
            self.close()

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


def _json_frame(msg: dict) -> bytes:
    raw = json.dumps(msg, separators=(",", ":")).encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


# a heartbeat carries nothing but its op, so every one is the same frame
_HEARTBEAT_FRAME = _json_frame({"op": "heartbeat"})


def _encode_json(msg: dict) -> bytes:
    """Coordination messages travel as length-prefixed JSON; log entries and
    bodies become their JSON form."""
    op = msg["op"]
    if op == "heartbeat":
        return _HEARTBEAT_FRAME
    if op == "entries":
        msg = {"op": "entries", "entries": [e.to_json() for e in msg["entries"]]}
    elif op == "append":
        msg = {**msg, "bodies": [b.to_json() for b in msg["bodies"]]}
    return _json_frame(msg)


class _JsonBuffer:
    """Incremental splitter for the coordination link: each message is a
    4-byte length, then that many bytes of JSON. A read that is exactly one
    heartbeat, with nothing buffered before it, skips the JSON decoder."""

    def __init__(self) -> None:
        self._buf = b""

    def feed(self, data: bytes) -> list[dict]:
        if data == _HEARTBEAT_FRAME and not self._buf:
            return [{"op": "heartbeat"}]
        buf = self._buf + data
        msgs = []
        off = 0
        while len(buf) - off >= 4:
            (length,) = struct.unpack_from(">I", buf, off)
            end = off + 4 + length
            if len(buf) < end:
                break
            msg = json.loads(buf[off + 4 : end])
            if msg["op"] == "entries":
                msg["entries"] = [LogEntry.from_json(e) for e in msg["entries"]]
            elif msg["op"] == "append":
                msg["bodies"] = [body_from_json(b) for b in msg["bodies"]]
            msgs.append(msg)
            off = end
        self._buf = buf[off:]
        return msgs


class CoordServer(CoordHost):
    def __init__(self, trace: TraceLog) -> None:
        super().__init__(SocketExecutor("coord", trace), trace)
        self._listener = self.exec.serve(self._link)
        self.port = self._listener.getsockname()[1]

    def _link(self) -> _Link:
        """A controller's connection: its ``hello`` opens the session, whose
        handler takes every later request. The session outlives the
        connection and dies by timeout, not by EOF."""
        link = _Link(self.exec, _JsonBuffer(), _encode_json)

        def hello(msg: dict) -> None:
            if msg["op"] != "hello":
                link.close()
                return
            link.on_message = self.open_session(msg["controller_id"], msg["timeout_ms"], link.send)

        link.on_message = hello
        return link


class SwitchServer:
    def __init__(self, switch_id: str, trace: TraceLog) -> None:
        self.exec = SocketExecutor(switch_id, trace)
        self.switch = Switch(switch_id, trace=trace.emitter(switch_id))
        self._listener = self.exec.serve(self._link)
        self.port = self._listener.getsockname()[1]

    def _link(self) -> _Link:
        link = _Link(self.exec, ofwire.FrameBuffer(), _encode_frame)

        def identify(msg: ofwire.OfMessage) -> None:
            # the first frame is the peer announcing its identity
            if not isinstance(msg, ofwire.RoleAnnounce):
                link.close()
                return
            conn = SwitchConn(msg.controller_id, link.send)
            link.on_message = lambda m: self.switch.on_message(conn, m)
            link.on_close = lambda: self.switch.on_conn_closed(conn.uid)
            self.switch.attach(conn)

        link.on_message = identify
        return link

    def inject(self, payload: bytes, in_port: int) -> None:
        self.exec.post(lambda: self.switch.inject_packet(payload, in_port))

    def crash(self) -> None:
        """Fail the switch after the work already queued: it stops, and every
        controller sees its connection drop."""
        self.exec.post(self.switch.crash)
        self.exec.post(self.exec.stop)


class SocketController(Controller):
    """A replica wired to the coordination server and every switch over TCP."""

    def __init__(self, cid: str, cfg: ScenarioConfig, coord_port: int, switch_ports: dict[str, int],
                 trace: TraceLog, fault_hook) -> None:
        super().__init__(cid, SocketExecutor(cid, trace), cfg, None, trace, fault_hook)
        self.dead = False
        socks = {sid: socket.create_connection(("127.0.0.1", port)) for sid, port in switch_ports.items()}
        for sock in socks.values():
            sock.sendall(_encode_frame(ofwire.RoleAnnounce(cid, 0)))
        coord = socket.create_connection(("127.0.0.1", coord_port))
        coord.sendall(_encode_json({"op": "hello", "controller_id": cid, "timeout_ms": cfg.session_timeout_ms}))
        # every later send runs on the loop, once it owns the sockets
        asyncio.run_coroutine_threadsafe(self._adopt(socks, coord), self.exec.loop).result()
        self.exec.post(self.start_heartbeat)

    async def _adopt(self, socks: dict[str, socket.socket], coord: socket.socket) -> None:
        for sid, sock in socks.items():
            self.replica.attach_switch(sid)
            on_message = self.guard(lambda msg, sid=sid: self.replica.on_switch_message(sid, msg))
            link = _Link(self.exec, ofwire.FrameBuffer(), _encode_frame, on_message,
                         self.guard(partial(self.replica.on_switch_disconnect, sid)))
            self.switch_links[sid] = (await self.exec.adopt(sock, link)).send
        link = _Link(self.exec, _JsonBuffer(), _encode_json, self.guard(self.on_coord_msg))
        self.send_coord = (await self.exec.adopt(coord, link)).send

    def crash(self, reason: str = "killed") -> None:
        """Kill the process model: sockets close, timers stop."""
        if self.dead:
            return
        self.dead = True
        self.exec.stop()
        self.trace.emit("controller-crashed", self.cid, detail={"reason": reason})

    def fail(self) -> None:
        self.crash("fatal")


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
        ports = {sid: node.port for sid, node in self.switches.items()}
        self.ctrls: dict[str, SocketController] = {}
        for i in range(cfg.n_controllers):
            cid = f"c{i}"
            self.ctrls[cid] = SocketController(cid, cfg, self.coord.port, ports, self.trace, self.fault_hook(cid))
            if i == 0:
                self._await_master(cid)
        self._arm_timed_faults()

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

    def crash_controller(self, cid: str, reason: str) -> None:
        self.ctrls[cid].crash(reason)

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
