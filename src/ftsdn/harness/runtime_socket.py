"""Socket transport: the same protocol cores over TCP loopback.

Each node (coordination server, switch, controller replica) owns a
single-threaded executor that serializes access to its state; per-connection
reader threads only decode frames and post them to the owning executor.
Controller-switch connections carry binary frames; the coordination
connection carries length-prefixed JSON. Killing a controller closes its
sockets, so peers observe an orderly disconnect while the coordination
session keeps running until its timeout expires, exactly like an abruptly
killed process behind a kernel TCP stack.
"""

from __future__ import annotations

import heapq
import itertools
import json
import queue
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
from .core import Controller, CoordHost, SwitchConn, World


def _now_ms() -> float:
    return time.monotonic() * 1000.0


class SocketExecutor:
    """Serial executor with millisecond timers, one thread per node."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._q: queue.Queue = queue.Queue()
        self._timers: list = []
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self.alive = True
        threading.Thread(target=self._run, name=f"exec-{name}", daemon=True).start()

    def now(self) -> float:
        return _now_ms()

    def post(self, fn) -> None:
        self._q.put(fn)

    def call_later(self, delay_ms: float, fn, maintenance: bool) -> list:
        """``maintenance`` is part of the shared executor interface; a thread
        needs no idle test, so it is not used here."""
        handle = [fn]
        with self._lock:
            heapq.heappush(self._timers, (_now_ms() + max(0.0, delay_ms), next(self._seq), handle))
        return handle

    def cancel(self, handle) -> None:
        handle[0] = None

    def stop(self) -> None:
        self.alive = False
        self._q.put(None)

    def _due(self) -> list:
        out = []
        with self._lock:
            while self._timers and self._timers[0][0] <= _now_ms():
                _, _, handle = heapq.heappop(self._timers)
                if handle[0] is not None:
                    out.append(handle[0])
        return out

    def _next_deadline(self) -> float | None:
        with self._lock:
            return self._timers[0][0] if self._timers else None

    def _run(self) -> None:
        while self.alive:
            for fn in self._due():
                self._safe(fn)
            deadline = self._next_deadline()
            wait = 0.05 if deadline is None else max(0.0, min((deadline - _now_ms()) / 1000.0, 0.05))
            try:
                fn = self._q.get(timeout=max(wait, 0.0005))
            except queue.Empty:
                continue
            if fn is None:
                break
            self._safe(fn)

    def _safe(self, fn) -> None:
        if not self.alive:
            return
        try:
            fn()
        except Exception:
            import traceback

            traceback.print_exc()


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _listen() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    sock.listen(16)
    return sock


def _serve(listener: socket.socket, conn_loop) -> None:
    """Accept connections until the listener is shut down, one reader
    thread per connection."""

    def accept_loop() -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=conn_loop, args=(conn,), daemon=True).start()

    threading.Thread(target=accept_loop, daemon=True).start()


def _close(sock: socket.socket) -> None:
    """Shut down, then close: closing alone wakes no thread blocked on it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


def _encode_frame(msg: ofwire.OfMessage) -> bytes:
    return ofwire.encode(msg)  # looked up per call, so a wrapper installed later sees every frame


def _sender(sock: socket.socket, encode):
    """A thread-safe send of encoded messages; a peer that has gone away is
    noticed by its reader, not by the sender."""
    lock = threading.Lock()

    def send(msg) -> None:
        try:
            with lock:
                sock.sendall(encode(msg))
        except OSError:
            pass

    return send


def _encode_json(msg: dict) -> bytes:
    """Coordination messages travel as length-prefixed JSON; log entries and
    bodies become their JSON form."""
    op = msg["op"]
    if op == "entry":
        msg = {"op": "entry", "entry": msg["entry"].to_json()}
    elif op == "append":
        msg = {**msg, "bodies": [b.to_json() for b in msg["bodies"]]}
    raw = json.dumps(msg, separators=(",", ":")).encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _read_json(sock: socket.socket) -> dict | None:
    header = _read_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    raw = _read_exact(sock, length)
    if raw is None:
        return None
    msg = json.loads(raw.decode("utf-8"))
    op = msg["op"]
    if op == "entry":
        msg["entry"] = LogEntry.from_json(msg["entry"])
    elif op == "append":
        msg["bodies"] = [body_from_json(b) for b in msg["bodies"]]
    return msg


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except OSError:
            return None
        if not chunk:
            return None
        buf += chunk
    return buf


def _read_frames(sock: socket.socket):
    """Yield the OpenFlow messages arriving on ``sock`` until it closes."""
    buf = ofwire.FrameBuffer()
    while True:
        try:
            data = sock.recv(65536)
        except OSError:
            return
        if not data:
            return
        yield from buf.feed(data)


class CoordServer(CoordHost):
    def __init__(self, trace: TraceLog) -> None:
        super().__init__(SocketExecutor("coord"), trace)
        self._listener = _listen()
        self.port = self._listener.getsockname()[1]
        _serve(self._listener, self._client_loop)

    def _client_loop(self, conn: socket.socket) -> None:
        hello = _read_json(conn)
        if hello is None or hello.get("op") != "hello":
            conn.close()
            return
        # runs on the executor before any request this loop posts after it
        handler: list = []
        push = _sender(conn, _encode_json)
        self.exec.post(lambda: handler.append(self.open_session(hello["controller_id"], hello["timeout_ms"], push)))
        while True:
            msg = _read_json(conn)
            if msg is None:
                conn.close()
                return  # connection gone; the session dies by timeout, not by EOF
            self.exec.post(lambda m=msg: handler[0](m))

    def stop(self) -> None:
        try:
            _close(self._listener)
        finally:
            self.exec.stop()


class SwitchServer:
    def __init__(self, switch_id: str, trace: TraceLog) -> None:
        self.exec = SocketExecutor(switch_id)
        self.switch = Switch(switch_id, trace=trace.emitter(switch_id))
        self._listener = _listen()
        self.port = self._listener.getsockname()[1]
        _serve(self._listener, self._conn_loop)

    def _conn_loop(self, sock: socket.socket) -> None:
        conn: SwitchConn | None = None
        for msg in _read_frames(sock):
            if conn is None:
                # the first frame is the peer announcing its identity
                if not isinstance(msg, ofwire.RoleAnnounce):
                    sock.close()
                    return
                conn = SwitchConn(msg.controller_id, _sender(sock, _encode_frame))
                self.exec.post(lambda c=conn: self.switch.attach(c))
                continue
            self.exec.post(lambda m=msg, c=conn: self.switch.on_message(c, m))
        sock.close()
        if conn is not None:
            self.exec.post(lambda c=conn: self.switch.on_conn_closed(c.uid))

    def inject(self, payload: bytes, in_port: int) -> None:
        self.exec.post(lambda: self.switch.inject_packet(payload, in_port))

    def stop(self) -> None:
        try:
            _close(self._listener)
        finally:
            self.exec.stop()


class SocketController(Controller):
    """A replica wired to the coordination server and every switch over TCP."""

    def __init__(self, cid: str, cfg: ScenarioConfig, coord_port: int, switch_ports: dict[str, int],
                 trace: TraceLog) -> None:
        super().__init__(cid, SocketExecutor(cid), cfg, None, trace, None)
        self.dead = False
        self.crash_time_ms: float | None = None
        self._socks: list[socket.socket] = []
        for sid, port in switch_ports.items():
            sock = self._open(port)
            self.switch_links[sid] = _sender(sock, _encode_frame)
            self.switch_links[sid](ofwire.RoleAnnounce(cid, 0))
            self.exec.post(lambda s=sid: self.replica.attach_switch(s))
            threading.Thread(target=self._switch_reader, args=(sid, sock), daemon=True).start()
        sock = self._open(coord_port)
        self.send_coord = _sender(sock, _encode_json)
        self.send_coord({"op": "hello", "controller_id": cid, "timeout_ms": cfg.session_timeout_ms})
        threading.Thread(target=self._coord_reader, args=(sock,), daemon=True).start()
        self.start_heartbeat()

    def _open(self, port: int) -> socket.socket:
        sock = _connect(port)
        self._socks.append(sock)
        return sock

    def _switch_reader(self, sid: str, sock: socket.socket) -> None:
        on_message = self.guard(lambda msg: self.replica.on_switch_message(sid, msg))
        for msg in _read_frames(sock):
            self.exec.post(partial(on_message, msg))
        if not self.dead:
            self.exec.post(self.guard(lambda: self.replica.on_switch_disconnect(sid)))

    def _coord_reader(self, sock: socket.socket) -> None:
        on_message = self.guard(self.on_coord_msg)
        while (msg := _read_json(sock)) is not None:
            self.exec.post(partial(on_message, msg))

    def close(self) -> None:
        for sock in self._socks:
            _close(sock)

    def crash(self) -> None:
        """Kill the process model: sockets flush and close, timers stop."""
        self.dead = True
        self.crash_time_ms = time.time_ns() * 1e-6
        self.exec.stop()
        self.close()
        self.trace.emit("controller-crashed", self.cid, detail={"reason": "killed"})

    def fail(self) -> None:
        self.crash()


class SocketWorld(World):
    """One coordination server, the switches, and the controller replicas."""

    def __init__(self, cfg: ScenarioConfig) -> None:
        cfg.validate()
        self.cfg = cfg
        self.trace = TraceLog(clock=time.time_ns)
        self.coord = CoordServer(self.trace)
        self.switches: dict[str, SwitchServer] = {
            f"s{i}": SwitchServer(f"s{i}", self.trace) for i in range(cfg.n_switches)
        }
        ports = {sid: node.port for sid, node in self.switches.items()}
        self.ctrls: dict[str, SocketController] = {}
        for i in range(cfg.n_controllers):
            cid = f"c{i}"
            self.ctrls[cid] = SocketController(cid, cfg, self.coord.port, ports, self.trace)
            if i == 0:
                self._await_master(cid)

    def _await_master(self, cid: str, timeout_s: float = 5.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.ctrls[cid].replica.role == "master":
                return
            time.sleep(0.002)
        raise RuntimeError(f"{cid} never became master")

    def master_id(self) -> str | None:
        return self.coord.service.leader

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
        """Stop every node, then close the controllers' sockets, so every
        thread the world started ends without adding to the trace."""
        for ctrl in self.ctrls.values():
            ctrl.exec.stop()
        for node in self.switches.values():
            node.stop()
        self.coord.stop()
        for ctrl in self.ctrls.values():
            ctrl.close()


def run_socket_scenario(cfg: ScenarioConfig):
    """Drive a socket-mode run to quiescence. Fault plan support is limited
    to at-time master kills; the staged F1/F2/F3 hooks are a deterministic-
    transport facility."""
    from .checker import check_records
    from .scenario import ScenarioResult, build_workload

    for fault in cfg.fault_plan:
        if fault.point != "at-time" or not fault.target.startswith("master"):
            raise ValueError("socket transport supports only at-time master faults")
    world = SocketWorld(cfg)
    world.trace.emit("run-meta", "harness", detail={"config": cfg.to_json()})
    start = time.monotonic()
    kill_times = sorted(f.at_time_ms for f in cfg.fault_plan)
    killed = 0

    def sleep_until(time_ms: float) -> None:
        delay = time_ms / 1000.0 - (time.monotonic() - start)
        if delay > 0:
            time.sleep(delay)

    def kill_master() -> None:
        target = world.master_id()
        if target is not None:
            world.trace.emit("fault-injected", "harness", detail={"target": target, "point": "at-time"})
            world.ctrls[target].crash()

    try:
        for inj in build_workload(cfg):
            while killed < len(kill_times) and (time.monotonic() - start) * 1000.0 >= kill_times[killed]:
                kill_master()
                killed += 1
            sleep_until(inj.time_ms)
            world.trace.emit(
                "packet-injected", "harness", switch_id=inj.switch_id,
                detail={"in_port": inj.in_port, "payload": inj.payload.hex()},
            )
            world.switches[inj.switch_id].inject(inj.payload, inj.in_port)
        for kill_time in kill_times[killed:]:  # planned after the last packet
            sleep_until(kill_time)
            kill_master()
        budget = 5.0 + (len(cfg.fault_plan) + 1) * 4 * cfg.session_timeout_ms / 1000.0
        quiescent = world.wait_quiescent(budget)
    finally:
        world.stop()
    records = world.trace.as_dicts()
    report = check_records(records)
    return ScenarioResult(records, report, quiescent, world)
