import socket
import struct
import threading
import time
from functools import partial

from ftsdn import ofwire
from ftsdn.coord import ProcessedBody
from ftsdn.events import KIND_PACKET_IN, SwitchEvent
from ftsdn.harness.config import ScenarioConfig
from ftsdn.harness.core import Crashed, bind_controller
from ftsdn.harness.runtime_socket import CoordServer, SocketExecutor, SocketWorld, SwitchServer
from ftsdn.trace import TraceLog


def test_executor_records_an_escaping_exception_and_keeps_running():
    trace = TraceLog(clock=time.time_ns)
    executor = SocketExecutor("n0", trace)
    done = threading.Event()

    def fails() -> None:
        raise ValueError("boom")

    def dies() -> None:
        raise Crashed()

    try:
        executor.post(fails)
        executor.post(dies)
        executor.post(done.set)
        assert done.wait(2.0)
    finally:
        executor.stop()
        executor.thread.join(2.0)
    errors = [(r["actor"], r["detail"]) for r in trace.as_dicts() if r["kind"] == "executor-error"]
    assert errors == [("n0", {"error": "ValueError('boom')"})]
    assert len(trace.as_dicts()) == 1  # a fault hook's crash is not an error


def _wait_for(cond, timeout_s: float = 1.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not cond() and time.monotonic() < deadline:
        time.sleep(0.01)


def _dial(server, bind) -> socket.socket:
    """Connect to ``server``, whose end is a link adopted on its executor
    and bound by ``bind``; returns this end."""
    sock = socket.create_connection(server._listener.getsockname())
    far, _ = server._listener.accept()
    server.exec.adopt(far, server.wire, bind).result(1.0)
    sock.settimeout(1.0)
    return sock


def test_a_malformed_frame_is_recorded_and_closes_its_connection():
    trace = TraceLog(clock=time.time_ns)
    server = SwitchServer("s0", trace)
    sock = _dial(server, partial(bind_controller, server.switch, "c0"))
    try:
        assert server.switch.conns
        sock.sendall(struct.pack(">I", 1) + b"\xff")  # a frame with an unknown message tag
        assert sock.recv(1) == b""  # end of stream, not a timeout
        _wait_for(lambda: not server.switch.conns)
    finally:
        sock.close()
        server.exec.stop()
        server.exec.thread.join(2.0)
    kinds = [(r["kind"], r["actor"]) for r in trace.as_dicts()]
    assert kinds == [("executor-error", "s0"), ("conn-closed", "s0")]  # the switch ran its close handler


def test_an_entries_message_survives_the_json_link_byte_by_byte():
    packet_in = ofwire.PacketIn(0, 2, ofwire.ether_payload("02:00:00:01:00:02", "02:00:00:01:00:03"))
    bodies = [SwitchEvent("s1", 4, KIND_PACKET_IN, packet_in, event_id=3), ProcessedBody(2), ProcessedBody(3)]
    encode, decode_body = CoordServer.wire
    frame = encode({"op": "entries", "first": 7, "bodies": bodies})
    buf = ofwire.FrameBuffer(decode_body)
    msgs = []
    for i in range(len(frame)):
        msgs.extend(buf.feed(frame[i : i + 1]))
    assert msgs == [{"op": "entries", "first": 7, "bodies": bodies}]


def test_heartbeats_come_back_whole_however_the_reads_split_them():
    encode, decode_body = CoordServer.wire
    frame = encode({"op": "heartbeat"})
    heartbeat = {"op": "heartbeat"}
    buf = ofwire.FrameBuffer(decode_body)
    assert buf.feed(frame) == [heartbeat]
    assert buf.feed(frame[:3]) == []
    assert buf.feed(frame[3:]) == [heartbeat]
    assert buf.feed(frame + frame) == [heartbeat, heartbeat]


def test_a_coordination_message_that_does_not_parse_closes_its_connection():
    trace = TraceLog(clock=time.time_ns)
    server = CoordServer(trace)
    bad = [
        struct.pack(">I", 5) + b"{oops",
        struct.pack(">I", 2**32 - 1) + b"{",  # a length no message may declare: refused, not buffered
    ]
    try:
        for data in bad:
            sock = _dial(server, lambda link: None)  # no session: the first message already fails
            try:
                sock.sendall(data)
                assert sock.recv(1) == b""
            finally:
                sock.close()
    finally:
        server.exec.stop()
        server.exec.thread.join(2.0)
    errors = [(r["kind"], r["actor"]) for r in trace.as_dicts()]
    assert errors == [("executor-error", "coord")] * 2
    assert "exceeds limit" in trace.as_dicts()[1]["detail"]["error"]


def test_what_a_switch_sent_before_it_crashed_reaches_a_controller_that_writes_to_it():
    # a write to the closed switch fails and closes the controller's end
    # before it has read what the switch sent; that must still arrive
    world = SocketWorld(ScenarioConfig(transport="sockets", n_switches=1, n_controllers=2))
    c0 = world.ctrls["c0"]

    def write_to_the_switch() -> None:
        for _ in range(3):
            c0.send_switch("s0", ofwire.RoleAnnounce(1))
            time.sleep(0.01)

    try:
        world.stall("c0", 300.0)  # c0 reads nothing until the stall ends
        time.sleep(0.02)
        for _ in range(3):
            world.inject("s0", ofwire.ether_payload("02:00:00:00:00:02", "02:00:00:00:00:01", b"x"), 1)
        world.crash_switch("s0")
        c0.exec.post(write_to_the_switch)  # runs before c0 reads from the switch
        _wait_for(lambda: not c0.replica.live_switches)
    finally:
        world.stop()
    collected = [r for r in world.trace.as_dicts() if r["kind"] == "event-collected" and r["actor"] == "c0"]
    assert [r["detail"]["kind"] for r in collected] == ["packet-in"] * 3 + ["switch-failure"]
