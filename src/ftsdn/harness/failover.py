"""Failover timing: kill the master mid-stream and measure the delivery gap
at the switch, from the last pre-crash packet-out to the first one issued by
the new master."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

from .. import ofwire
from .config import FaultInjection, ScenarioConfig

_MARKER_HEX = ofwire.MARKER_MAGIC.hex()


@dataclass
class FailoverResult:
    gaps_ms: list[float] = field(default_factory=list)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.gaps_ms)


def data_packet_out_times(records: list[dict], switch_id: str, scale: float = 1.0) -> list[float]:
    """Timestamps (ms) of non-marker PacketOut executions at one switch."""
    times = []
    for rec in records:
        if rec.get("kind") != "switch-exec" or rec.get("actor") != switch_id:
            continue
        cmd = rec.get("detail", {}).get("command", {})
        if cmd.get("type") != "PacketOut":
            continue
        if cmd.get("payload", "").startswith(_MARKER_HEX):
            continue
        times.append(rec["timestamp"] * scale)
    return times


def largest_gap(times: list[float]) -> float:
    if len(times) < 2:
        return 0.0
    return max(b - a for a, b in zip(times, times[1:]))


def failover_gap_deterministic(
    session_timeout_ms: float = 500.0,
    seed: int = 0,
    kill_at_ms: float = 250.0,
    inter_arrival_ms: float = 5.0,
    inject_fault: bool = True,
) -> float:
    from .scenario import run_deterministic

    stream_ms = kill_at_ms + session_timeout_ms + 600.0
    plan = [FaultInjection(target="master", point="at-time", at_time_ms=kill_at_ms)] if inject_fault else []
    cfg = ScenarioConfig(
        n_switches=1,
        n_controllers=2,
        app="forwarding",
        session_timeout_ms=session_timeout_ms,
        heartbeat_interval_ms=1.0,
        batch_time_ms=5.0,  # keep the stream smooth so the gap is the outage
        inter_arrival_ms=inter_arrival_ms,
        packets_per_switch=int(stream_ms / inter_arrival_ms),
        seed=seed,
        fault_plan=plan,
    )
    result = run_deterministic(cfg)
    if not result.quiescent:
        raise RuntimeError("failover run did not quiesce")
    times = data_packet_out_times(result.records, "s0")
    return largest_gap(times)


def failover_gap_socket(
    session_timeout_ms: float = 500.0,
    inter_arrival_ms: float = 5.0,
    kill_after_ms: float = 600.0,
    seed: int = 0,
) -> float:
    from .runtime_socket import SocketWorld

    cfg = ScenarioConfig(
        n_switches=1,
        n_controllers=2,
        transport="sockets",
        session_timeout_ms=session_timeout_ms,
        heartbeat_interval_ms=2.0,  # detection then lags the crash by ~the full timeout
        batch_time_ms=5.0,
        seed=seed,
    )
    # Start from a clean heap, not the garbage of earlier work in this process:
    # a full collection of a large heap holds the interpreter lock for longer
    # than the session timeout, which would expire the surviving replica too.
    gc.collect()
    world = SocketWorld(cfg)
    master = world.ctrls["c0"]
    try:
        payload = ofwire.ether_payload("02:00:00:00:00:01", "02:00:00:00:00:02", b"stream")
        start = time.monotonic()
        stream_s = (kill_after_ms + session_timeout_ms + 800.0) / 1000.0
        killed = False
        i = 0
        while time.monotonic() - start < stream_s:
            if not killed and (time.monotonic() - start) * 1000.0 >= kill_after_ms:
                master.crash()
                killed = True
            world.switches["s0"].inject(payload, in_port=2)
            i += 1
            target = start + i * inter_arrival_ms / 1000.0
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        # wait for the new master to push packet-outs through the switch;
        # in-flight commits from the dead one land within a few ms of the
        # kill, so recovery means traffic well past the detection window
        recovered_after = (master.crash_time_ms or 0.0) + session_timeout_ms / 2.0
        deadline = time.monotonic() + 10.0 * session_timeout_ms / 1000.0
        recovered = False
        while time.monotonic() < deadline:
            times = data_packet_out_times(world.trace.as_dicts(), "s0", scale=1e-6)
            if times and times[-1] > recovered_after:
                recovered = True
                break
            time.sleep(0.05)
        time.sleep(0.3)
    finally:
        world.stop()
    if not recovered:
        raise RuntimeError("no recovery within 10x the session timeout")
    times = data_packet_out_times(world.trace.as_dicts(), "s0", scale=1e-6)
    return largest_gap(times)


def failover_timing(
    session_timeout_ms: float = 500.0,
    trials: int = 10,
    transport: str = "sockets",
    seed: int = 0,
) -> FailoverResult:
    result = FailoverResult()
    for i in range(trials):
        if transport == "sockets":
            result.gaps_ms.append(failover_gap_socket(session_timeout_ms, seed=seed + i))
        else:
            result.gaps_ms.append(failover_gap_deterministic(session_timeout_ms, seed=seed + i))
    return result
