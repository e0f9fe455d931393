"""Failover timing: kill the master mid-stream and measure the delivery gap
at the switch, from the last pre-crash packet-out to the first one issued by
the new master."""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, field

from .. import ofwire
from .config import FaultInjection, ScenarioConfig
from .scenario import run_scenario

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


def _stream_gap(stream_ms: float, inter_arrival_ms: float, plan: list[FaultInjection], **cfg_fields) -> float:
    """Run a one-switch stream under ``plan`` and return the largest gap, in
    ms, between the data PacketOuts the switch executed."""
    cfg = ScenarioConfig(
        n_switches=1,
        n_controllers=2,
        app="forwarding",
        batch_time_ms=5.0,  # keep the stream smooth so the gap is the outage
        inter_arrival_ms=inter_arrival_ms,
        packets_per_switch=int(stream_ms / inter_arrival_ms),
        fault_plan=plan,
        **cfg_fields,
    )
    result = run_scenario(cfg)
    if not result.passed:
        raise RuntimeError("failover run did not quiesce with every property passing")
    scale = 1e-6 if cfg.transport == "sockets" else 1.0  # socket traces stamp ns
    return largest_gap(data_packet_out_times(result.records, "s0", scale))


def failover_gap_deterministic(
    session_timeout_ms: float = 500.0,
    seed: int = 0,
    kill_at_ms: float = 250.0,
    inter_arrival_ms: float = 5.0,
    inject_fault: bool = True,
) -> float:
    plan = [FaultInjection(target="master", point="at-time", at_time_ms=kill_at_ms)] if inject_fault else []
    return _stream_gap(
        kill_at_ms + session_timeout_ms + 600.0, inter_arrival_ms, plan,
        session_timeout_ms=session_timeout_ms, heartbeat_interval_ms=1.0, seed=seed,
    )


def failover_gap_socket(
    session_timeout_ms: float = 500.0,
    inter_arrival_ms: float = 5.0,
    kill_after_ms: float = 600.0,
    seed: int = 0,
) -> float:
    # Start from a clean heap, not the garbage of earlier work in this process:
    # a full collection of a large heap holds the interpreter lock for longer
    # than the session timeout, which would expire the surviving replica too.
    gc.collect()
    plan = [FaultInjection(target="master", point="at-time", at_time_ms=kill_after_ms)]
    return _stream_gap(
        kill_after_ms + session_timeout_ms + 800.0, inter_arrival_ms, plan, transport="sockets",
        session_timeout_ms=session_timeout_ms,
        heartbeat_interval_ms=2.0,  # detection then lags the crash by ~the full timeout
        seed=seed,
    )


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
