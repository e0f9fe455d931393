"""Failover timing: kill the master mid-stream and measure the delivery gap
at the switch, from the last pre-crash packet-out to the first one issued by
the new master."""

from __future__ import annotations

import gc

from .. import ofwire
from .config import FaultInjection, ScenarioConfig
from .scenario import run_scenario

_MARKER_HEX = ofwire.MARKER_MAGIC.hex()

INTER_ARRIVAL_MS = 5.0
DET_KILL_AT_MS = 250.0
SOCKET_KILL_AT_MS = 600.0


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


def _stream_gap(stream_ms: float, plan: list[FaultInjection], **cfg_fields) -> float:
    """Run a one-switch stream under ``plan`` and return the largest gap, in
    ms, between the data PacketOuts the switch executed."""
    cfg = ScenarioConfig(
        n_switches=1,
        n_controllers=2,
        app="forwarding",
        batch_time_ms=5.0,  # keep the stream smooth so the gap is the outage
        inter_arrival_ms=INTER_ARRIVAL_MS,
        packets_per_switch=int(stream_ms / INTER_ARRIVAL_MS),
        fault_plan=plan,
        **cfg_fields,
    )
    result = run_scenario(cfg)
    if not result.passed:
        raise RuntimeError("failover run did not quiesce with every property passing")
    scale = 1e-6 if cfg.transport == "sockets" else 1.0  # socket traces stamp ns
    return largest_gap(data_packet_out_times(result.records, "s0", scale))


def failover_gap_deterministic(session_timeout_ms: float = 500.0, seed: int = 0) -> float:
    plan = [FaultInjection(target="master", point="at-time", at_time_ms=DET_KILL_AT_MS)]
    return _stream_gap(
        DET_KILL_AT_MS + session_timeout_ms + 600.0, plan,
        session_timeout_ms=session_timeout_ms, heartbeat_interval_ms=1.0, seed=seed,
    )


def failover_gap_socket(session_timeout_ms: float = 500.0, seed: int = 0) -> float:
    # Start from a clean heap, not the garbage of earlier work in this process:
    # a full collection of a large heap holds the interpreter lock for longer
    # than the session timeout, which would expire the surviving replica too.
    gc.collect()
    plan = [FaultInjection(target="master", point="at-time", at_time_ms=SOCKET_KILL_AT_MS)]
    return _stream_gap(
        SOCKET_KILL_AT_MS + session_timeout_ms + 800.0, plan, transport="sockets",
        session_timeout_ms=session_timeout_ms,
        heartbeat_interval_ms=2.0,  # detection then lags the crash by ~the full timeout
        seed=seed,
    )
