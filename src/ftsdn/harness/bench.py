"""Throughput benchmark.

Switches emit events at a configured maximum rate while a counter tracks
committed responses, in the style of a commit-aware cbench: in the bundle
modes a response is a commit request reaching the switch, in events-only
mode a plain command. Runs on the deterministic transport with an explicit
service-cost model so the trends (batch amortization, per-guarantee cost
ordering, switch-count saturation) are reproducible consequences of the
protocol's message flows rather than host noise.

The cost constants put the coordination round trips and the per-message
work of the bundle envelope where a real deployment pays them; absolute
numbers are not meaningful, trends are.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ctrl import ReplicaConfig
from ..ofwire import BundleCommit, FlowMod, PacketOut, ether_payload
from .config import ScenarioConfig
from .runtime_det import CostModel
from .world_det import DetWorld

MODE_EVENTS = "events"
MODE_COMMANDS = "commands"
MODE_BOTH = "both"
MODES = (MODE_EVENTS, MODE_COMMANDS, MODE_BOTH)

N_CONTROLLERS = 2
RATE_PER_SWITCH = 16000.0  # offered events per second per switch
TARGET_RESPONSES = 4000
WARMUP_RESPONSES = 800
DEADLINE_MS = 60_000.0  # simulated time
_RESPONSES = (BundleCommit, PacketOut, FlowMod)  # commit requests and plain commands


class _NullTrace:
    def emit(self, kind: str, actor: str, **kw) -> None:
        return None

    def emitter(self, actor: str):
        return lambda kind, **kw: None


def bench_cost_model() -> CostModel:
    return CostModel(
        coord_request=0.050,
        coord_per_entry=0.003,
        ctrl_recv=0.00005,
        ctrl_recv_log_event=0.003,
        ctrl_recv_log_processed=0.002,
        ctrl_send=0.001,
        ctrl_flush_fixed=0.150,
        ctrl_flush_per_entry=0.002,
        switch_recv=0.002,
        switch_send=0.001,
    )


@dataclass
class BenchConfig:
    mode: str = MODE_BOTH
    n_switches: int = 16
    batch_size: int = 1000
    batch_time_ms: float = 50.0
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass
class BenchResult:
    mode: str
    n_switches: int
    batch_size: int
    responses: int
    elapsed_ms: float
    responses_per_sec: float
    saturated: bool


def _replica_cfg(cfg: BenchConfig) -> ReplicaConfig:
    return ReplicaConfig(
        batch_size=cfg.batch_size,
        batch_time_ms=cfg.batch_time_ms,
        replicate_events=cfg.mode in (MODE_EVENTS, MODE_BOTH),
        use_bundles=cfg.mode in (MODE_COMMANDS, MODE_BOTH),
    )


def bench(cfg: BenchConfig) -> BenchResult:
    cfg.validate()
    scenario = ScenarioConfig(
        n_switches=cfg.n_switches,
        n_controllers=N_CONTROLLERS,
        batch_size=cfg.batch_size,
        batch_time_ms=cfg.batch_time_ms,
        seed=cfg.seed,
        app="forwarding",
        session_timeout_ms=10_000.0,  # no failure detection on the hot path
        heartbeat_interval_ms=1_000.0,
    )
    world = DetWorld(scenario, trace=_NullTrace(), costs=bench_cost_model(), replica_cfg=_replica_cfg(cfg))

    response_times: list[float] = []
    for node in world.switches.values():
        orig = node.switch.on_message

        def counted(conn, msg, orig=orig):
            orig(conn, msg)
            if isinstance(msg, _RESPONSES):
                response_times.append(world.sched.now)

        node.switch.on_message = counted

    interval = 1000.0 / RATE_PER_SWITCH
    payloads = {
        sid: ether_payload(f"02:00:00:{i:02x}:00:01", f"02:00:00:{i:02x}:00:02", b"bench")
        for i, sid in enumerate(world.switches)
    }

    def start_emitter(sid: str, offset: float) -> None:
        node = world.switches[sid]

        def emit() -> None:
            node.switch.inject_packet(payloads[sid], in_port=2)

        # pre-schedule emissions in slices to keep the heap small
        state = {"t": offset}

        def pump() -> None:
            end = state["t"] + 50.0
            while state["t"] < end:
                node.exec.post(emit, arrive=state["t"])
                state["t"] += interval
            world.sched.schedule_at(end - 25.0, pump, maintenance=True)

        pump()

    for i, sid in enumerate(world.switches):
        start_emitter(sid, offset=1.0 + i * interval / max(1, cfg.n_switches))

    while len(response_times) < TARGET_RESPONSES and world.sched.now < DEADLINE_MS:
        world.sched.run(until=world.sched.now + 20.0, quiescent=None)

    n = len(response_times)
    if n <= WARMUP_RESPONSES + 1:
        return BenchResult(cfg.mode, cfg.n_switches, cfg.batch_size, n, 0.0, 0.0, False)
    hi = min(n, TARGET_RESPONSES)
    t0 = response_times[WARMUP_RESPONSES - 1]
    t1 = response_times[hi - 1]
    elapsed = t1 - t0
    rate = (hi - WARMUP_RESPONSES) / (elapsed / 1000.0) if elapsed > 0 else 0.0
    return BenchResult(
        cfg.mode,
        cfg.n_switches,
        cfg.batch_size,
        hi,
        elapsed,
        rate,
        saturated=hi >= TARGET_RESPONSES,
    )


def batching_sweep(batch_sizes=(10, 100, 1000), seed: int = 0) -> dict[int, BenchResult]:
    return {b: bench(BenchConfig(mode=MODE_BOTH, batch_size=b, seed=seed)) for b in batch_sizes}


def mode_sweep(seed: int = 0, batch_size: int = 1000) -> dict[str, BenchResult]:
    return {m: bench(BenchConfig(mode=m, batch_size=batch_size, seed=seed)) for m in MODES}


def scaling_sweep(switch_counts=(1, 4, 16, 64), seed: int = 0) -> dict[int, BenchResult]:
    return {
        n: bench(BenchConfig(mode=MODE_BOTH, n_switches=n, seed=seed))
        for n in switch_counts
    }
