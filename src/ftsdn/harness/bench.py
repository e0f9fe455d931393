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

The whole model lives here. Each built node's channel ends charge the
costs below, and a mode that drops a guarantee patches each built replica,
as the seeded mutations do: events mode sends plain commands instead of
bundles, and commands mode keeps the shared log out of the event path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ctrl import Replica
from ..events import NULL_TRACE, SwitchEvent
from ..ofwire import BundleCommit, FlowMod, PacketOut, ether_payload
from .config import ScenarioConfig
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

# service costs in ms of simulated time, charged to the node that does the work
COORD_REQUEST_MS = 0.050  # the service, per append request
COORD_PER_ENTRY_MS = 0.003  # the service, per appended entry
CTRL_FLUSH_FIXED_MS = 0.150  # a controller, per append it sends
CTRL_FLUSH_PER_ENTRY_MS = 0.002  # a controller, per entry it appends
CTRL_RECV_LOG_EVENT_MS = 0.003  # a controller, per event entry pushed to it
CTRL_RECV_LOG_PROCESSED_MS = 0.002  # a controller, per processed entry pushed to it
CTRL_SEND_MS = 0.001  # a controller, per message to a switch
CTRL_RECV_MS = 0.00005  # a controller, per message from a switch
SWITCH_SEND_MS = 0.001
SWITCH_RECV_MS = 0.002


def _ctrl_send_cost(msg) -> float:
    # a controller's coordination link carries dicts, its switch links OpenFlow messages
    if not isinstance(msg, dict):
        return CTRL_SEND_MS
    return CTRL_FLUSH_FIXED_MS + CTRL_FLUSH_PER_ENTRY_MS * len(msg["bodies"]) if msg["op"] == "append" else 0.0


def _ctrl_recv_cost(msg) -> float:
    if not isinstance(msg, dict):
        return CTRL_RECV_MS
    bodies = msg["bodies"] if msg["op"] == "entries" else ()
    return sum(CTRL_RECV_LOG_EVENT_MS if isinstance(b, SwitchEvent) else CTRL_RECV_LOG_PROCESSED_MS for b in bodies)


def _coord_recv_cost(msg: dict) -> float:
    return COORD_REQUEST_MS + COORD_PER_ENTRY_MS * len(msg["bodies"]) if msg["op"] == "append" else 0.0


def _charge_costs(world: DetWorld) -> None:
    for end in world.coord.exec.links:
        end.recv_cost = _coord_recv_cost
    for ctrl in world.ctrls.values():
        for end in ctrl.exec.links:
            end.send_cost = _ctrl_send_cost
            end.recv_cost = _ctrl_recv_cost
    for node in world.switches.values():
        for end in node.exec.links:
            end.send_cost = lambda msg: SWITCH_SEND_MS
            end.recv_cost = lambda msg: SWITCH_RECV_MS


def no_log(replica: Replica) -> None:
    """Commands mode: the master delivers each event as it assigns its id and
    appends nothing, neither the event nor its processed entry."""

    def deliver_now() -> None:
        batch, replica.pending_batch = replica.pending_batch, []
        for body in batch:
            if isinstance(body, SwitchEvent):
                replica._pending_keys.discard(body.occurrence)
                replica._finalize(body, replica._deliver(body, discard=False))

    replica._arm_or_flush = deliver_now


def no_bundles(replica: Replica) -> None:
    """Events mode: the master sends an event's commands plain, with no bundle
    and no commit marker, then logs its processed entry."""

    def send_plain(ev, staged) -> None:
        for switch_id, cmds in staged.items():
            if switch_id in replica.live_switches:
                for cmd in cmds:
                    replica.env.send_switch(switch_id, cmd)
        replica._enqueue_processed(ev.event_id)

    replica._finalize = send_plain


_VARIANTS = {MODE_EVENTS: no_bundles, MODE_COMMANDS: no_log, MODE_BOTH: lambda replica: None}


@dataclass
class BenchConfig:
    mode: str = MODE_BOTH
    n_switches: int = 16
    batch_size: int = 1000
    batch_time_ms: float = 50.0
    seed: int = 0

    def scenario(self) -> ScenarioConfig:
        """The deterministic world the benchmark runs."""
        return ScenarioConfig(
            n_switches=self.n_switches,
            n_controllers=N_CONTROLLERS,
            batch_size=self.batch_size,
            batch_time_ms=self.batch_time_ms,
            seed=self.seed,
            app="forwarding",
            session_timeout_ms=10_000.0,  # no failure detection on the hot path
            heartbeat_interval_ms=1_000.0,
        )

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.scenario().validate()


@dataclass
class BenchResult:
    mode: str
    n_switches: int
    batch_size: int
    responses: int
    elapsed_ms: float
    responses_per_sec: float
    saturated: bool


def bench(cfg: BenchConfig) -> BenchResult:
    cfg.validate()
    world = DetWorld(cfg.scenario(), trace=NULL_TRACE)
    _charge_costs(world)
    for ctrl in world.ctrls.values():
        _VARIANTS[cfg.mode](ctrl.replica)

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
        start_emitter(sid, offset=1.0 + i * interval / cfg.n_switches)

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
