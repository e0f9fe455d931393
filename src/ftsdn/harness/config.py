"""Scenario configuration and config-file parsing."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from ..apps import make_app

F1 = "F1"  # before the event's log append
F2 = "F2"  # after the log append, before the bundle commit send
F3 = "F3"  # after the bundle commit send, before the processed append
AT_TIME = "at-time"
ZOMBIE = "zombie"  # stop heartbeating and stall, without dying

_POINTS = {F1, F2, F3, AT_TIME, ZOMBIE}


@dataclass
class FaultInjection:
    target: str = "master"  # "master" or "switch:<id>"
    point: str = AT_TIME
    trigger_event: int | None = None  # event id, for F1/F2/F3
    at_time_ms: float | None = None  # for at-time / zombie
    pause_ms: float | None = None  # zombie stall duration

    def validate(self, n_switches: int) -> None:
        if self.point not in _POINTS:
            raise ValueError(f"unknown fault point {self.point!r}")
        if self.target != "master":
            if self.target not in {f"switch:s{i}" for i in range(n_switches)}:
                raise ValueError(f"fault target {self.target!r} is not master or switch:s<i> with i < {n_switches}")
            if self.point != AT_TIME:
                raise ValueError(f"a switch fault needs point {AT_TIME}, got {self.point}")
        if self.point in (F1, F2, F3) and self.trigger_event is None:
            raise ValueError(f"fault point {self.point} needs trigger_event")
        if self.point in (AT_TIME, ZOMBIE) and self.at_time_ms is None:
            raise ValueError(f"fault point {self.point} needs at_time_ms")
        if self.pause_ms is not None and self.pause_ms <= 0:  # a stall of no time would expire nothing
            raise ValueError(f"pause_ms must be positive, got {self.pause_ms}")


@dataclass
class ScenarioConfig:
    n_switches: int = 2
    n_controllers: int = 2  # = f + 1
    batch_size: int = 1000
    batch_time_ms: float = 50.0
    session_timeout_ms: float = 500.0
    heartbeat_interval_ms: float = 2.0
    seed: int = 0
    transport: str = "deterministic"  # "deterministic" | "sockets"
    app: str = "forwarding"
    app_params: dict = field(default_factory=dict)
    packets_per_switch: int = 100
    inter_arrival_ms: float = 2.0
    hosts_per_switch: int = 4
    workload_start_ms: float = 20.0
    fault_plan: list[FaultInjection] = field(default_factory=list)

    @property
    def f(self) -> int:
        return self.n_controllers - 1

    def validate(self) -> None:
        if self.n_controllers < 1:
            raise ValueError("need at least one controller (n_controllers = f + 1)")
        # a workload host's MAC holds its switch's index and its own number in one byte each
        if not 1 <= self.n_switches <= 256:
            raise ValueError("need 1 to 256 switches")
        if not 2 <= self.hosts_per_switch <= 255:
            raise ValueError("need 2 to 255 hosts per switch: each packet goes from one host to another")
        if self.batch_size < 1 or self.batch_time_ms < 0:
            raise ValueError(f"need batch_size >= 1, batch_time_ms >= 0; got {self.batch_size}, {self.batch_time_ms}")
        if self.heartbeat_interval_ms <= 0:
            # a heartbeat due at once re-arms at the same instant, so simulated time never moves
            raise ValueError(f"heartbeat_interval_ms must be positive, got {self.heartbeat_interval_ms}")
        if self.session_timeout_ms <= 0:
            # every session would expire at once, and the leader with it
            raise ValueError(f"session_timeout_ms must be positive, got {self.session_timeout_ms}")
        if self.transport not in ("deterministic", "sockets"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.transport == "deterministic" and self.seed is None:
            raise ValueError("deterministic transport requires a seed")
        for fault in self.fault_plan:
            fault.validate(self.n_switches)
        try:
            make_app(self.app, self.app_params)
        except ValueError as exc:
            raise ValueError(f"app {self.app!r} with app_params {self.app_params!r}: {exc}") from exc

    def to_json(self) -> dict:
        """Every field, plus the derived ``f``; ``config_from_dict`` reads it back."""
        return {**dataclasses.asdict(self), "f": self.f}


def config_from_dict(d: dict) -> ScenarioConfig:
    """Build a config from ``to_json`` output: exactly the dataclass fields,
    and ``f``, which is derived and ignored. An unknown key or a value of
    the wrong type, in the config or in a fault, raises ValueError."""
    d = _checked(ScenarioConfig, {k: v for k, v in d.items() if k != "f"})
    plan = [FaultInjection(**_checked(FaultInjection, entry)) for entry in d.pop("fault_plan", [])]
    cfg = ScenarioConfig(**d, fault_plan=plan)
    cfg.validate()
    return cfg


# Keyed by annotation text, which is a field's type under ``from __future__ import annotations``:
# the types a JSON value may have, and the parser of a key=value line (None: a line may not set it).
_FIELD_TYPES = {
    "int": ((int,), int),
    "float": ((int, float), float),
    "str": ((str,), str),
    "dict": ((dict,), None),
    "list[FaultInjection]": ((list,), None),
    "int | None": ((int, type(None)), None),
    "float | None": ((int, float, type(None)), None),
}


def _checked(cls, d) -> dict:
    """``d``, if each of its keys is a field of ``cls`` holding a value of the
    field's type; otherwise ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"bad {cls.__name__}: expected an object, got {d!r}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    for key, value in d.items():
        if key not in types:
            raise ValueError(f"bad {cls.__name__}: unknown field {key!r}")
        allowed, _ = _FIELD_TYPES[types[key]]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(f"bad {cls.__name__}: {key} must be {types[key]}, got {value!r}")
    return d


def load_config(path: str) -> ScenarioConfig:
    """Load a scenario config from JSON or flat ``key=value`` lines. A line
    sets an int, float or str field, parsed by the field's annotation."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return config_from_dict(json.loads(text))
    types = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}
    d: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        _, parse = _FIELD_TYPES.get(types.get(key), (None, None))
        if parse is None:
            raise ValueError(f"config line {line_no}: {key!r} is not an int, float or str field")
        d[key] = parse(raw)
    return config_from_dict(d)
