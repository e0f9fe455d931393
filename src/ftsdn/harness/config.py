"""Scenario configuration and config-file parsing."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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

    def validate(self) -> None:
        if self.point not in _POINTS:
            raise ValueError(f"unknown fault point {self.point!r}")
        if self.point in (F1, F2, F3) and self.trigger_event is None:
            raise ValueError(f"fault point {self.point} needs trigger_event")
        if self.point in (AT_TIME, ZOMBIE) and self.at_time_ms is None:
            raise ValueError(f"fault point {self.point} needs at_time_ms")

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "point": self.point,
            "trigger_event": self.trigger_event,
            "at_time_ms": self.at_time_ms,
            "pause_ms": self.pause_ms,
        }

    @staticmethod
    def from_json(d: dict) -> "FaultInjection":
        return FaultInjection(
            target=d.get("target", "master"),
            point=d["point"],
            trigger_event=d.get("trigger_event"),
            at_time_ms=d.get("at_time_ms"),
            pause_ms=d.get("pause_ms"),
        )


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
    # test-only knob: pin latency of specific channels, keyed "src->dst"
    latency_overrides: dict = field(default_factory=dict)

    @property
    def f(self) -> int:
        return self.n_controllers - 1

    def validate(self) -> None:
        if self.n_controllers < 1:
            raise ValueError("need at least one controller (n_controllers = f + 1)")
        if self.n_switches < 1:
            raise ValueError("need at least one switch")
        if self.transport not in ("deterministic", "sockets"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.transport == "deterministic" and self.seed is None:
            raise ValueError("deterministic transport requires a seed")
        for fault in self.fault_plan:
            fault.validate()

    def to_json(self) -> dict:
        d = {
            "n_switches": self.n_switches,
            "n_controllers": self.n_controllers,
            "f": self.f,
            "batch_size": self.batch_size,
            "batch_time_ms": self.batch_time_ms,
            "session_timeout_ms": self.session_timeout_ms,
            "heartbeat_interval_ms": self.heartbeat_interval_ms,
            "seed": self.seed,
            "transport": self.transport,
            "app": self.app,
            "app_params": self.app_params,
            "packets_per_switch": self.packets_per_switch,
            "inter_arrival_ms": self.inter_arrival_ms,
            "hosts_per_switch": self.hosts_per_switch,
            "fault_plan": [f.to_json() for f in self.fault_plan],
        }
        return d


_INT_KEYS = {"n_switches", "n_controllers", "batch_size", "seed", "packets_per_switch", "hosts_per_switch"}
_FLOAT_KEYS = {
    "batch_time_ms",
    "session_timeout_ms",
    "heartbeat_interval_ms",
    "inter_arrival_ms",
    "workload_start_ms",
}
_STR_KEYS = {"transport", "app"}


def config_from_dict(d: dict) -> ScenarioConfig:
    cfg = ScenarioConfig()
    for key, value in d.items():
        if key == "f":
            continue  # derived from n_controllers
        if key == "fault_plan":
            cfg.fault_plan = [FaultInjection.from_json(x) for x in value]
        elif key in ("app_params", "latency_overrides"):
            setattr(cfg, key, dict(value))
        elif hasattr(cfg, key):
            setattr(cfg, key, value)
        else:
            raise ValueError(f"unknown config key {key!r}")
    cfg.validate()
    return cfg


def load_config(path: str) -> ScenarioConfig:
    """Load a scenario config from JSON or flat ``key=value`` lines."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return config_from_dict(json.loads(text))
    d: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in _INT_KEYS:
            d[key] = int(raw)
        elif key in _FLOAT_KEYS:
            d[key] = float(raw)
        elif key in _STR_KEYS:
            d[key] = raw
        else:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
    return config_from_dict(d)
