"""Sample deterministic applications.

Apps see only the event and a write context; they know nothing about roles,
bundles, or the shared log. Identical delivered event sequences must produce
identical write sequences, which is what lets every replica converge.
"""

from __future__ import annotations

from typing import Protocol

from . import ofwire
from .events import KIND_PACKET_IN, SwitchEvent
from .ofwire import Action, FlowMod, MatchKey, PacketIn, PacketOut


class AppContextLike(Protocol):
    def write(self, switch_id: str, message: ofwire.OfMessage) -> None: ...


class App(Protocol):
    name: str

    def on_event(self, event: SwitchEvent, ctx: AppContextLike) -> None: ...


class ForwardingApp:
    """Forward every data packet out a statically mapped port.

    Never touches the flow table, so every packet keeps producing an event;
    used by the failover-timing scenarios.
    """

    name = "forwarding"

    def __init__(self, port_map: dict[str, int] | None = None, default_port: int = 2) -> None:
        self.port_map = dict(port_map or {})
        self.default_port = default_port

    def on_event(self, event: SwitchEvent, ctx: AppContextLike) -> None:
        if event.kind != KIND_PACKET_IN or not isinstance(event.message, PacketIn):
            return
        port = self.port_map.get(event.switch_id, self.default_port)
        ctx.write(event.switch_id, PacketOut((Action.output(port),), event.message.payload))


class LearningSwitchApp:
    """Classic MAC-learning switch: learn source port, install a rule once
    the destination is known, flood otherwise."""

    name = "learning"

    def __init__(self, flow_priority: int = 10) -> None:
        self.flow_priority = flow_priority
        self.tables: dict[str, dict[str, int]] = {}

    def on_event(self, event: SwitchEvent, ctx: AppContextLike) -> None:
        if event.kind != KIND_PACKET_IN or not isinstance(event.message, PacketIn):
            return
        msg = event.message
        table = self.tables.setdefault(event.switch_id, {})
        eth = ofwire.parse_ether(msg.payload)
        if eth is None:
            ctx.write(event.switch_id, PacketOut((Action.output(ofwire.FLOOD_PORT),), msg.payload))
            return
        dst, src = eth
        table[src] = msg.in_port
        out_port = table.get(dst)
        if out_port is None:
            ctx.write(event.switch_id, PacketOut((Action.output(ofwire.FLOOD_PORT),), msg.payload))
            return
        ctx.write(
            event.switch_id,
            FlowMod(MatchKey(eth_dst=dst), (Action.output(out_port),), self.flow_priority),
        )
        ctx.write(event.switch_id, PacketOut((Action.output(out_port),), msg.payload))


_APPS = {app.name: app for app in (ForwardingApp, LearningSwitchApp)}


def make_app(name: str, params: dict | None = None) -> App:
    """The app ``name``, built with ``params`` as its keyword arguments; an
    unknown app, or a parameter it does not take or cannot use, raises ValueError."""
    if name not in _APPS:
        raise ValueError(f"unknown app {name!r}")
    try:
        return _APPS[name](**(params or {}))
    except TypeError as exc:
        raise ValueError(str(exc)) from exc
