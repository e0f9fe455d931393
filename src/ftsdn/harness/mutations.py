"""Seeded protocol bugs for checker-soundness testing.

Each mutation patches one deliberate defect into an otherwise healthy world;
the checker must flag at least one property with a counterexample, and the
unmutated twin of the same scenario must pass everything. A defect that shows
only when the latency draws open a race sweeps several seeds of its scenario:
every twin must pass, and the checker must flag the defect on at least one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..ctrl import ROLE_MASTER
from ..ofwire import MARKER_MAGIC, PacketIn, RoleAnnounce
from .config import AT_TIME, FaultInjection, ScenarioConfig
from .world_det import DetWorld


@dataclass
class Mutation:
    name: str
    description: str
    config: ScenarioConfig
    expected_failures: tuple[str, ...]
    apply: Callable[[DetWorld], None]
    seeds: range | None = None  # seeds of ``config`` to sweep; None runs its own seed only

    def configs(self) -> list[ScenarioConfig]:
        """The scenarios to run: ``config`` at each swept seed."""
        if self.seeds is None:
            return [self.config]
        return [replace(self.config, seed=s) for s in self.seeds]


def _base_cfg(**kw) -> ScenarioConfig:
    defaults = dict(
        n_switches=1,
        n_controllers=2,
        packets_per_switch=30,
        inter_arrival_ms=5.0,
        session_timeout_ms=100.0,
        seed=77,
        app="forwarding",
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def _duplicate_commit(world: DetWorld) -> None:
    # the master re-commits event 5's commands in a second, fresh bundle
    for node in world.ctrls.values():
        replica = node.replica
        orig = replica._send_bundle
        state = {"fired": False}

        def wrapped(eid, switch_id, cmds, orig=orig, state=state):
            orig(eid, switch_id, cmds)
            if eid == 5 and not state["fired"]:
                state["fired"] = True
                orig(eid, switch_id, cmds)

        replica._send_bundle = wrapped


def _skipped_bundle(world: DetWorld) -> None:
    # the master never sends the bundle of the first s1 event from id 5 on, nor waits for it
    state = {"fired": False}
    for node in world.ctrls.values():
        orig = node.replica._send_bundle

        def wrapped(eid, switch_id, cmds, orig=orig):
            if switch_id == "s1" and eid >= 5 and not state["fired"]:
                state["fired"] = True
                return
            orig(eid, switch_id, cmds)

        node.replica._send_bundle = wrapped


def _skipped_marker(world: DetWorld) -> None:
    # bundles go out without the trailing commit marker
    for node in world.ctrls.values():
        orig = node.replica._bundle_contents
        node.replica._bundle_contents = lambda eid, cmds, orig=orig: orig(eid, cmds)[:-1]


def _marker_not_last(world: DetWorld) -> None:
    # the commit marker goes into each bundle ahead of the commands
    for node in world.ctrls.values():
        orig = node.replica._bundle_contents

        def marker_first(eid, cmds, orig=orig):
            *staged, marker = orig(eid, cmds)
            return [marker, *staged]

        node.replica._bundle_contents = marker_first


def _lost_buffered_event(world: DetWorld) -> None:
    # the slave silently drops one buffered occurrence
    node = world.ctrls["c1"]
    replica = node.replica
    orig = replica._ingest

    def wrapped(ev, orig=orig, replica=replica):
        if replica.role != ROLE_MASTER and ev.occurrence == ("s0", 3):
            return
        orig(ev)

    replica._ingest = wrapped


def _non_fifo_delivery(world: DetWorld) -> None:
    # the master reorders two same-switch events before assigning ids
    node = world.ctrls["c0"]
    replica = node.replica
    orig = replica._ingest
    held: list = []

    def wrapped(ev, orig=orig, replica=replica):
        if replica.role == ROLE_MASTER and ev.occurrence == ("s0", 3):
            held.append(ev)
            return
        orig(ev)
        if held and ev.occurrence == ("s0", 4):
            orig(held.pop())

    replica._ingest = wrapped


def _double_delivery(world: DetWorld) -> None:
    # the master runs the pipeline twice for event 5
    node = world.ctrls["c0"]
    replica = node.replica
    orig = replica._deliver
    state = {"fired": False}

    def wrapped(ev, discard, orig=orig, replica=replica, state=state):
        staged = orig(ev, discard)
        if ev.event_id == 5 and not state["fired"]:
            state["fired"] = True
            replica.delivered_upto = ev.event_id - 1
            staged = orig(ev, discard)
        return staged

    replica._deliver = wrapped


def _stale_epoch_append(world: DetWorld) -> None:
    # fencing off: a paused ex-master's stale-epoch append lands in the log
    world.coord.service.fence = lambda session_id, epoch, now: None


def _switch_ignores_role(world: DetWorld) -> None:
    # switches drop role announcements, so a stalled master that wakes up
    # still believing it leads can commit behind the new master's probe
    for node in world.switches.values():
        switch = node.switch
        orig = switch.on_message

        def wrapped(conn, msg, orig=orig):
            if not isinstance(msg, RoleAnnounce):
                orig(conn, msg)

        switch.on_message = wrapped


def _uncounted_markers(world: DetWorld) -> None:
    # c1 leaves commit markers out of its arrival count: its buffered occurrences drift from the logged ones
    replica = world.ctrls["c1"].replica
    orig = replica.on_switch_message

    def wrapped(switch_id, msg):
        orig(switch_id, msg)
        if isinstance(msg, PacketIn) and msg.payload.startswith(MARKER_MAGIC):
            replica._arrivals[switch_id] -= 1

    replica.on_switch_message = wrapped


def catalog() -> list[Mutation]:
    return [
        Mutation(
            "duplicate-commit",
            "master commits one event's commands twice",
            _base_cfg(),
            ("T3",),
            _duplicate_commit,
        ),
        Mutation(
            "skipped-marker",
            "bundles lack the trailing commit marker",
            _base_cfg(),
            ("T3",),
            _skipped_marker,
        ),
        Mutation(
            "lost-buffered-event",
            "slave drops a buffered event that a dying master never logged",
            _base_cfg(fault_plan=[FaultInjection(target="master", point="F1", trigger_event=3)]),
            ("T2",),
            _lost_buffered_event,
        ),
        Mutation(
            "non-fifo-delivery",
            "master assigns ids out of one switch's arrival order",
            _base_cfg(),
            ("T4",),
            _non_fifo_delivery,
        ),
        Mutation(
            "double-delivery",
            "master feeds one event to the apps twice",
            _base_cfg(),
            ("T2", "T3"),
            _double_delivery,
        ),
        Mutation(
            "stale-epoch-append",
            "coordination service accepts appends from a deposed epoch",
            _base_cfg(
                packets_per_switch=60,
                fault_plan=[FaultInjection(target="master", point="zombie", at_time_ms=150.0, pause_ms=400.0)],
            ),
            ("T2",),
            _stale_epoch_append,
        ),
        Mutation(
            "marker-not-last",
            "master puts the commit marker before the bundle's commands",
            _base_cfg(),
            ("T3",),
            _marker_not_last,
        ),
        Mutation(
            "switch-ignores-role",
            "switches never fence a deposed master",
            _base_cfg(
                n_switches=2,
                packets_per_switch=80,
                inter_arrival_ms=3.0,
                batch_time_ms=5.0,
                seed=0,
                app="learning",
                fault_plan=[FaultInjection(target="master", point="zombie", at_time_ms=60.0, pause_ms=150.0)],
            ),
            ("T3",),
            _switch_ignores_role,
            # the woken master commits behind the probe only when the latency
            # draws queue an entries push ahead of the leader change
            seeds=range(20),
        ),
        Mutation(
            "skipped-bundle",
            "master drops one bundle to a switch that crashes long after",
            _base_cfg(n_switches=2, packets_per_switch=40, inter_arrival_ms=3.0, seed=0,
                      fault_plan=[FaultInjection(target="switch:s1", point=AT_TIME, at_time_ms=250.0)]),
            ("T3",),
            _skipped_bundle,
        ),
        Mutation("uncounted-markers", "a slave leaves commit markers out of a switch's arrival count",
                 _base_cfg(fault_plan=[FaultInjection(target="master", point=AT_TIME, at_time_ms=100.0)]),
                 ("T2",), _uncounted_markers),
    ]


def by_name(name: str) -> Mutation:
    for m in catalog():
        if m.name == name:
            return m
    raise KeyError(f"unknown mutation {name!r}")
