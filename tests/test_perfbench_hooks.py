"""The benchmark in ``perfbench/`` reaches into the program: it wraps named
functions with probes and tears socket worlds down through their listeners.
These tests fail when a rename breaks one of those hooks, before a benchmark
run would."""

import sys
import threading
from functools import partial
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402
from probes import SPANNED, Probes  # noqa: E402

from ftsdn import ofwire  # noqa: E402
from ftsdn.harness.config import ScenarioConfig  # noqa: E402
from ftsdn.harness.runtime_socket import SocketWorld  # noqa: E402
from ftsdn.harness.scenario import _inject, build_workload  # noqa: E402
from ftsdn.harness.world_det import DetWorld  # noqa: E402


def test_every_probed_name_resolves_and_is_put_back():
    originals = [owner.__dict__[attr] for owner, attr, _ in SPANNED]
    probes = Probes()
    try:
        probes.install()  # a probed name that is gone raises here
        assert all(owner.__dict__[attr] is not fn for (owner, attr, _), fn in zip(SPANNED, originals))
    finally:
        probes.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _ in SPANNED] == originals


def test_a_probed_socket_world_is_seen_and_torn_down():
    threads_before = threading.active_count()
    probes = Probes()
    try:
        probes.install()
        world = SocketWorld(ScenarioConfig(transport="sockets", n_switches=1, n_controllers=2))
        try:
            world.inject("s0", ofwire.ether_payload("02:00:00:00:00:02", "02:00:00:00:00:01", b"x"), 1)
            assert world.wait_quiescent(5.0)
        finally:
            workloads._teardown(world, threads_before)
    finally:
        probes.uninstall()
    calls = {name: agg["calls"] for name, agg in probes.totals().items()}
    # each feed decodes through the probe exactly the frames that have fully arrived
    assert probes.frames_fed > 0
    assert calls["ofwire.decode"] == probes.frames_fed
    assert threading.active_count() == threads_before


def test_the_emit_probe_sees_every_record_of_a_world_built_before_it():
    # perfbench installs its probes after set-up, so a node that kept a bound
    # ``emit`` would write past the probe
    cfg = ScenarioConfig(n_switches=2, n_controllers=2, packets_per_switch=10, seed=1)
    world = DetWorld(cfg)
    for inj in build_workload(cfg):
        world.at(inj.time_ms, partial(_inject, world, inj))
    before = len(world.trace.as_dicts())
    probes = Probes()
    try:
        probes.install()
        assert world.run(2_000.0)
    finally:
        probes.uninstall()
    world.stop()
    written = len(world.trace.as_dicts()) - before
    kinds = {r["kind"] for r in world.trace.as_dicts()[before:]}
    assert {"switch-exec", "log-append", "delivered"} <= kinds
    assert probes.totals()["trace.emit"]["calls"] == written


def test_the_lookup_probe_counts_flow_table_hits():
    # perfbench's switchsim.table_hit_ratio counts the lookups that return a rule
    cfg = ScenarioConfig(n_switches=2, n_controllers=2, packets_per_switch=40, seed=1, app="learning")
    world = DetWorld(cfg)
    for inj in build_workload(cfg):
        world.at(inj.time_ms, partial(_inject, world, inj))
    probes = Probes()
    try:
        probes.install()
        assert world.run(2_000.0)
    finally:
        probes.uninstall()
    world.stop()
    lookups = probes.totals()["switchsim.lookup"]["calls"]
    assert 0 < probes.lookup_hits < lookups
