"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field

import pytest

from ftsdn.harness.bench import batching_sweep, mode_sweep, scaling_sweep
from ftsdn.harness.config import FaultInjection, ScenarioConfig
from ftsdn.harness.failover import failover_gap_deterministic, failover_gap_socket
from ftsdn.harness.mutations import catalog
from ftsdn.harness.scenario import run_scenario

from latency_pins import pin_latencies

SEEDS = range(20)
APPS = ("forwarding", "learning")
POINTS = ("F1", "F2", "F3")


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def matrix_cfg(app: str, seed: int, fault_plan=None) -> ScenarioConfig:
    # 2 controllers, 2 switches, 200 packets in total, deterministic transport
    return ScenarioConfig(
        n_switches=2,
        n_controllers=2,
        packets_per_switch=100,
        inter_arrival_ms=2.0,
        app=app,
        seed=seed,
        fault_plan=fault_plan or [],
    )


@dataclass
class RunStats:
    app: str
    seed: int
    point: str
    trigger_kind: str
    trigger_id: int
    quiescent: bool
    properties: dict
    f3_commit_counts: dict = field(default_factory=dict)
    f1_log_count: int | None = None
    f1_survivor_deliveries: dict = field(default_factory=dict)


def _summarize(result, app, seed, point, trigger_kind, trigger_id) -> RunStats:
    stats = RunStats(
        app,
        seed,
        point,
        trigger_kind,
        trigger_id,
        result.quiescent,
        {p.name: p.passed for p in result.report.properties},
    )
    records = result.records
    crashed = {r["actor"] for r in records if r["kind"] == "controller-crashed"}
    survivors = [c for c in ("c0", "c1") if c not in crashed]
    if point == "F3":
        for rec in records:
            if rec["kind"] == "commit-sent" and rec.get("event_id") == trigger_id:
                key = rec["switch_id"]
                stats.f3_commit_counts[key] = stats.f3_commit_counts.get(key, 0) + 1
    if point == "F1":
        occurrence = None
        for rec in records:
            if rec["kind"] == "id-assigned" and rec.get("event_id") == trigger_id and rec["actor"] not in survivors:
                occurrence = (rec["switch_id"], rec["switch_seq"])
                break
        if occurrence is not None:
            logged_ids = [
                rec["event_id"]
                for rec in records
                if rec["kind"] == "log-append"
                and rec.get("switch_id") == occurrence[0]
                and rec.get("switch_seq") == occurrence[1]
            ]
            stats.f1_log_count = len(logged_ids)
            if len(logged_ids) == 1:
                eid = logged_ids[0]
                for c in survivors:
                    stats.f1_survivor_deliveries[c] = sum(
                        1
                        for rec in records
                        if rec["kind"] == "delivered" and rec["actor"] == c and rec.get("event_id") == eid
                    )
    return stats


@pytest.fixture(scope="module")
def fault_matrix():
    t0 = time.time()
    runs: list[RunStats] = []
    for app in APPS:
        for seed in SEEDS:
            dry = run_scenario(matrix_cfg(app, seed))
            assert dry.passed, f"fault-free twin failed for {app} seed {seed}"
            total_events = dry.report.summary["events"]
            triggers = {"first": 1, "mid": max(1, total_events // 2), "last": total_events}
            for point in POINTS:
                for kind, trig in triggers.items():
                    plan = [FaultInjection(target="master", point=point, trigger_event=trig)]
                    result = run_scenario(matrix_cfg(app, seed, plan))
                    runs.append(_summarize(result, app, seed, point, kind, trig))
    return runs, time.time() - t0


def test_criterion_1_fault_case_matrix(fault_matrix):
    runs, elapsed = fault_matrix
    n = len(runs)
    bad = [r for r in runs if not (r.quiescent and all(r.properties.values()))]
    ok = n >= 360 and not bad and elapsed < 120.0
    verdict(
        1,
        ok,
        f"fault-case matrix: {n} runs (F1/F2/F3 x first/mid/last x 20 seeds x 2 apps), "
        f"{len(bad)} failures, T1-T4 all pass, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_exactly_once_commands_under_f3(fault_matrix):
    runs, _ = fault_matrix
    f3_runs = [r for r in runs if r.point == "F3"]
    violations = []
    for r in f3_runs:
        if not r.f3_commit_counts:
            violations.append((r.app, r.seed, r.trigger_kind, "no commit observed"))
        for switch_id, count in r.f3_commit_counts.items():
            if count != 1:
                violations.append((r.app, r.seed, r.trigger_kind, f"{count} commits on {switch_id}"))
    verdict(
        2,
        len(f3_runs) >= 120 and not violations,
        f"exactly-once commands under F3: {len(f3_runs)} runs, probed event committed once, "
        f"zero resends ({len(violations)} violations)",
    )


def test_criterion_3_exactly_once_events_under_f1(fault_matrix):
    runs, _ = fault_matrix
    f1_runs = [r for r in runs if r.point == "F1"]
    violations = []
    for r in f1_runs:
        if r.f1_log_count != 1:
            violations.append((r.app, r.seed, r.trigger_kind, f"log count {r.f1_log_count}"))
        elif not r.f1_survivor_deliveries or any(v != 1 for v in r.f1_survivor_deliveries.values()):
            violations.append((r.app, r.seed, r.trigger_kind, f"deliveries {r.f1_survivor_deliveries}"))
    verdict(
        3,
        len(f1_runs) >= 120 and not violations,
        f"exactly-once events under F1: {len(f1_runs)} runs, buffered event logged once and "
        f"delivered once per surviving replica ({len(violations)} violations)",
    )


def test_criterion_4_total_order(fault_matrix):
    runs, _ = fault_matrix
    t1_bad = [r for r in runs if not r.properties.get("T1", False)]
    # the adversarial two-switch race: controllers see opposite arrival orders
    cfg = ScenarioConfig(
        n_switches=2,
        n_controllers=2,
        packets_per_switch=2,
        seed=21,
    )
    pins = {("s0", "c0"): 1.0, ("s1", "c0"): 2.0, ("s0", "c1"): 6.0, ("s1", "c1"): 1.0}
    adv = run_scenario(cfg, mutate=pin_latencies(pins))
    arrivals = {"c0": [], "c1": []}
    for rec in adv.records:
        if rec["kind"] == "event-collected" and rec["detail"]["kind"] == "packet-in":
            arrivals[rec["actor"]].append((rec["switch_id"], rec["switch_seq"]))
    raced = arrivals["c0"] != arrivals["c1"]
    ok = not t1_bad and adv.passed and raced
    verdict(
        4,
        ok,
        f"total order: T1 holds over all {len(runs)} matrix runs and under the adversarial "
        f"two-switch interleaving (arrival orders differ: {raced})",
    )


@pytest.fixture(scope="module")
def batching_results():
    t0 = time.time()
    results = batching_sweep(batch_sizes=(10, 100, 1000))
    return results, time.time() - t0


def test_criterion_5_batching_trend(batching_results):
    results, elapsed = batching_results
    tp = {b: r.responses_per_sec for b, r in results.items()}
    step1 = tp[100] / tp[10] - 1.0
    step2 = tp[1000] / tp[100] - 1.0
    ok = all(r.saturated for r in results.values()) and step1 >= 0.10 and step2 >= 0.10 and elapsed < 180.0
    verdict(
        5,
        ok,
        "batching trend: "
        + ", ".join(f"batch {b}: {tp[b]:.0f}/s" for b in (10, 100, 1000))
        + f" (steps +{step1:.0%}, +{step2:.0%}; {elapsed:.1f}s < 180s)",
    )


def test_criterion_6_consistency_mode_ordering():
    results = mode_sweep()
    tp = {m: r.responses_per_sec for m, r in results.items()}
    gap_ce = tp["commands"] / tp["events"] - 1.0
    gap_eb = tp["events"] / tp["both"] - 1.0
    ok = gap_ce >= 0.05 and gap_eb >= 0.05
    verdict(
        6,
        ok,
        f"consistency modes: commands {tp['commands']:.0f}/s > events {tp['events']:.0f}/s "
        f"> both {tp['both']:.0f}/s (gaps +{gap_ce:.0%}, +{gap_eb:.0%}, both >= 5%)",
    )


def test_criterion_7_switch_scaling():
    results = scaling_sweep(switch_counts=(1, 4, 16, 64))
    tp = {n: r.responses_per_sec for n, r in results.items()}
    rising = tp[4] >= tp[1] * 0.95 and tp[16] >= tp[4] * 0.95
    flat = abs(tp[64] - tp[16]) <= 0.10 * tp[16]
    verdict(
        7,
        rising and flat,
        "switch scaling: "
        + ", ".join(f"{n} sw: {tp[n]:.0f}/s" for n in (1, 4, 16, 64))
        + f" (non-decreasing to 16: {rising}; 16 vs 64 within 10%: {flat})",
    )


def test_criterion_8_failover_timing():
    det_gaps = [failover_gap_deterministic(session_timeout_ms=500.0, seed=s) for s in range(3)]
    det_small = [failover_gap_deterministic(session_timeout_ms=100.0, seed=s) for s in range(3)]
    det_ok = all(500.0 <= g <= 800.0 for g in det_gaps) and all(100.0 <= g <= 160.0 for g in det_small)
    failover_gap_socket(session_timeout_ms=500.0, seed=99)  # warm the thread machinery up
    gaps = [failover_gap_socket(session_timeout_ms=500.0, seed=i) for i in range(10)]
    median = statistics.median(gaps)
    sock_ok = 500.0 <= median <= 800.0
    verdict(
        8,
        det_ok and sock_ok,
        f"failover timing: socket median {median:.0f}ms of {[f'{g:.0f}' for g in gaps]} in [500, 800]; "
        f"deterministic gaps {[f'{g:.0f}' for g in det_gaps]} in [500, 800] and "
        f"{[f'{g:.0f}' for g in det_small]} in [100, 160]",
    )


def test_criterion_9_checker_soundness():
    mutations = catalog()
    problems = []
    for m in mutations:
        caught = False
        for cfg in m.configs():
            clean = run_scenario(cfg)
            if not (clean.quiescent and clean.report.all_pass):
                problems.append(f"{m.name}: clean twin failed at seed {cfg.seed}")
                continue
            mutated = run_scenario(cfg, mutate=m.apply)
            failing = [p for p in mutated.report.properties if not p.passed]
            if not failing:
                continue
            if not all(p.counterexamples for p in failing):
                problems.append(f"{m.name}: failure without counterexample at seed {cfg.seed}")
            elif not any(p.name in m.expected_failures for p in failing):
                problems.append(f"{m.name}: unexpected failure set {[p.name for p in failing]} at seed {cfg.seed}")
            else:
                caught = True
        if not caught:
            problems.append(f"{m.name}: checker missed the defect")
    verdict(
        9,
        len(mutations) >= 9 and not problems,
        f"checker soundness: {len(mutations)} seeded defects each caught with a counterexample, "
        f"clean twins all pass ({problems or 'no problems'})",
    )


def _determinism_shapes() -> list[ScenarioConfig]:
    return [
        matrix_cfg("learning", 5, [FaultInjection(target="master", point="F2", trigger_event=9)]),
        matrix_cfg("forwarding", 6),
        ScenarioConfig(n_switches=3, n_controllers=3, packets_per_switch=30, seed=7,
                       fault_plan=[FaultInjection(target="master", point="F3", trigger_event=20)]),
    ]


def _trace_bytes(cfg: ScenarioConfig) -> bytes:
    result = run_scenario(cfg)
    return b"\n".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")).encode() for r in result.records
    )


def test_criterion_10_determinism():
    ok = all(_trace_bytes(cfg) == _trace_bytes(cfg) for cfg in _determinism_shapes())
    verdict(10, ok, "determinism: identical (config, seed) reproduce byte-identical traces")


# sha256 of each criterion-10 trace, records joined by newlines. A change to the
# scheduler, the channels or the trace store must leave every byte of these alone;
# a change that alters the protocol on purpose updates them and says why.
# The two fault shapes changed when a new master began to announce its role at
# the start of its promotion instead of at its end: the announcements now leave
# before the barrier probe and the resends, so the switches log role-announce
# earlier and the shared latency RNG is drawn in a different order. The
# fault-free shape promotes before any packet arrives and is unchanged.
# They changed again when a logged copy began to take its event out of the
# slave buffer: a promotion no longer walks already-logged events and writes a
# second `buffer-filtered` record (one without an event id) for each. The
# traces lost 51 and 75 such records and are otherwise unchanged.
# All three changed when the run-meta record began to hold every config field:
# it gained workload_start_ms and latency_overrides, and every other record
# is byte-identical.
# All three changed when the service began to push each append to a replica as
# one `entries` message instead of one message per entry. Each message draws
# one latency from the shared RNG, so fewer messages shift every later draw
# and every arrival time. Each switch still executes the same data packet-outs
# in the same order, and the record counts by kind are unchanged except in
# the learning shape: its master now crashes at F2 (72.76 ms instead of
# 73.29 ms) before s0's packet-in 27 reaches it, so the trace has one
# event-collected and one id-assigned record fewer. At the old timing that
# event got an id in a batch that was never appended.
# All three changed when a handler's sends to one peer began to arrive as one
# delivery: it leaves with the last of them and draws one latency, the latest
# of as many per-message latencies as it carries. Fewer draws shift every
# later draw and move arrival times. Each switch still executes the same data
# packet-outs in the same order, and the record counts by kind are unchanged
# except in the learning shape: its master now crashes at F2 at 73.02 ms
# instead of 72.76 ms, after s1's packet-in 27 reaches it, so the trace has
# one event-collected and one id-assigned record more, for an event that got
# an id in a batch that was never appended.
# All three changed when the config lost its latency_overrides field: only the
# run-meta record changed, and every other record is byte-identical.
GOLDEN_TRACE_SHA256 = [
    "9f480ba7ed983fe81bfb124d07716ff100c85ad53b7930d4c740012bdad7fc28",
    "5ea89c8a2fd51ef9c81d31ebcc913d9e577c2d147337a569502fb4dce176274a",
    "e53b4ba3350a27f7f9b752a4b7208287caa830476ae9b32c30d9383d95f4a364",
]


def test_criterion_10_golden_trace_digest():
    digests = [hashlib.sha256(_trace_bytes(cfg) + b"\n").hexdigest() for cfg in _determinism_shapes()]
    assert digests == GOLDEN_TRACE_SHA256
