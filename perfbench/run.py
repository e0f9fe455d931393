"""Real-time benchmark of the ftsdn control plane (wall and CPU clocks).

    python3 perfbench/run.py --workload det-forward --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` beside this directory, never from an installed copy. The workload
and its inputs come from ``--workload`` and ``--seed``. Runs repeat until
``--seconds`` have passed and medians are reported. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` untraced and traced runs alternate and it carries the
per-layer metrics, measured by wrappers installed from outside the program.
Each invocation also writes ``.bench_out/<workload>-seed<n>-trace<t>.json``
with the environment, the full config and every figure, and, when traced,
the spans of the last traced run. Exit status 0 means the benchmark ran;
``correct`` says whether every run passed the checks.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def _import_program() -> None:
    """Put the checkout's sources first on the path and make sure they are
    the ones imported."""
    if not (SRC / "ftsdn" / "__init__.py").is_file():
        raise SystemExit(f"error: no ftsdn sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ftsdn

    if SRC not in Path(ftsdn.__file__).resolve().parents:
        raise SystemExit(f"error: ftsdn imported from {ftsdn.__file__}, not from {SRC}")


def _median(values) -> float:
    return statistics.median(values)


def _mean(values) -> float:
    return sum(values) / len(values)


def _git_sha() -> str | None:
    """The checkout's commit, or None outside a git repository. Git is kept
    from looking above the checkout for an enclosing repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ftsdn").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _pin_to_one_cpu() -> None:
    """Keep the process, and the threads it starts, on one CPU.

    On a virtual machine whose host is shared, the socket world's threads
    spread over two virtual CPUs stalled each other whenever the host paused
    one of them: a session's CPU seconds then rose by up to 40% and its median
    latency from 6 to 47 ms. Pinned sessions, alternating with those, stayed
    within 12% of each other in CPU seconds and below 11 ms in median
    latency."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _environment(args, cfg) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "gc_thresholds": gc.get_threshold(),
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": dataclasses.asdict(cfg),
    }


# ---------------------------------------------------------------------------
# per-run figures


def _latency_figures(lat: list[float]) -> dict:
    from measure import percentile, supports, tail_percentile

    tail = tail_percentile(len(lat))
    return {
        "samples": len(lat),
        "p50_ms": percentile(lat, "50") if lat else None,
        "p99_ms": percentile(lat, "99") if supports(len(lat), "99") else None,
        "tail_pct": tail,
        "tail_ms": percentile(lat, tail) if tail else None,
    }


def _promotion_ms(res) -> list[float]:
    """Ms from each leader-elected record of the measured phase to the new
    master's promotion-complete record, on the run's clock."""
    out = []
    pending: dict[str, float] = {}
    for rec, t in zip(res.records, res.stamp_ms):
        kind = rec["kind"]
        if kind == "leader-elected" and t >= res.measure_start_ms:
            pending[rec["detail"]["controller"]] = t
        elif kind == "promotion-complete" and rec["actor"] in pending:
            out.append(t - pending.pop(rec["actor"]))
    return out


def _layer_figures(res, probes, analysis) -> dict:
    from measure import percentile
    from workloads import CHECKER_KINDS

    tot = probes.totals()

    def self_s(name):
        return tot.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    pkts = res.attempted
    kinds = Counter(r["kind"] for r in res.records)
    n_records = len(res.records)
    frames = probes.frames_fed
    waits = sorted(w * 1000.0 for w in probes.exec_waits)
    late = sorted(res.gen_late_ms)
    promotions = _promotion_ms(res)
    return {
        "sched.events": probes.scheduled,
        "sched.events_per_pkt": probes.scheduled / pkts,
        "sched.self_s": self_s("sched.run"),
        "ctrl.on_switch_message_calls": calls("ctrl.on_switch_message"),
        "ctrl.on_switch_message_s": self_s("ctrl.on_switch_message"),
        "ctrl.on_log_entry_calls": calls("ctrl.on_log_entry"),
        "ctrl.on_log_entry_s": self_s("ctrl.on_log_entry"),
        "ctrl.bundles_sent": kinds["commit-sent"],
        "ctrl.bundles_resent": kinds["probe-resend"],
        "ctrl.duplicates_dropped": kinds["duplicate-dropped"],
        "ctrl.promotion_ms": max(promotions, default=0.0),
        "coord.append_calls": calls("coord.append"),
        "coord.append_s": self_s("coord.append"),
        "coord.entries_per_append": kinds["log-append"] / max(1, calls("coord.append")),
        "coord.rejected_appends": kinds["append-rejected"],
        "coord.sessions_expired": analysis["sessions_expired"],
        "coord.spurious_expiries": analysis["spurious_expiries"],
        "switchsim.on_message_calls": calls("switchsim.on_message"),
        "switchsim.on_message_s": self_s("switchsim.on_message"),
        "switchsim.lookup_calls": calls("switchsim.lookup"),
        "switchsim.lookup_s": self_s("switchsim.lookup"),
        "switchsim.rules_max": res.rules_max,
        "switchsim.table_hit_ratio": probes.lookup_hits / max(1, calls("switchsim.lookup")),
        "apps.on_event_calls": calls("apps.on_event"),
        "apps.on_event_s": self_s("apps.on_event"),
        "trace.emit_calls": calls("trace.emit"),
        "trace.emit_s": self_s("trace.emit"),
        "trace.records_per_pkt": n_records / pkts,
        "trace.checker_kind_ratio": sum(kinds[k] for k in CHECKER_KINDS) / n_records,
        "trace.as_dicts_s": res.as_dicts_s,
        "ofwire.to_json_calls": calls("ofwire.to_json"),
        "ofwire.to_json_s": self_s("ofwire.to_json"),
        "ofwire.encode_calls": calls("ofwire.encode"),
        "ofwire.encode_us": 1e6 * self_s("ofwire.encode") / max(1, calls("ofwire.encode")),
        "ofwire.decode_us": 1e6 * self_s("ofwire.decode") / max(1, frames),
        "ofwire.frames_per_feed": frames / max(1, calls("ofwire.feed")),
        "ofwire.feed_us_per_frame": 1e6 * self_s("ofwire.feed") / max(1, frames),
        "socket.exec_wait_ms_p50": percentile(waits, "50") if waits else 0.0,
        "socket.exec_wait_ms_p99": percentile(waits, "99") if waits else 0.0,
        "checker.records_per_s": n_records / _median(res.check_s),
        "gc.pause_s": self_s("gc"),
        "gc.gen2_pause_max_ms": probes.gc_gen2_max_s * 1000.0,
        "gc.collections": probes.gc_collections,
        "harness.gen_late_max_ms": late[-1] if late else 0.0,
        "harness.gen_late_p99_ms": percentile(late, "99") if late else 0.0,
        "bench.run_s": res.run_s,
        "bench.spans": probes.span_count(),
    }


# ---------------------------------------------------------------------------
# driving the runs


def _summarise(res, probes) -> dict:
    """Everything later steps need from one run, so the run's trace can be
    freed before the next run starts."""
    a = res.analyse()
    summary = {
        "traced": probes is not None,
        "setup_s": res.setup_s,
        "run_s": res.run_s,
        "cpu_s": res.cpu_s,
        "check_s": res.check_s,
        "pkts_per_cpu_s": res.attempted / res.cpu_s,
        "attempted": res.attempted,
        "served": a["served"],
        "failed": a["failed"],
        "run_ok": a["run_ok"],
        "quiescent": res.quiescent,
        "checker_pass": res.checker_pass,
        "faults_planned": res.planned_faults,
        "faults_fired": a["faults_fired"],
        "leader_at_end": res.leader_at_end,
        "spurious_expiries": a["spurious_expiries"],
        "latency": _latency_figures(a["latencies_ms"]),
        "failover_gap_ms": a["failover_gap_ms"],
    }
    if probes is not None:
        summary["layers"] = _layer_figures(res, probes, a)
    if not res.checker_pass:
        print(res.report_text, file=sys.stderr)
    return summary


def _run_workload(cfg, seconds: float, traced: bool):
    """Repeat runs until ``seconds`` have passed; when traced, traced runs
    alternate with untraced ones. Returns the run summaries and the probes
    of the last traced run."""
    from probes import Probes
    from workloads import run_once

    runs: list[dict] = []
    last_probes = None
    start = perf_counter()
    while True:
        n_traced = sum(r["traced"] for r in runs)
        probes = Probes() if traced and n_traced < len(runs) - n_traced else None
        gc.collect()  # each run starts from a clean heap, not the last run's garbage
        runs.append(_summarise(run_once(cfg, probes), probes))
        if probes is not None:
            last_probes = probes
        if perf_counter() - start >= seconds and (not traced or last_probes is not None):
            return runs, last_probes


def _end_to_end(plain: list[dict]) -> dict:
    return {
        "setup_s": _median([s for r in plain for s in r["setup_s"]]),
        "pkts_per_cpu_s": _median([r["pkts_per_cpu_s"] for r in plain]),
        "failover_gap_ms": _median([r["failover_gap_ms"] for r in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {k: _mean([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
    out["bench.trace_overhead_ratio"] = _median([r["cpu_s"] for r in traced]) / _median(
        [r["cpu_s"] for r in plain]
    )
    return out


def _declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from measure import failed_ratio
    from workloads import WORKLOADS

    make_config = WORKLOADS.get(args.workload)
    if make_config is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    traced = bool(args.trace)
    cfg = make_config(args.seed)
    units = _declared_units("per_layer" if traced else "end_to_end")
    _pin_to_one_cpu()

    runs, last_probes = _run_workload(cfg, args.seconds, traced)
    plain = [r for r in runs if not r["traced"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["run_ok"] for r in runs)
    if traced:
        figures = _per_layer(plain, [r for r in runs if r["traced"]])
    else:
        figures = _end_to_end(plain)
    if set(figures) != set(units):
        raise SystemExit(f"error: measured {sorted(figures)} but BENCHMARK.json declares {sorted(units)}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in figures.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "env": _environment(args, cfg),
        "result": result,
        "failed_ratio": failed_ratio(attempted, failed),
        "runs": runs,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    if last_probes is not None:
        last_probes.write_spans(f"{stem}-spans.tsv.gz")

    for k, m in metrics.items():
        print(f"{k:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"runs={len(runs)} attempted={attempted} failed={failed} correct={correct}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
