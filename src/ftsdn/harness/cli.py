"""Command-line entry points.

    ftsdn run --config scenario.json [--seed N] [--trace out.jsonl]
    ftsdn bench --switches N --batch-size N --batch-time MS --mode events|commands|both
    ftsdn failover --session-timeout MS [--transport sockets|deterministic] [--trials N]
    ftsdn check --trace out.jsonl

Exit code 0 iff all checks pass.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from ..trace import TraceParseError, dump_jsonl
from .bench import MODES, BenchConfig, bench
from .checker import CheckError, check_trace
from .config import ScenarioConfig, load_config
from .failover import failover_gap_deterministic, failover_gap_socket
from .scenario import run_scenario


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    result = run_scenario(cfg)
    if args.trace:
        dump_jsonl(result.records, args.trace)
        print(f"trace written to {args.trace} ({len(result.records)} records)")
    if not result.quiescent:
        print("run did not reach quiescence before the deadline (partial trace)")
    for rec in result.missed_faults:
        print(f"planned fault missed its target: {rec['detail']}")
    print(result.report.format())
    return 0 if result.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = BenchConfig(
        mode=args.mode,
        n_switches=args.switches,
        batch_size=args.batch_size,
        batch_time_ms=args.batch_time,
        seed=args.seed,
    )
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    result = bench(cfg)
    print(
        f"mode={result.mode} switches={result.n_switches} batch={result.batch_size} "
        f"responses/sec={result.responses_per_sec:.0f} "
        f"(measured over {result.responses} responses, {result.elapsed_ms:.1f} ms simulated)"
    )
    return 0 if result.saturated else 1


def _cmd_failover(args: argparse.Namespace) -> int:
    try:
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        # the config fields the flags set, checked before the first trial runs
        ScenarioConfig(transport=args.transport, session_timeout_ms=args.session_timeout).validate()
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    gap = failover_gap_socket if args.transport == "sockets" else failover_gap_deterministic
    gaps = [gap(args.session_timeout, seed=args.seed + i) for i in range(args.trials)]
    print(f"gaps (ms): {', '.join(f'{g:.1f}' for g in gaps)}")
    print(f"median gap: {statistics.median(gaps):.1f} ms over {args.trials} trials")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        report = check_trace(args.trace)
    except (TraceParseError, CheckError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    print(report.format())
    return 0 if report.all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ftsdn", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario to quiescence and check its trace")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--trace", default=None, help="write the JSONL trace here")
    p_run.set_defaults(fn=_cmd_run)

    p_bench = sub.add_parser("bench", help="throughput benchmark on the deterministic transport")
    p_bench.add_argument("--switches", type=int, default=16)
    p_bench.add_argument("--batch-size", type=int, default=1000)
    p_bench.add_argument("--batch-time", type=float, default=50.0)
    p_bench.add_argument("--mode", choices=MODES, default="both")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(fn=_cmd_bench)

    p_fo = sub.add_parser("failover", help="measure the master-failure delivery gap")
    p_fo.add_argument("--session-timeout", type=float, default=500.0)
    p_fo.add_argument("--transport", choices=("sockets", "deterministic"), default="sockets")
    p_fo.add_argument("--trials", type=int, default=10)
    p_fo.add_argument("--seed", type=int, default=0)
    p_fo.set_defaults(fn=_cmd_failover)

    p_check = sub.add_parser("check", help="verify the correctness properties of a trace file")
    p_check.add_argument("--trace", required=True)
    p_check.set_defaults(fn=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
