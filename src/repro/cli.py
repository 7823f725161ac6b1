"""Command-line interface for running experiments and regenerating figures.

Usage (after ``pip install -e .``)::

    python -m repro protocols
    python -m repro run --protocol tempo --sites 5 --clients 8 --conflict 0.02
    python -m repro figure fig6_tail       # prints results/fig6_tail.txt
    python -m repro throughput --protocol tempo --payload 4096 --conflict 0.02
    python -m repro scenarios --select crash --protocol tempo
    python -m repro check --protocol tempo

The CLI is a thin wrapper over :mod:`repro.cluster` and
:mod:`repro.experiments`; everything it prints can also be obtained
programmatically.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.core.config import ProtocolConfig
from repro.experiments.goldens import GOLDENS
from repro.experiments.throughput_model import max_throughput
from repro.metrics.report import format_table
from repro.protocols.registry import protocol_names
from repro.simulator.latency import EC2_REGIONS


def _add_run_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "run", help="run one experiment on the discrete-event simulator"
    )
    parser.add_argument("--protocol", default="tempo", choices=protocol_names())
    parser.add_argument("--sites", type=int, default=5, help="number of sites (replicas per shard)")
    parser.add_argument("--faults", type=int, default=1, help="tolerated failures f")
    parser.add_argument("--shards", type=int, default=1, help="number of shards (1 = full replication)")
    parser.add_argument("--clients", type=int, default=8, help="closed-loop clients per site")
    parser.add_argument("--conflict", type=float, default=0.02, help="microbenchmark conflict rate")
    parser.add_argument("--payload", type=int, default=100, help="payload size in bytes")
    parser.add_argument("--duration", type=float, default=3_000.0, help="simulated duration (ms)")
    parser.add_argument("--warmup", type=float, default=500.0, help="warm-up period (ms)")
    parser.add_argument("--workload", default="micro", choices=("micro", "ycsbt"))
    parser.add_argument("--zipf", type=float, default=0.5, help="zipf exponent for YCSB+T")
    parser.add_argument("--writes", type=float, default=0.05, help="write ratio for YCSB+T")
    parser.add_argument("--seed", type=int, default=1)


def _add_figure_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "figure",
        help="recompute one of the paper's tables/figures as results/NAME.txt holds it",
    )
    parser.add_argument("name", choices=tuple(GOLDENS), help="results file stem")


def _add_throughput_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "throughput", help="query the analytical maximum-throughput model"
    )
    parser.add_argument("--protocol", default="tempo", choices=protocol_names())
    parser.add_argument("--sites", type=int, default=5)
    parser.add_argument("--faults", type=int, default=1)
    parser.add_argument("--payload", type=float, default=4096.0)
    parser.add_argument("--conflict", type=float, default=0.02)
    parser.add_argument("--shards", type=int, default=1)


def _add_scenarios_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "scenarios",
        help="run the fault-injection scenario matrix (trace-certified)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="TOKEN",
        help="only run cells whose name or shape matches TOKEN (repeatable); "
        "e.g. --select crash --select zipf for the CI smoke slice",
    )
    parser.add_argument(
        "--protocol",
        action="append",
        dest="protocols",
        choices=protocol_names(),
        help="restrict to one or more protocols (repeatable)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the matching cells without running them"
    )


def _add_check_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "check",
        help="run the correctness analyzer: repo lints plus a trace-checked simulation",
    )
    parser.add_argument("--protocol", default="tempo", choices=protocol_names())
    parser.add_argument("--sites", type=int, default=3)
    parser.add_argument("--faults", type=int, default=1)
    parser.add_argument("--clients", type=int, default=2, help="closed-loop clients per site")
    parser.add_argument("--conflict", type=float, default=0.5, help="conflict rate (high by default: conflicts exercise the ordering invariants)")
    parser.add_argument("--duration", type=float, default=1_000.0, help="simulated duration (ms)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--skip-lint", action="store_true", help="only run the trace-checked simulation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tempo (EuroSys'21) reproduction - experiments and figures",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("protocols", help="list the available protocols")
    _add_run_parser(subparsers)
    _add_figure_parser(subparsers)
    _add_throughput_parser(subparsers)
    _add_scenarios_parser(subparsers)
    _add_check_parser(subparsers)
    return parser


def _command_protocols() -> int:
    for name in protocol_names():
        print(name)
    return 0


def _command_run(args) -> int:
    sites = EC2_REGIONS[: args.sites]
    config = ExperimentConfig(
        protocol=args.protocol,
        num_sites=args.sites,
        faults=args.faults,
        num_shards=args.shards,
        clients_per_site=args.clients,
        conflict_rate=args.conflict,
        payload_size=args.payload,
        workload=args.workload,
        zipf=args.zipf,
        write_ratio=args.writes,
        duration_ms=args.duration,
        warmup_ms=args.warmup,
        seed=args.seed,
        sites=sites,
    )
    result = run_experiment(config)
    rows = [
        {
            "site": site,
            "mean_ms": round(histogram.mean(), 1),
            "p99_ms": round(histogram.percentile(99.0), 1) if len(histogram) else 0.0,
            "samples": len(histogram),
        }
        for site, histogram in result.per_site_latency.items()
    ]
    print(format_table(rows, title=f"{args.protocol} f={args.faults}: per-site latency"))
    print(
        f"\noverall: mean {result.mean_latency():.1f} ms, "
        f"p99 {result.percentile(99.0):.1f} ms, "
        f"throughput {result.throughput_ops:.1f} ops/s, "
        f"completed {result.completed}"
    )
    return 0


def _command_figure(args) -> int:
    golden = GOLDENS[args.name]
    print(golden.table(golden.rows()))
    return 0


def _command_throughput(args) -> int:
    config = ProtocolConfig(num_processes=args.sites, faults=args.faults)
    result = max_throughput(
        args.protocol,
        config=config,
        payload=args.payload,
        conflict_rate=args.conflict,
        num_shards=args.shards,
    )
    rows = [
        {
            "protocol": args.protocol,
            "max_kops": round(result["max_ops_per_second"] / 1000.0, 1),
            "bottleneck": result["bottleneck"],
            "cpu": round(result["cpu_utilization"] * 100.0, 1),
            "net_out": round(result["net_out_utilization"] * 100.0, 1),
        }
    ]
    print(format_table(rows, title="modelled saturation throughput"))
    return 0


def _command_scenarios(args) -> int:
    from repro.experiments.scenarios import (
        TITLE,
        ScenarioOptions,
        build_matrix,
        legend,
        run_cell,
    )

    options = ScenarioOptions(select=args.select)
    if args.protocols:
        options.protocols = tuple(args.protocols)
    cells = build_matrix(options)
    if not cells:
        print("no cells match the selection")
        return 1
    if args.list:
        for cell in cells:
            print(f"{cell.shape:9s} {cell.protocol:7s} {cell.name}")
        return 0
    rows = [run_cell(cell) for cell in cells]
    print(format_table(rows, title=TITLE, footnote=legend(rows)))
    return 0


def _command_check(args) -> int:
    failed = False
    if not args.skip_lint:
        from repro.analysis import lint

        if lint.main([]) != 0:
            failed = True
        print()
    config = ExperimentConfig(
        protocol=args.protocol,
        num_sites=args.sites,
        faults=args.faults,
        clients_per_site=args.clients,
        conflict_rate=args.conflict,
        duration_ms=args.duration,
        warmup_ms=min(200.0, args.duration / 4.0),
        seed=args.seed,
        sites=EC2_REGIONS[: args.sites],
        record_execution_trace=True,
    )
    try:
        result = run_experiment(config)
    except AssertionError as failure:
        print(failure)
        return 1
    report = result.trace_report
    print(
        f"{args.protocol} r={args.sites} f={args.faults} "
        f"conflict={args.conflict}: {report.summary()}"
    )
    for violation in report.violations:
        print(f"  {violation}")
    return 1 if failed or not report.ok else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command == "protocols":
        return _command_protocols()
    if args.command == "run":
        return _command_run(args)
    if args.command == "figure":
        return _command_figure(args)
    if args.command == "throughput":
        return _command_throughput(args)
    if args.command == "scenarios":
        return _command_scenarios(args)
    if args.command == "check":
        return _command_check(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
