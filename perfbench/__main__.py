"""``python -m perfbench``: run every workload, trace every workload, compare.

    PYTHONPATH=src python -m perfbench run   [--seed N] [--out A.json]
    PYTHONPATH=src python -m perfbench trace [--seed N] [--out T.json]
    PYTHONPATH=src python -m perfbench agree A.json B.json

``run`` and ``trace`` loop ``perfbench/run.py`` over the workloads with the
``run_seconds`` of ``BENCHMARK.json``; ``run`` is the untraced pass
(end-to-end metrics, output checks), ``trace`` the separate traced pass
(per-layer metrics).  Both exit non-zero if any output check fails and say
which.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from perfbench import agree
from perfbench.run import format_metric, measure, output_problems, result, trace
from perfbench.workloads import WORKLOADS


def run_all(traced: bool, seed: int, out: str) -> int:
    with open(agree.BENCHMARK_JSON, encoding="utf-8") as handle:
        seconds = float(json.load(handle)["run_seconds"])
    results = {}
    for name, workload in WORKLOADS.items():
        metrics, runs = (trace if traced else measure)(name, seed, seconds)
        problems = output_problems(name, runs)
        print(f"== {name}: {workload.why}")
        for metric, entry in metrics.items():
            print("  " + format_metric(metric, entry))
        for problem in problems:
            print(f"  FAILED: {problem}")
        results[name] = result(metrics, runs, problems)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(
                {"seed": seed, "seconds": seconds, "traced": traced, "workloads": results},
                handle, indent=1,
            )
    return 0 if all(entry["correct"] for entry in results.values()) else 1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        sub = commands.add_parser(command)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--out", default="", help="write the result set to this JSON file")
    sub = commands.add_parser("agree")
    sub.add_argument("set_a")
    sub.add_argument("set_b")
    args = parser.parse_args(argv)
    if args.command == "agree":
        return agree.main(args.set_a, args.set_b)
    return run_all(args.command == "trace", args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
