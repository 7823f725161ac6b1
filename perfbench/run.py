"""The benchmark command: one workload, one result line.

    python3 perfbench/run.py --workload sim_tempo --seed 1 --seconds 16 --trace 0

``--trace 0`` runs ``REPEATS`` fresh worker processes, each sized for
``seconds / REPEATS`` host seconds, checks their outputs and prints the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced worker
on the same input, sized for ``seconds * TRACED_SHARE`` host seconds, and
prints the per-layer metrics; end-to-end numbers never come from a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.metrics import END_TO_END, PER_LAYER, end_to_end  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Worker processes of the untraced pass.  Two, so that at the benchmark's
#: ``run_seconds`` every timed run is sized for 8 host seconds.
REPEATS = 2
#: Share of ``--seconds`` the traced pass sizes its input for.  Its two workers
#: (one untraced, one traced and trace-checked) cost about four times their
#: input's untraced host seconds, so a quarter keeps a traced invocation as
#: long as an untraced one.
TRACED_SHARE = 0.25
#: What the result line carries: the metrics ``BENCHMARK.json`` declares.
DECLARED = {metric.name for metric in END_TO_END + PER_LAYER}
#: A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 170.0


def start_worker(request: dict) -> dict:
    """Run one worker process to completion and return what it measured."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: the program is not here ({src}/repro)")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join([src, ROOT]))
    request = dict(request, spawned_at=time.time())
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", json.dumps(request)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"perfbench: worker for {request['workload']} exited with {completed.returncode}"
        )
    return json.loads(completed.stdout.splitlines()[-1])


def output_problems(workload_name: str, runs: List[dict]) -> List[str]:
    """Why the outputs of these worker runs are not correct (empty if they are)."""
    problems = []
    deterministic = WORKLOADS[workload_name].kind != "rt_open"
    if deterministic and len({run["warmup_digest"] for run in runs}) != 1:
        problems.append("warm-up digests differ between processes: the run is not deterministic")
    for index, run in enumerate(runs):
        if not run["stores_agree"]:
            problems.append(f"repeat {index}: replicas of one shard disagree")
        if run["failed"]:
            problems.append(
                f"repeat {index}: {run['failed']} of {run['attempted']} commands failed "
                + " ".join(run.get("errors", []))
            )
        if not run.get("generator_ok", True):
            problems.append(f"repeat {index}: the open-loop generator ran too late")
    return problems


def measure(workload_name: str, seed: int, seconds: float) -> Tuple[Dict[str, dict], List[dict]]:
    """The untraced pass: end-to-end metrics and the worker runs behind them."""
    base = {"workload": workload_name, "seed": seed, "seconds": seconds / REPEATS, "trace": False}
    # Each repeat takes its own input, derived from the seed, so that a
    # result rests on ``REPEATS`` inputs and not on one drawn twice.
    runs = [
        start_worker(dict(base, run_seed=seed * 1000 + index + 1)) for index in range(REPEATS)
    ]
    return end_to_end(runs, WORKLOADS[workload_name].slo_ms), runs


def trace(workload_name: str, seed: int, seconds: float) -> Tuple[Dict[str, dict], List[dict]]:
    """The traced pass: per-layer metrics of one traced worker, next to one
    untraced worker on the same input for the tracing overhead."""
    base = {
        "workload": workload_name, "seed": seed, "seconds": seconds * TRACED_SHARE,
        "run_seed": seed * 1000 + 1,
    }
    plain = start_worker(dict(base, trace=False))
    traced = start_worker(dict(base, trace=True, untraced_cpu_s=plain["cpu_s"]))
    deterministic = WORKLOADS[workload_name].kind != "rt_open"
    if deterministic and plain["digest"] != traced["digest"]:
        raise SystemExit(f"perfbench: tracing changed the outputs of {workload_name}")
    layers = dict(traced["layers"])
    layers["host.cmds_per_s"] = (plain["attempted"] - plain["failed"]) / plain["wall_s"]
    metrics = {metric.name: {"value": layers[metric.name], "unit": metric.unit} for metric in PER_LAYER}
    return metrics, [plain, traced]


def format_metric(name: str, entry: dict) -> str:
    """One printed row: name, value, unit and the range over the repeats."""
    repeats = entry.get("repeats")
    spread = f"  [{min(repeats):.6g} .. {max(repeats):.6g}, n={len(repeats)}]" if repeats else ""
    return f"{name:42s} {entry['value']:<12.6g} {entry['unit']}{spread}"


def result(metrics: Dict[str, dict], runs: List[dict], problems: List[str]) -> dict:
    """One workload's result: the contract's four keys."""
    return {
        "correct": not problems,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metrics, runs = (trace if args.trace else measure)(args.workload, args.seed, args.seconds)
    problems = output_problems(args.workload, runs)
    for name, entry in metrics.items():
        print(format_metric(name, entry) + ("" if name in DECLARED else "  (not gated)"))
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    declared = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in metrics.items() if name in DECLARED
    }
    print(json.dumps(result(declared, runs, problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
