"""Checks of the benchmark itself: ``pytest perfbench -q`` (not in tier-1).

Every workload runs at under a twentieth of its benchmark size (0.3 host
seconds per timed run against 8), so the numbers mean nothing here; the tests check the shape of what is printed,
that the layer self times fit inside the traced wall, that tracing leaves
the program as it found it, and that ``agree`` tells same from worse.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import re
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import agree, rtload, worker  # noqa: E402
from perfbench.layers import Instrumentation  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.tracing import _MISSING  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SMALL_SECONDS = 0.6


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_the_declarations(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["perfbench"]
    assert [w["name"] for w in declared["workloads"]] == [
        name for name in WORKLOADS if name != "rt_open300"
    ]
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in declared["workloads"])
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in declared["end_to_end"]
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload, declared):
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(SMALL_SECONDS), "--trace", "0"],
        stdout=subprocess.PIPE, timeout=60, check=False, cwd=ROOT,
    )
    assert completed.returncode == 0
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]
    }
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_within_its_wall(workload):
    run = worker.main(
        {
            "workload": workload, "seed": 3, "run_seed": 3001,
            "seconds": SMALL_SECONDS / 2, "trace": True, "spawned_at": time.time(),
        }
    )
    layers = run["layers"]
    assert list(layers) == [m.name for m in PER_LAYER]
    # Self times exclude child spans, so together they cannot exceed the
    # wall the spans were installed for.
    assert 0.5 < layers["trace.coverage_share"] <= 1.0 + 1e-6
    self_times = sum(v for name, v in layers.items() if name.endswith("self_s"))
    assert self_times <= run["traced_wall_s"] + layers["runtime.loop.idle_s"]
    assert run["spans_recorded"] > 0
    if WORKLOADS[workload].kind == "sim":
        assert layers["wire.encode_calls"] == 0 and layers["wire.decode_calls"] == 0
    if workload == "sim_atlas":
        assert layers["core.promises.calls"] == 0
        assert layers["protocols.depgraph.calls"] > 0
    if workload in ("sim_tempo", "sim_atlas", "sim_partial"):
        assert layers["reliability.tracked"] == 0 and layers["reliability.self_s"] == 0
    if workload == "sim_faults":
        assert layers["reliability.tracked"] > 0


def test_tracing_puts_every_attribute_back():
    probe = Instrumentation("tempo")
    probe.install()
    patched = probe.tracer.patched()
    assert len(patched) > 40
    assert all(
        vars(owner)[attribute] is not original for owner, attribute, original in patched
    )
    probe.restore()
    assert probe.tracer.patched() == []
    for owner, attribute, original in patched:
        assert vars(owner).get(attribute, _MISSING) is original


def test_open_loop_counts_a_fast_failure_as_a_miss():
    class Refusing:
        async def submit(self, keys, process_id, timeout):
            raise RuntimeError("refused")

    outcome = rtload.RuntimeOutcome()
    plan = [(0.0, 0, "a"), (0.03, 1, "b"), (0.06, 2, "c")]
    asyncio.run(rtload._open_clients(Refusing(), plan, outcome, rtload.untraced))
    assert (outcome.attempted, outcome.failed) == (3, 3)
    # The first request falls into the discarded ramp.  The other two failed
    # well inside the latency limit and still have no sample: they are misses.
    assert outcome.missed == 2 and outcome.latencies_ms == []


def _result_set(ops_per_s: float, workload: str = "sim_tempo") -> dict:
    metrics = {
        m.name: {"value": 100.0, "unit": m.unit, "repeats": [99.0, 101.0]} for m in END_TO_END
    }
    metrics["ops_per_s"] = dict(
        metrics["ops_per_s"], value=ops_per_s, repeats=[ops_per_s * 0.99, ops_per_s * 1.01]
    )
    return {"seed": 1, "seconds": 16.0, "workloads": {workload: {"metrics": metrics}}}


def _verdicts(set_a: dict, set_b: dict) -> dict:
    rows = agree.compare(set_a, set_b, *agree.load_declared())
    assert len(rows) == len(END_TO_END)
    return {row["metric"]: row["verdict"] for row in rows}


def test_agree_passes_identical_sets_and_flags_a_drop(tmp_path, capsys):
    assert set(_verdicts(_result_set(100.0), _result_set(100.0)).values()) == {"same"}

    # ops_per_s carries the widest bound there is (0.25), so the synthetic
    # drop has to be larger than that.
    verdicts = _verdicts(_result_set(100.0), _result_set(70.0))
    assert verdicts.pop("ops_per_s") == "worse"
    assert set(verdicts.values()) == {"same"}

    # The repeats took different inputs and so differ among themselves, but
    # each dropped like the whole: the spread is between same-input pairs.
    uneven_a, uneven_b = _result_set(100.0), _result_set(70.0)
    uneven_a["workloads"]["sim_tempo"]["metrics"]["ops_per_s"]["repeats"] = [60.0, 140.0]
    uneven_b["workloads"]["sim_tempo"]["metrics"]["ops_per_s"]["repeats"] = [42.0, 98.0]
    assert _verdicts(uneven_a, uneven_b)["ops_per_s"] == "worse"

    # One input dropped by half and the other not at all: that may be noise.
    noisy = copy.deepcopy(_result_set(70.0))
    noisy["workloads"]["sim_tempo"]["metrics"]["ops_per_s"]["repeats"] = [49.5, 101.0]
    assert _verdicts(_result_set(100.0), noisy)["ops_per_s"] == "unresolved"

    # A workload BENCHMARK.json does not list is shown and held to no bound.
    assert set(
        _verdicts(_result_set(100.0, "rt_open300"), _result_set(70.0, "rt_open300")).values()
    ) == {"ungated"}

    with pytest.raises(SystemExit, match="differ in seed"):
        _verdicts(_result_set(100.0), dict(_result_set(100.0), seed=2))

    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(_result_set(100.0)))
    path_b.write_text(json.dumps(_result_set(70.0)))
    assert agree.main(str(path_a), str(path_a)) == 0
    assert agree.main(str(path_a), str(path_b)) == 1
    assert "worse" in capsys.readouterr().out
