"""Shared helpers for the benchmark harness.

Every benchmark regenerates the rows/series of one table or figure of the
paper, prints them (visible with ``pytest -s`` or on failure) and writes
them to ``results/<experiment>.txt`` so the output survives the run.  The
tables ``src/`` defines (:data:`repro.experiments.goldens.GOLDENS`) go
through the ``golden`` fixture; the rest build their rows here and go
through ``results_emitter``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

import pytest

from repro.experiments.goldens import GOLDENS
from repro.metrics.report import format_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")

#: Wall-time + message-count artifact for the fig6 tail benchmark, written
#: next to the repository root so the CI results-drift check (which covers
#: ``results/`` only) ignores its run-to-run timing noise.
BENCH_FIG6_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_fig6.json"
)
BENCH_FIG6_NODE = "test_bench_fig6_tail_percentiles"


def _persist(name: str, table: str) -> None:
    print("\n" + table + "\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(table + "\n")


def emit(
    name: str,
    rows: Sequence[Dict[str, object]],
    title: str,
    columns: Optional[List[str]] = None,
    footnote: str = "",
) -> None:
    """Format rows as a table, print it and persist it under ``results/``."""
    _persist(name, format_table(list(rows), columns=columns, title=title, footnote=footnote))


@pytest.fixture
def results_emitter():
    """Fixture exposing :func:`emit` to benchmarks."""
    return emit


@pytest.fixture
def golden(benchmark):
    """Compute the golden ``NAME`` of :data:`GOLDENS` once under the
    benchmark timer, persist it as ``results/NAME.txt`` and return its rows."""

    def run(name: str) -> List[Dict[str, object]]:
        definition = GOLDENS[name]
        rows = benchmark.pedantic(definition.rows, rounds=1, iterations=1)
        _persist(name, definition.table(rows))
        return rows

    return run


# -- message-traffic reporting -------------------------------------------------
#
# Every simulator-backed experiment run records its per-kind message counts;
# a summary is printed in the terminal summary (uncaptured, so it shows up in
# CI logs next to the --durations wall times), making message-traffic
# regressions as visible as runtime regressions.

_TRAFFIC_LOG: List[Dict[str, object]] = []


def _record_traffic(config, result) -> None:
    _TRAFFIC_LOG.append(
        {
            "experiment": f"{config.protocol} f={config.faults} "
            f"clients={config.clients_per_site}",
            "messages": int(result.stats.get("messages_sent", 0)),
            "batches": int(result.stats.get("batches_sent", 0)),
            "deliveries": int(result.stats.get("deliveries", 0)),
            "commit_requests": int(result.stats.get("sent:MCommitRequest", 0)),
            "repair_requests": int(result.stats.get("sent:MRepairRequest", 0)),
            "promise_messages": int(result.stats.get("sent:MPromises", 0)),
            "events": int(result.stats.get("events", 0)),
            "heap_ops": int(result.stats.get("heap_ops", 0)),
            "live_records": int(result.stats.get("live_records", 0)),
            "archived_records": int(result.stats.get("archived_records", 0)),
            "peak_live_per_key": int(result.stats.get("peak_live_per_key", 0)),
            "conflict_keys": int(result.stats.get("conflict_keys", 0)),
            "issued_promises": int(result.stats.get("issued_promises", 0)),
            "gc_collected": int(result.stats.get("gc_collected", 0)),
            "executed_ranges": int(result.stats.get("executed_ranges", 0)),
        }
    )


def pytest_configure(config):
    from repro.cluster.runner import EXPERIMENT_OBSERVERS

    if _record_traffic not in EXPERIMENT_OBSERVERS:
        EXPERIMENT_OBSERVERS.append(_record_traffic)


# -- BENCH_fig6.json artifact --------------------------------------------------
#
# The fig6 tail benchmark doubles as the perf-regression canary for the
# simulator hot path; its wall time and per-run message counts are written
# to BENCH_fig6.json so CI (and PR reviews) can diff the numbers without
# scraping pytest output.  The wire-codec microbenchmark contributes its
# ``codec_ns``/``encoded_bytes`` columns to the same artifact; partial runs
# (only fig6, or only the codec bench) merge into the existing file instead
# of dropping the other benchmark's columns.

_BENCH_FIG6: Dict[str, object] = {}
_CODEC_BENCH: Dict[str, object] = {}


@pytest.fixture
def codec_bench_recorder():
    """Fixture for the codec bench to publish its artifact columns."""

    def record(codec_ns: Dict[str, float], encoded_bytes: Dict[str, int]) -> None:
        _CODEC_BENCH["codec_ns"] = dict(sorted(codec_ns.items()))
        _CODEC_BENCH["encoded_bytes"] = dict(sorted(encoded_bytes.items()))

    return record


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    is_fig6 = BENCH_FIG6_NODE in item.nodeid
    traffic_start = len(_TRAFFIC_LOG) if is_fig6 else 0
    yield
    if is_fig6:
        _BENCH_FIG6["traffic"] = [dict(row) for row in _TRAFFIC_LOG[traffic_start:]]


def pytest_runtest_logreport(report):
    if report.when == "call" and BENCH_FIG6_NODE in report.nodeid:
        _BENCH_FIG6["nodeid"] = report.nodeid
        _BENCH_FIG6["wall_seconds"] = round(report.duration, 3)
        _BENCH_FIG6["outcome"] = report.outcome


def _write_bench_fig6_artifact() -> None:
    if "wall_seconds" not in _BENCH_FIG6 and not _CODEC_BENCH:
        return
    # Merge into the existing artifact so a partial run (only fig6, or only
    # the codec bench) keeps the other benchmark's columns.
    try:
        with open(BENCH_FIG6_PATH, encoding="utf-8") as handle:
            artifact = json.load(handle)
    except (OSError, ValueError):
        artifact = {}
    if "wall_seconds" in _BENCH_FIG6:
        traffic = _BENCH_FIG6.get("traffic", [])
        totals: Dict[str, int] = {}
        for row in traffic:
            for key, value in row.items():
                if key == "experiment":
                    continue
                if key == "peak_live_per_key":
                    # A high-water mark: the meaningful aggregate is the
                    # worst run, not the sum over runs.
                    totals[key] = max(totals.get(key, 0), int(value))
                else:
                    totals[key] = totals.get(key, 0) + int(value)
        # Peak RSS of the whole pytest process (KiB on Linux): the coarse
        # memory ceiling the CI gate enforces next to the per-structure
        # live/archive columns above.
        try:
            import resource

            peak_rss_kb = int(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            )
        except Exception:
            peak_rss_kb = 0
        artifact.update(
            {
                "benchmark": _BENCH_FIG6.get("nodeid"),
                "outcome": _BENCH_FIG6.get("outcome"),
                "wall_seconds": _BENCH_FIG6.get("wall_seconds"),
                "peak_rss_kb": peak_rss_kb,
                "message_counts": traffic,
                "message_totals": totals,
            }
        )
    if _CODEC_BENCH:
        artifact["codec_ns"] = _CODEC_BENCH["codec_ns"]
        artifact["encoded_bytes"] = _CODEC_BENCH["encoded_bytes"]
    with open(BENCH_FIG6_PATH, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")


def pytest_terminal_summary(terminalreporter):
    _write_bench_fig6_artifact()
    if "wall_seconds" in _BENCH_FIG6 or _CODEC_BENCH:
        terminalreporter.section("BENCH_fig6.json")
        parts = []
        if "wall_seconds" in _BENCH_FIG6:
            parts.append(f"wall_seconds={_BENCH_FIG6['wall_seconds']}")
        if _CODEC_BENCH:
            parts.append(f"codec kinds={len(_CODEC_BENCH['codec_ns'])}")
        terminalreporter.write_line(
            f"  {' '.join(parts)} (artifact at {os.path.normpath(BENCH_FIG6_PATH)})"
        )
    if not _TRAFFIC_LOG:
        return
    totals: Dict[str, int] = {}
    for row in _TRAFFIC_LOG:
        for key, value in row.items():
            if key == "experiment":
                continue
            totals[key] = totals.get(key, 0) + int(value)
    terminalreporter.section("message traffic (per run)")
    for row in _TRAFFIC_LOG:
        parts = ", ".join(
            f"{key}={value}" for key, value in row.items() if key != "experiment"
        )
        terminalreporter.write_line(f"  {row['experiment']}: {parts}")
    terminalreporter.write_line(
        "  TOTAL: " + ", ".join(f"{key}={value}" for key, value in sorted(totals.items()))
    )
