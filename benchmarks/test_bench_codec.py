"""Microbenchmark for the wire codecs: encode+decode cost per message kind.

Two outputs with very different stability requirements:

* **Timing** (``codec_ns`` per round-trip, derived ops/sec) is noisy and
  goes to ``BENCH_fig6.json`` — the artifact CI diffs by eye, never by
  byte.
* **Sizes** (encoded frame bytes vs ``size_bytes()``, per kind) are
  deterministic and are emitted to ``results/wire_drift.txt`` so the
  per-kind frame sizes — and the accounted size being the frame size, zero
  drift for every kind — are pinned by the CI results-drift check like
  every other figure.
"""

from __future__ import annotations

import time

from repro.metrics.report import format_table
from repro.wire import (
    decode_frame,
    encode_frame,
    encoded_size,
    sample_messages,
)
from repro.wire.drift import drift_rows, drifted_kinds

#: Round-trips timed per kind; enough to average out timer noise while the
#: whole sweep stays well under a second.
_ITERATIONS = 500


def test_bench_codec_round_trip(benchmark, codec_bench_recorder):
    samples = sample_messages()

    def sweep():
        per_kind = {}
        for kind, message in sorted(samples.items()):
            decoded = None
            start = time.perf_counter_ns()
            for _ in range(_ITERATIONS):
                decoded, _ = decode_frame(encode_frame(message))
            elapsed = time.perf_counter_ns() - start
            assert decoded == message, kind
            per_kind[kind] = elapsed / _ITERATIONS
        return per_kind

    per_kind = benchmark.pedantic(sweep, rounds=1, iterations=1)

    codec_ns = {kind: round(ns, 1) for kind, ns in per_kind.items()}
    encoded_bytes = {
        kind: encoded_size(message) for kind, message in samples.items()
    }
    codec_bench_recorder(codec_ns, encoded_bytes)

    rows = [
        {
            "kind": kind,
            "ns_per_roundtrip": f"{per_kind[kind]:.0f}",
            "ops_per_sec": f"{1e9 / per_kind[kind]:,.0f}",
            "frame_bytes": encoded_bytes[kind],
        }
        for kind in sorted(samples)
    ]
    print(
        "\n"
        + format_table(rows, title="Wire codec round-trip cost per kind")
        + "\n"
    )

    # Sanity gates: every kind must round-trip far below a millisecond —
    # the codec is charged on the runtime's per-message path.
    for kind, ns in per_kind.items():
        assert ns < 1_000_000, f"{kind} round-trip took {ns:.0f} ns"


def test_bench_codec_drift_report(results_emitter):
    """Deterministic measured-vs-estimated report (``results/wire_drift.txt``).

    ``size_bytes()`` and the codec are generated from one declaration per
    kind (``repro.core.wireschema``), so every registered kind must show
    zero drift; the table pins the canonical samples' frame sizes.
    """
    samples = sample_messages()
    estimated = {}
    measured = {}
    for kind, message in samples.items():
        if kind == "MBatch":
            # The envelope has no size_bytes() of its own: the network
            # charges the inner frames only.
            continue
        estimated[kind] = float(message.size_bytes())
        measured[kind] = float(encoded_size(message))

    rows = drift_rows(estimated, measured)
    display = [
        {
            "kind": row["kind"],
            "estimate_bytes": int(row["estimate_bytes"]),
            "measured_bytes": int(row["measured_bytes"]),
            "drift_pct": f"{row['drift_pct']:.1f}",
            "drifted": "yes" if row["drifted"] else "no",
            "corrected_estimate": int(row["corrected_estimate"]),
        }
        for row in rows
    ]
    results_emitter(
        "wire_drift",
        display,
        "Wire format - measured frame bytes vs size_bytes() estimate "
        "(canonical 100 B payload samples)",
    )

    # No kind may drift at all: the accounted size is the frame length.
    assert not drifted_kinds(rows), f"drifted kinds: {sorted(drifted_kinds(rows))}"
    for kind in estimated:
        assert estimated[kind] == measured[kind], (
            f"{kind}: size_bytes()={estimated[kind]:.0f} != "
            f"encoded={measured[kind]:.0f}"
        )
