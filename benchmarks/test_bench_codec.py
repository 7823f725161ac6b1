"""Microbenchmark for the wire codecs: encode+decode cost per message kind.

Timing (``codec_ns`` per round-trip, derived ops/sec) is noisy and goes to
``BENCH_fig6.json`` — the artifact CI diffs by eye, never by byte — next to
the per-kind frame sizes (``encoded_bytes``).  The frames themselves are
pinned byte for byte by ``tests/test_core/wire_frames.json``.
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
