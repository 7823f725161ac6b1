"""perfbench: the repository's benchmark.

Six named workloads over the discrete-event simulator and the asyncio
runtime, end-to-end metrics measured untraced, and a per-layer ledger from a
separate traced pass.  See ``README.md`` in this directory; ``BENCHMARK.json``
at the repository root names the command, the workloads and the metrics.
"""
