"""Regression tests for Tempo's healthy-path message traffic.

The seed implementation re-requested commit info on every promise broadcast
mentioning an in-flight command, pushing ~16k ``MCommitRequest`` messages
through a single fig5 run; a phase-aware debounce cut that to ~1.5k.  The
commit relay (``docs/commit_relay.md``) pushes each ``MCommit`` from the
quorum member that can deliver it first, which no pull can beat, so the
healthy path now asks for nothing at all: any ``MCommitRequest`` in a
fault-free run is a regression.
"""

from __future__ import annotations

from functools import lru_cache

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment


def run_fig5_row(protocol: str, faults: int) -> dict:
    config = ExperimentConfig(
        protocol=protocol,
        num_sites=5,
        faults=faults,
        clients_per_site=8,
        conflict_rate=0.02,
        duration_ms=2_500.0,
        warmup_ms=500.0,
        seed=1,
    )
    return run_experiment(config).stats


class TestCommitRequestTraffic:
    def test_fig5_commit_request_count_is_zero_on_the_healthy_path(self):
        """The two Tempo rows of fig5 sent ~16k MCommitRequests in the seed
        and 1 456 under the debounce (the other protocols send none); with
        the relay nobody asks, and nobody needs the repair pass either.
        Each process outside the fast quorum gets one MCommit per command
        (r - |Q| = 2 per command at f = 1, not the 4 of broadcast + pull
        reply), and one MPayload."""
        for faults in (1, 2):
            stats = run_fig5_row("tempo", faults)
            assert "sent:MCommitRequest" not in stats
            assert "sent:MRepairRequest" not in stats
        stats = run_fig5_row("tempo", 1)  # every command takes the fast path
        commands = stats["sent:MPropose"] / 2
        assert stats["sent:MCommit"] == 2 * commands
        assert stats["sent:MPayload"] == 2 * commands

    def test_experiment_stats_expose_per_kind_counts_and_batches(self):
        stats = run_fig5_row("tempo", 1)
        assert stats["messages_sent"] > 0
        assert stats["batches_sent"] > 0
        per_kind_total = sum(
            value for key, value in stats.items() if key.startswith("sent:")
        )
        assert per_kind_total == stats["messages_sent"]


@lru_cache(maxsize=None)
def run_fig6_row(protocol: str, faults: int) -> dict:
    """A scaled-down fig6 cell (contended microbenchmark, 5 sites).

    Cached: the run is deterministic (seeded), and several gates below read
    different counters off the same cell.
    """
    config = ExperimentConfig(
        protocol=protocol,
        num_sites=5,
        faults=faults,
        clients_per_site=8,
        conflict_rate=0.15,
        duration_ms=2_000.0,
        warmup_ms=500.0,
        seed=1,
    )
    return run_experiment(config).stats


class TestFig6Traffic:
    """Traffic-count regression gates for the fig6 contended workload.

    The ceilings sit ~25 % above the measured counts: MCommit elision and
    the commit relay trim Tempo's commit fan-out to one copy per process
    outside the fast quorum (10 320 -> 8 642 messages with the
    MCommitRequest round and its MPayload/MCommit replies gone), while the
    watermark-GC clock exchange (``MExecutedClock`` at the ``gc_interval``
    cadence) adds a small periodic stream to every protocol (see
    ``BENCH_fig6.json`` for the full-benchmark numbers); a CI failure here
    means a change re-inflated the message traffic of the contended path.
    """

    #: Measured messages_sent per protocol (seed 1), with ~25 % headroom.
    CEILINGS = {
        ("tempo", 1): (8_642, 10_800),
        ("atlas", 1): (6_267, 7_800),
        ("epaxos", 1): (5_499, 6_900),
    }

    def test_fig6_message_counts_stay_bounded(self):
        for (protocol, faults), (measured, ceiling) in self.CEILINGS.items():
            stats = run_fig6_row(protocol, faults)
            sent = stats["messages_sent"]
            assert sent <= ceiling, (
                f"{protocol} f={faults}: fig6 traffic regressed to "
                f"{sent:.0f} messages (was ~{measured}, ceiling {ceiling})"
            )
            # Sanity floor: the run must actually exercise the workload.
            assert sent > measured * 0.5

    def test_fig6_commit_requests_stay_debounced_to_zero(self):
        stats = run_fig6_row("tempo", 1)
        assert "sent:MCommitRequest" not in stats
        assert "sent:MRepairRequest" not in stats

    def test_fig6_promise_messages_stay_bounded(self):
        """Promise-broadcast traffic gate (range-native pipeline).

        The contended tempo run sends 1 924 MPromises at seed 1: 481
        broadcasts to four peers, one per 5 ms tick on which the sender
        issued a promise since its last broadcast (86-107 of a replica's
        ~400 ticks; 363 broadcasts before the commit relay, whose commits
        reach the replicas at less clustered instants).  The cadence caps
        it at one broadcast per replica per tick; a jump past the ceiling
        means the promise pipeline regressed (e.g. per-promise messages
        are back).
        """
        stats = run_fig6_row("tempo", 1)
        promises = stats.get("sent:MPromises", 0.0)
        assert 950 < promises < 2_400, f"MPromises count drifted: {promises:.0f}"

    def test_fig6_scheduler_columns_are_recorded(self):
        """The experiment stats must expose the event-loop cost columns
        (``events``, ``heap_ops``) that feed ``BENCH_fig6.json``, and the
        timestamp-lane scheduler must do measurably less heap work than the
        one-heap-op-per-event flat heap (2 ops/event) it replaced."""
        stats = run_fig6_row("tempo", 1)
        events = stats.get("events", 0.0)
        heap_ops = stats.get("heap_ops", 0.0)
        assert events > 5_000
        assert 0 < heap_ops < 1.6 * events, (
            f"scheduler win regressed: {heap_ops:.0f} heap ops for "
            f"{events:.0f} events (flat heap would pay ~{2 * events:.0f})"
        )

    def test_fig6_single_partition_sends_no_stable_messages(self):
        """Single-partition MStable notifications are self-addressed only
        (same-partition peers derive stability locally); any network MStable
        here means the notification slimming silently regressed."""
        stats = run_fig6_row("tempo", 1)
        assert stats.get("sent:MStable", 0.0) == 0
