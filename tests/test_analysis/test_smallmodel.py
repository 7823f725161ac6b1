"""Exhaustive small-model gates: bounded Tempo and Caesar schedules.

Each test enumerates EVERY delivery-order interleaving of its bounded
schedule (``complete`` asserts the DFS ran to closure, not to a budget) and
must come back violation-free.  The models are sized for a per-commit test
run; the CI ``analysis`` job drives the larger ones (default-config Tempo at
~121k states, the two-command crash model at ~35k) through
``python -m repro.analysis.smallmodel``.
"""

from __future__ import annotations

from repro.analysis.smallmodel import explore_caesar, explore_tempo, main
from repro.core.gc import GcTracker


class TestTempoModels:
    def test_two_conflicting_commands_exhaustive(self):
        # r=3, two conflicting commands, ack_broadcast off (the commit
        # fan-out shrinks the lattice to pytest size: ~15k states).
        result = explore_tempo(num_commands=2, ack_broadcast=False)
        assert result.complete, result.summary()
        assert result.ok, result.summary()
        assert result.states_explored > 5_000
        assert result.final_states > 1_000

    def test_coordinator_crash_recovery_exhaustive(self):
        # The coordinator of the only command may crash at every depth;
        # survivors must recover (Algorithm 4) and — when the crash raced a
        # partial commit broadcast — learn the outcome via MCommitRequest
        # (§B.1): committed peers ignore MRec, so without the periodic
        # re-request a stalled recovery would never terminate.
        result = explore_tempo(
            num_commands=1, crash_coordinator=True, ack_broadcast=False
        )
        assert result.complete, result.summary()
        assert result.ok, result.summary()
        # Crash branches at every depth: deeper than the crash-free run.
        assert result.final_states > result.states_explored // 4

    def test_lost_commit_broadcast_exhaustive(self):
        # One in-flight MCommit may vanish at any depth (fair-lossy links);
        # nobody crashes, so the FULL liveness invariant stands: the
        # receiver that missed the commit learns the identifier through
        # promise broadcasts and the repair pass / MCommitRequest
        # machinery re-delivers the outcome — every command still executes
        # at every replica, in one agreed order.
        result = explore_tempo(
            num_commands=1, lose_kinds=["MCommit"], ack_broadcast=False
        )
        assert result.complete, result.summary()
        assert result.ok, result.summary()
        # The loss transition genuinely branched the schedule.
        baseline = explore_tempo(num_commands=1, ack_broadcast=False)
        assert result.states_explored > baseline.states_explored

    def test_two_keys_do_not_interfere(self):
        # Commands on distinct keys still share the timestamp lattice.
        result = explore_tempo(num_commands=2, num_keys=2, ack_broadcast=False)
        assert result.complete and result.ok, result.summary()


class TestEpoch2Models:
    """MCommit elision (which rides ``ack_broadcast``) and the watermark GC
    under the exhaustive model, plus a mutation proving the GC safety
    invariant has teeth: no committed command may be collected before it is
    globally executed."""

    def test_elision_and_gc_exhaustive(self):
        # The ack broadcast on, so the coordinator really elides the
        # fast-quorum members' MCommit: every interleaving closes clean,
        # with the GC safety invariant asserted in every reachable state
        # and every settle round.  (One command: two close at ~121k states.)
        result = explore_tempo(num_commands=1)
        assert result.complete, result.summary()
        assert result.ok, result.summary()

    def test_elision_under_coordinator_crash(self):
        # Elided commits + recovery: the self-committing fast-quorum
        # members must still propagate the outcome to everyone when the
        # coordinator dies mid-broadcast.
        result = explore_tempo(num_commands=1, crash_coordinator=True)
        assert result.complete, result.summary()
        assert result.ok, result.summary()

    def test_premature_collection_is_caught(self, monkeypatch):
        # Mutation: advance the watermark straight to the LOCAL frontier,
        # skipping the min-over-peers step.  Under the coordinator-crash
        # model there are schedules where the crashed replica never
        # executed the command the survivors now collect, so the
        # exhaustive gate must report the GC safety violation.
        def premature_advance(self):
            newly = []
            for source, frontier in self._frontier.items():
                old = self._watermark.get(source, 0)
                if frontier > old:
                    self._watermark[source] = frontier
                    newly.append((source, old + 1, frontier))
                    self.collected_count += frontier - old
            self._stale.clear()
            return newly

        monkeypatch.setattr(GcTracker, "advance", premature_advance)
        result = explore_tempo(
            num_commands=1,
            crash_coordinator=True,
            ack_broadcast=False,
            stop_at_first_violation=True,
        )
        assert not result.ok
        codes = {violation.code for violation in result.violations}
        assert "gc-before-global-execution" in codes, result.summary()


class TestGeneralisedLossModels:
    """PR 10 satellite: the loss transition generalised beyond MCommit,
    and the two-partition topology that makes cross-shard MStable loss
    expressible in the model."""

    def test_two_partition_mstable_loss_bounded_sweep(self):
        # The 6-process two-partition topology is too large to close in a
        # unit test (the CI analysis job sweeps a deeper prefix), so this
        # is a *bounded* soundness gate: within the state budget, losing a
        # cross-partition MStable at any depth must produce no protocol
        # violation — the blocked partition's repair pass asks for the lost
        # notification again during settle.
        result = explore_tempo(
            num_commands=1,
            lose_kinds=["MStable"],
            num_partitions=2,
            ack_broadcast=False,
            max_states=5_000,
        )
        assert not result.complete and result.stop_reason == "max_states"
        codes = {violation.code for violation in result.violations}
        assert codes == {"state-budget"}, result.summary()
        assert result.final_states > 1_000, result.summary()
        assert "p=2" in result.protocol

    def test_cli_bounded_mode_tolerates_clean_truncation(self):
        argv = [
            "--commands",
            "1",
            "--partitions",
            "2",
            "--lose-kind",
            "MStable",
            "--no-ack-broadcast",
            "--max-states",
            "300",
        ]
        # Truncated clean prefix: failure without --bounded, success with.
        assert main(argv) == 1
        assert main(argv + ["--bounded"]) == 0


class TestCaesarModel:
    def test_two_conflicting_commands_exhaustive(self):
        # Caesar commits purely through messages: the model closes in under
        # a hundred states but covers every propose/ack/commit interleaving
        # of two conflicting commands, including the wait-condition path.
        result = explore_caesar(num_commands=2)
        assert result.complete, result.summary()
        assert result.ok, result.summary()
        assert result.states_explored > 20


class TestBudgetAndReporting:
    def test_budget_truncation_is_reported_loudly(self):
        result = explore_tempo(num_commands=2, max_states=50)
        assert not result.complete
        assert result.stop_reason == "max_states"
        codes = [violation.code for violation in result.violations]
        assert codes == ["state-budget"]
        assert "stopped early" in result.summary()

    def test_summary_reports_state_counts(self):
        result = explore_caesar(num_commands=1)
        summary = result.summary()
        assert "states explored" in summary
        assert str(result.states_explored) in summary
