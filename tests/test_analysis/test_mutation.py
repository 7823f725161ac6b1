"""Mutation self-tests: the analyzers must catch real bugs.

The first mutation re-introduces the even-``r`` majority-index regression in
:meth:`repro.core.promises.PromiseSet.stable_timestamp` (PR 1): picking the
``r//2``-th sorted frontier instead of the ``(r-1)//2``-th.  For even ``r``
the resulting "stable" timestamp is backed by only ``r/2`` promisers — one
short of the strict majority Theorem 1 requires.

Both analysis pillars must detect it, and both must be clean without it:

* the **small-model explorer**'s per-state stability-safety check flags the
  first reachable state where a process trusts a sub-majority frontier —
  within a few dozen states of the ``r=4`` model;
* the **trace checker** flags the execution-order corruption the bug
  licenses.  Crash-free the sub-majority is coincidentally sufficient at
  ``f=1`` (any fast quorum still intersects the ``r/2`` backers), so the
  trace-level damage needs the recovery path: a crashed coordinator's
  command is recovered with a timestamp *below* the premature stable bound.
  The test replays that §B.1 race as a deterministic message schedule
  against one replica; under the mutation the replica executes a later
  timestamp first and the checker reports ``timestamp-order``.

:class:`TestOneMutationPerRow` then gives every other row of
:func:`repro.analysis.consistency.check_run` its own mutation, tripped in a
traced run and, where the explorer can see the row, in the explorer.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.promises as promises_mod
from repro.analysis.smallmodel import explore
from repro.analysis.trace import ExecutionTraceRecorder
from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.core.base import ProcessBase
from repro.core.commands import Command, KeyOp, OpKind, Partitioner
from repro.core.config import ProtocolConfig
from repro.core.identifiers import intern_dot
from repro.core.messages import MCommit, MPayload, MPromises, MPropose
from repro.core.process import TempoProcess
from repro.protocols.dependency import DependencyProtocolProcess


def _buggy_stable_timestamp(self, processes):
    # PR 1's regression, cache-free: sorted index r//2 instead of (r-1)//2.
    frontiers = sorted(self._frontier.get(process, 0) for process in processes)
    return frontiers[len(frontiers) // 2] if frontiers else 0


@pytest.fixture
def mutated(monkeypatch):
    monkeypatch.setattr(
        promises_mod.PromiseSet, "stable_timestamp", _buggy_stable_timestamp
    )


def _command(source, sequence, key="k"):
    return Command(
        dot=intern_dot(source, sequence),
        ops=(KeyOp(key, OpKind.WRITE, "v"),),
        payload_size=8,
        client_id=None,
    )


def _replay_recovery_race():
    """Replay the §B.1 recovery race against replica 3 of an ``r=4`` cluster.

    History (all messages protocol-legal):

    * ``b`` (dot 0.1) was proposed by process 0 to fast quorum {0,1,2};
      process 1 acked with timestamp 1, then 0 crashed before its commit
      broadcast reached anyone but itself.
    * ``a`` (dot 2.1) is proposed by process 2 to fast quorum {2,1,3};
      process 1 (clock already at 2 from other traffic) proposes 3, so
      ``a`` commits at timestamp 3.  Process 1's promise 1 stays attached
      to the unresolved ``b``, so its frontier at replica 3 is stuck at 0 —
      only processes 2 and 3 back timestamps up to 3 (``r/2`` of 4).
    * Recovery eventually commits ``b`` at its original timestamp 1.

    Returns ``(process, report)`` for the trace recorded at replica 3.
    """
    config = ProtocolConfig(num_processes=4, faults=1)
    process = TempoProcess(3, config, partitioner=Partitioner(1))
    recorder = ExecutionTraceRecorder().attach([process])
    b = _command(0, 1)
    a = _command(2, 1)
    # a's proposal round: replica 3 is a fast-quorum member.
    process.deliver(2, MPropose(a.dot, a, {0: (2, 1, 3)}, 2), 0.0)
    process.drain_outbox()
    # a commits at 3 = max(2 from 2, 3 from 1, 2 from 3).  Process 1's
    # attached promise sits at 3 with a hole at 1 (attached to b).
    process.deliver(
        2,
        MCommit(
            a.dot,
            timestamp=3,
            partition=0,
            attached={1: 3, 2: 2, 3: 2},
            detached={1: ((2, 2),), 2: ((1, 1),)},
        ),
        1.0,
    )
    process.drain_outbox()
    # Process 2 bumped its clock to 3 on commit; its periodic broadcast
    # closes its frontier up to 3.
    process.deliver(
        2,
        MPromises(
            intern_dot(2, 2), detached={2: ((3, 3),)}, attached={}
        ),
        2.0,
    )
    process.drain_outbox()
    # Recovery outcome for b: payload re-broadcast, then commit at the
    # original fast-path timestamp 1 (below the premature stable bound).
    process.deliver(1, MPayload(b.dot, b, {0: (0, 1, 2)}), 3.0)
    process.deliver(
        1,
        MCommit(
            b.dot,
            timestamp=1,
            partition=0,
            attached={0: 1, 1: 1},
            detached={},
        ),
        3.0,
    )
    process.drain_outbox()
    process.tick(10.0)
    process.drain_outbox()
    return process, recorder.check()


class TestExplorerDetection:
    def test_explorer_flags_the_mutation_within_a_few_states(self, mutated):
        result = explore(
            "tempo",
            num_processes=4,
            num_commands=2,
            stop_at_first_violation=True,
            max_states=50_000,
        )
        assert not result.ok
        codes = {violation.code for violation in result.violations}
        assert "stability-safety" in codes
        assert result.stop_reason == "first-violation"
        # The per-state Theorem 1 check catches it almost immediately —
        # no final-state divergence search needed.
        assert result.states_explored < 1_000

    def test_explorer_is_clean_on_the_same_model_without_the_mutation(self):
        # Same r=4 state space, same per-state check, correct code: nothing
        # but the (expected) budget marker within the same prefix of states.
        result = explore("tempo", num_processes=4, num_commands=2, max_states=800)
        codes = [violation.code for violation in result.violations]
        assert codes == ["state-budget"]


class TestTraceCheckerDetection:
    def test_trace_checker_flags_the_recovery_race(self, mutated):
        process, report = _replay_recovery_race()
        # Premature stability: a@3 executed while b@1 was still in flight.
        assert [str(dot) for dot in process.executed] == ["2.1", "0.1"]
        assert not report.ok
        codes = {violation.code for violation in report.violations}
        assert "timestamp-order" in codes

    def test_trace_checker_is_clean_on_the_same_schedule_unmutated(self):
        process, report = _replay_recovery_race()
        report.raise_if_violations()
        # Correct stability holds a@3 back until b@1 resolves.
        executed = [str(dot) for dot in process.executed]
        assert executed[0] == "0.1"


# -- one mutation per check_run row ------------------------------------------------

_seam = ProcessBase._execute_command
_execute_all = DependencyProtocolProcess._execute_all
_on_commit = TempoProcess._on_commit
_submit = TempoProcess.submit


def _execute_twice(self, dot, command, now, reply):
    # Past the seam's at-most-once range check, which would refuse a
    # second call: process 1 records every execution twice.
    _seam(self, dot, command, now, reply)
    if self.process_id == 1:
        self.record_execution(dot, command, now)


def _reverse_batches_at_process_1(self, dots, now):
    _execute_all(self, dots[::-1] if self.process_id == 1 else dots, now)


def _reverse_batches_at_partition_1(self, dots, now):
    _execute_all(self, dots[::-1] if self.partition == 1 else dots, now)


def _shift_commits_at_process_1(self, sender, message, now):
    if self.process_id == 1:
        message = dataclasses.replace(message, timestamp=message.timestamp + 1)
    _on_commit(self, sender, message, now)


# Tempo's dispatch table resolves handlers by name.
_shift_commits_at_process_1.__name__ = "_on_commit"


def _reply_on_submit(self, command, now=0.0):
    # The client hears back before the command is ordered; the reply at
    # execution comes too late to count.
    _submit(self, command, now)
    self.outbox.append(self._client_reply(command.dot, command, None))


def _never_execute_at_process_1(self, dot, command, now, reply):
    if self.process_id != 1:
        _seam(self, dot, command, now, reply)


#: ``row -> (class, attribute, mutant, protocol, explorer keywords)``;
#: ``None`` keywords: the explorer cannot see the row (no client windows
#: for real-time order; timestamp-order is the stability-safety mutation
#: above, and the shifted commits only stall the explorer's lattice, whose
#: timestamp-divergence is the 2(e) lattice's, ``test_smallmodel.py``).
MUTATIONS = {
    "execute-twice": (ProcessBase, "_execute_command", _execute_twice, "tempo", {}),
    "order-divergence": (
        DependencyProtocolProcess,
        "_execute_all",
        _reverse_batches_at_process_1,
        "atlas",
        {},
    ),
    "order-divergence across partitions": (
        DependencyProtocolProcess,
        "_execute_all",
        _reverse_batches_at_partition_1,
        "janus",
        {"num_partitions": 2},
    ),
    "timestamp-divergence": (
        TempoProcess,
        "_on_commit",
        _shift_commits_at_process_1,
        "tempo",
        None,
    ),
    "real-time-order": (TempoProcess, "submit", _reply_on_submit, "tempo", None),
    "liveness": (ProcessBase, "_execute_command", _never_execute_at_process_1, "tempo", {}),
}


def _traced_run(protocol, explorer_keywords):
    sharded = explorer_keywords and "num_partitions" in explorer_keywords
    return run_experiment(
        ExperimentConfig(
            protocol=protocol,
            num_sites=3,
            num_shards=2 if sharded else 1,
            keys_per_command=2 if sharded else 1,
            clients_per_site=2,
            conflict_rate=1.0,
            duration_ms=500.0,
            warmup_ms=0.0,
            record_execution_trace=True,
        )
    )


class TestOneMutationPerRow:
    @pytest.mark.parametrize("row", sorted(MUTATIONS))
    def test_a_traced_run_trips_the_row(self, monkeypatch, row):
        owner, attribute, mutant, protocol, keywords = MUTATIONS[row]
        monkeypatch.setattr(owner, attribute, mutant)
        code = row.split()[0]
        if code == "liveness":
            report = _traced_run(protocol, keywords).trace_report
            assert not report.converged and report.stuck > 0, report.summary()
        else:
            with pytest.raises(AssertionError, match=rf"\[{code}\]"):
                _traced_run(protocol, keywords)

    @pytest.mark.parametrize(
        "row", sorted(row for row, mutation in MUTATIONS.items() if mutation[4] is not None)
    )
    def test_the_explorer_trips_the_row(self, monkeypatch, row):
        owner, attribute, mutant, protocol, keywords = MUTATIONS[row]
        monkeypatch.setattr(owner, attribute, mutant)
        result = explore(
            protocol, num_commands=2, stop_at_first_violation=True, **keywords
        )
        codes = {violation.code for violation in result.violations}
        assert row.split()[0] in codes, result.summary()

    def test_a_shard_wide_swap_is_one_cycle_across_partitions(self, monkeypatch):
        # Every replica of shard 1 swaps alike, so each shard's replicas
        # agree: the witness is a cycle through keys of both shards, not a
        # disagreement on one key.
        monkeypatch.setattr(
            DependencyProtocolProcess, "_execute_all", _reverse_batches_at_partition_1
        )
        result = explore(
            "janus", num_commands=2, num_partitions=2, stop_at_first_violation=True
        )
        (violation,) = result.violations
        assert violation.code == "order-divergence"
        assert violation.detail == "replicas disagree on the order of 0.1 -> 1.1 -> 0.1"
