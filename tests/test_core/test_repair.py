"""The repair pass, one row per missing ingredient (``repro.core.repair``).

Every row loses something toward one replica on the inline network, then
ticks the whole cluster every 5 ms and checks three things: what the
replica's ``blocked_on()`` reports, that it executes the command within
the row's budget of recovery-timeout windows, and that requests for one
blocked item leave it at most once per window.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

import pytest

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.core.base import Envelope
from repro.core.commands import Partitioner
from repro.core.identifiers import Dot
from repro.core.messages import (
    MCommit,
    MPayload,
    MPromises,
    MRepairRequest,
    MStable,
    Need,
)
from repro.core.process import TempoProcess
from repro.core.repair import PullMixin
from tests.conftest import TempoCluster

TICK = 5.0
WINDOW = 500.0  # ProtocolConfig.recovery_timeout

Lose = Callable[[Envelope, float], bool]


class Drive:
    """Tick a cluster over a lossy inline network, watching one replica."""

    def __init__(self, cluster: TempoCluster, victim: TempoProcess, lose: Lose):
        self.cluster = cluster
        self.victim = victim
        self.lose = lose
        self.now = 0.0
        #: now -> the victim's non-empty ``blocked_on(now)`` going into that
        #: tick (on the inline network the answer is back before it ends).
        self.reports: Dict[float, List[Tuple[Need, Dot, float]]] = {}
        #: (need, dot) -> the ticks at which a request for it left the victim.
        self.rounds: Dict[Tuple[Need, Dot], Set[float]] = {}
        cluster.network.set_reorder(self._filter)

    def _filter(self, envelopes: List[Envelope]) -> List[Envelope]:
        kept = []
        for envelope in envelopes:
            message = envelope.message
            if envelope.sender == self.victim.process_id and isinstance(
                message, MRepairRequest
            ):
                key = (Need(message.need), message.dot)
                self.rounds.setdefault(key, set()).add(self.now)
            if not self.lose(envelope, self.now):
                kept.append(envelope)
        return kept

    def run(self, until: float) -> None:
        while self.now < until:
            self.now += TICK
            blocked = self.victim.blocked_on(self.now)
            if blocked:
                self.reports[self.now] = blocked
            self.cluster.network.tick_all(self.now)


def toward(victim: TempoProcess, *kinds: type) -> Lose:
    """Lose these kinds toward ``victim`` for the first window of the run."""
    return lambda envelope, now: (
        now < WINDOW
        and envelope.destination == victim.process_id
        and isinstance(envelope.message, kinds)
    )


def non_quorum_member(cluster: TempoCluster, coordinator: int = 0) -> TempoProcess:
    quorum = cluster.process(coordinator).quorum_system.fast_quorum(coordinator, 0)
    return next(p for p in cluster.processes if p.process_id not in quorum)


# -- the rows -----------------------------------------------------------------
#
# Each builds a cluster at time 0 with the loss already suffered and returns
# ``(drive, dot, need, windows)``: the dot the victim cannot execute, the
# ingredient it must report missing, and the window budget for convergence.


def attached_only_commit_lost():
    """Payload and commit lost toward a replica outside the fast quorum.  It
    learns of the dot through an attached promise alone, broadcast before
    anybody committed, and asks nobody until the dot is overdue."""
    cluster = TempoCluster(num_processes=5, faults=1)
    victim = non_quorum_member(cluster)
    drive = Drive(cluster, victim, toward(victim, MPayload, MCommit))
    command = cluster.submit(0, ["x"])
    cluster.network.step()  # proposals made, acks still queued: not committed
    for process in cluster.processes:
        process.broadcast_promises(0.0)
    cluster.run()
    return drive, command.dot, Need.COMMIT, 1


def hinted_commit_lost():
    """Payload and commit lost toward a replica that first hears of the dot
    from a peer's MPromises after everybody else committed it."""
    cluster = TempoCluster(num_processes=5, faults=1)
    victim = non_quorum_member(cluster)
    drive = Drive(cluster, victim, toward(victim, MPayload, MCommit))
    command = cluster.submit(0, ["x"])
    cluster.run()
    return drive, command.dot, Need.COMMIT, 1


def repair_request_lost_once():
    """As above, and the first round of MRepairRequests is lost as well."""
    drive, dot, need, _ = hinted_commit_lost()
    lost = drive.lose
    drive.lose = lambda e, now: lost(e, now) or (
        isinstance(e.message, MRepairRequest) and now < 2 * WINDOW
    )
    return drive, dot, need, 2


def peer_promises_lost():
    """Every MPromises toward one replica lost while six conflicting
    commands commit: holes in its view of its peers freeze the frontier."""
    cluster = TempoCluster(num_processes=3, faults=1)
    victim = cluster.process(0)
    drive = Drive(cluster, victim, toward(victim, MPromises))
    for index in range(6):
        command = cluster.submit(index % 3, ["hot"])
        cluster.network.step()
    cluster.run()
    return drive, command.dot, Need.PROMISES, 2


def cross_shard_stable_lost(commands: int = 1):
    """Every MStable from partition 0 toward partition 1 lost."""

    class ByPrefix(Partitioner):
        def partition_of(self, key: str) -> int:
            return 1 if key.startswith("p1") else 0

    cluster = TempoCluster(
        num_processes=3, faults=1, num_partitions=2, partitioner=ByPrefix(2)
    )
    victim = cluster.process(3)
    drive = Drive(
        cluster,
        victim,
        lambda e, now: now < WINDOW
        and isinstance(e.message, MStable)
        and e.sender < 3 <= e.destination,
    )
    for _ in range(commands):
        command = cluster.submit(0, ["p0-a", "p1-a"])
    cluster.run()
    return drive, command.dot, Need.STABLE, 2


ROWS = [
    attached_only_commit_lost,
    hinted_commit_lost,
    repair_request_lost_once,
    peer_promises_lost,
    cross_shard_stable_lost,
]


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.__name__)
def test_missing_ingredient_is_reported_asked_for_and_repaired(row):
    drive, dot, need, windows = row()
    victim = drive.victim
    assert dot not in victim.executed_dots()
    assert victim.blocked_on(0.0) == []  # within its patience: not overdue

    drive.run(until=(windows + 2) * WINDOW)

    # What blocked_on() said: only this need, and from the moment the
    # need's patience ran out (one window for a commit, two otherwise).
    patience = WINDOW if need is Need.COMMIT else 2 * WINDOW
    reported = {(n, d) for blocked in drive.reports.values() for n, d, _ in blocked}
    assert {n for n, _ in reported} == {need}
    if need is not Need.PROMISES:  # there the head is the oldest stuck dot
        assert reported == {(need, dot)}
    first = min(drive.reports)
    since = drive.reports[first][0][2]
    assert patience <= first - since < patience + 2 * TICK

    # Converged within the budget, and nothing is left waiting.
    assert dot in victim.executed_dots()
    assert max(drive.reports) <= since + patience + windows * WINDOW
    for process in drive.cluster.processes:
        assert process.blocked_on(float("inf")) == []

    # At most one request round per window per blocked item.
    assert set(drive.rounds) == reported
    for times in drive.rounds.values():
        ordered = sorted(times)
        assert all(b - a >= WINDOW for a, b in zip(ordered, ordered[1:]))
        assert len(ordered) <= windows


def test_stable_backlog_is_pulled_in_one_round():
    """Six cross-shard commands all lack partition 0's MStable.  Only the
    head of the stable heap is ever reported, but the round it triggers
    asks for every one of them, so the last executes as soon as the first
    — not one head, and two windows, at a time."""
    drive, last, need, windows = cross_shard_stable_lost(commands=6)
    victim = drive.victim
    drive.run(until=(windows + 2) * WINDOW)

    dots = [Dot(0, sequence) for sequence in range(1, last.sequence + 1)]
    assert victim.executed_dots() == dots
    reported = {(n, d) for blocked in drive.reports.values() for n, d, _ in blocked}
    assert reported == {(need, dots[0])}
    assert set(drive.rounds) == {(need, dot) for dot in dots}
    (asked_at,) = set.union(*drive.rounds.values())  # one round, one tick
    # Answered within it: the next tick's observation clears the head.
    assert max(drive.reports) == asked_at + TICK
    for process in drive.cluster.processes:
        assert process.blocked_on(float("inf")) == []


def test_healthy_run_is_never_blocked_and_never_asks():
    cluster = TempoCluster(num_processes=5, faults=1)
    drive = Drive(cluster, cluster.process(4), lambda e, now: False)
    blocked = []
    for round in range(600):  # 3 s, a command every 25 ms
        if round % 5 == 0:
            cluster.submit(round % 5, ["hot" if round % 2 else f"k{round}"], drive.now)
        drive.run(until=drive.now + TICK)
        blocked += [p.blocked_on(drive.now) for p in cluster.processes]
    assert all(report == [] for report in blocked)
    assert drive.rounds == {}
    for process in cluster.processes:
        assert len(process.executed) == 120
        assert "MRepairRequest" not in process.message_counts


def test_blocked_on_is_pure():
    drive, dot, need, _ = hinted_commit_lost()
    victim = drive.victim
    drive.run(until=TICK)  # the first promise broadcast names the dot
    overdue_at = TICK + WINDOW
    assert victim.blocked_on(overdue_at - TICK) == []
    assert victim.blocked_on(overdue_at) == [(need, dot, TICK)]
    assert victim.blocked_on(overdue_at) == [(need, dot, TICK)]
    assert victim.drain_outbox() == []


# -- a stale frontier below collected history ----------------------------------


def stale_frontier_reply(history: int):
    """Lose every MPromises from replica 2 toward replica 0 while ``history``
    commands execute and are collected everywhere (0 still has a majority:
    itself and replica 1), restart 0, then lose replica 1's promises as
    well for one more command, so that 0 has to ask.  Returns replica 2's
    answers to 0's PROMISES requests, 2's clock when the history was
    collected, the frontier 0 held for 2 at that point and the last dot."""
    cluster = TempoCluster(num_processes=3, faults=1)
    victim, peer = cluster.process(0), cluster.process(2)
    replies: List[MPromises] = []
    lost_from = {2}
    lost_until = [float("inf")]

    def lose(envelope: Envelope, now: float) -> bool:
        if envelope.destination != 0 or not isinstance(envelope.message, MPromises):
            return False
        if now < lost_until[0] and envelope.sender in lost_from:
            return True
        if envelope.sender == 2:
            replies.append(envelope.message)
        return False

    drive = Drive(cluster, victim, lose)
    for index in range(history):
        cluster.submit(index % 3, ["hot"], drive.now)
        drive.run(until=drive.now + 5 * TICK)
    drive.run(until=drive.now + 40 * TICK)  # the last clock exchanges
    collected_up_to = peer.order.clock
    stale = victim.order.frontier(2)
    assert len(victim.executed) == history
    assert peer._info == {}
    assert peer.order.issued_above(0) == ({2: ((1, collected_up_to),)}, {})

    victim.crash()
    victim.recover_process()
    lost_from.add(1)
    lost_until[0] = drive.now + WINDOW
    command = cluster.submit(2, ["hot"], drive.now)
    drive.run(until=drive.now + 4 * WINDOW)
    assert command.dot in victim.executed_dots()
    assert {need for need, _ in drive.rounds} == {Need.PROMISES}
    return replies, collected_up_to, stale, command.dot


def test_one_reply_lifts_a_stale_frontier_past_collected_history():
    replies, collected_up_to, stale, in_flight = stale_frontier_reply(history=9)
    assert stale < collected_up_to
    # One MPromises: the collected commands' promises as one range from the
    # stale frontier up, no attached entry (nor commit) for any of them.
    (reply,) = replies
    (span, *_), = reply.detached.values()
    assert span[0] == stale + 1 and span[1] >= collected_up_to
    assert set(reply.attached) == {in_flight}


def test_promise_reply_size_does_not_depend_on_run_length():
    (short,), *_ = stale_frontier_reply(history=9)
    (long,), *_ = stale_frontier_reply(history=90)
    assert len(long.attached) == len(short.attached)
    # Ten times the history widens a varint or two, nothing else.
    assert long.size_bytes() <= short.size_bytes() + 4


# -- the dependency baselines pull through the same pass -----------------------


@pytest.mark.parametrize(
    "protocol, shards",
    [("atlas", 1), ("epaxos", 1), ("janus", 2)],
)
def test_healthy_baseline_run_is_never_blocked_and_never_asks(
    monkeypatch, protocol, shards
):
    """A healthy wide-area run of a dependency protocol waits well inside
    one window for every commit it awaits, so its pull never fires."""
    overdue, awaited = [], []
    pull = PullMixin._pull_overdue

    def watched(process, now):
        overdue.extend(process.blocked_on(now))
        awaited.append(len(process._blocked[Need.COMMIT]))
        pull(process, now)

    monkeypatch.setattr(PullMixin, "_pull_overdue", watched)
    result = run_experiment(
        ExperimentConfig(
            protocol=protocol,
            num_sites=5 if shards == 1 else 3,
            num_shards=shards,
            keys_per_command=shards,
            conflict_rate=0.1,
            duration_ms=2_000.0,
        )
    )
    assert result.completed > 0
    assert max(awaited) > 0  # the pass was watching commits all along
    assert overdue == []
    assert "sent:MRepairRequest" not in result.stats
