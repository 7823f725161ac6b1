"""Logical clocks used for Tempo timestamp proposals.

Each Tempo process keeps a scalar ``Clock`` from which timestamp proposals
are generated (Algorithm 1).  The two operations on the clock are:

* ``proposal(m)`` — compute ``t = max(m, Clock + 1)``, record the promises
  issued by the jump from ``Clock`` to ``t`` and bump the clock to ``t``
  (lines 34-39 of Algorithm 1);
* ``bump(t)`` — advance the clock to at least ``t`` and record detached
  promises for every timestamp skipped (lines 40-43).

Promise bookkeeping lives in :mod:`repro.core.promises`; the clock only
reports which timestamps were consumed by each operation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ProposalResult:
    """Result of a timestamp proposal.

    Attributes:
        timestamp: the proposed timestamp ``t``.
        detached: timestamps in ``[old_clock + 1, t - 1]`` that will never be
            proposed by this process (become detached promises).
    """

    timestamp: int
    detached: range


@dataclass
class BumpResult:
    """Result of bumping the clock.

    Attributes:
        new_clock: the clock value after the bump.
        detached: timestamps in ``[old_clock + 1, new_clock]`` that become
            detached promises.
    """

    new_clock: int
    detached: range


@dataclass
class LogicalClock:
    """Per-process scalar clock (the ``Clock`` variable of Algorithm 1)."""

    value: int = 0

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("clock value must be non-negative")

    def proposal(self, minimum: int) -> ProposalResult:
        """Compute a timestamp proposal of at least ``minimum``.

        Returns the proposal ``t = max(minimum, Clock + 1)`` together with
        the detached promises generated by skipping timestamps, and bumps
        the clock to ``t``.
        """
        if minimum < 0:
            raise ValueError("proposal minimum must be non-negative")
        timestamp = max(minimum, self.value + 1)
        detached = range(self.value + 1, timestamp)
        self.value = timestamp
        return ProposalResult(timestamp=timestamp, detached=detached)

    def bump(self, timestamp: int) -> BumpResult:
        """Advance the clock to at least ``timestamp``.

        Every timestamp skipped over (including ``timestamp`` itself when the
        clock moves) becomes a detached promise: this process will never
        propose it for any command (function ``bump``, Algorithm 1 line 40).
        """
        if timestamp < 0:
            raise ValueError("bump timestamp must be non-negative")
        new_value = max(timestamp, self.value)
        detached = range(self.value + 1, new_value + 1)
        self.value = new_value
        return BumpResult(new_clock=new_value, detached=detached)
