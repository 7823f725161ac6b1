"""Batching of client commands (§6.3, Figure 8).

The paper batches commands at a site: a batch is flushed after 5 ms or once
105 commands are buffered, whichever comes first; the batch is then
submitted as a single multi-partition command.  :class:`BatchingModel`
captures the effect that has on the per-command resource cost, which is
what the Figure 8 throughput model needs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BatchingModel:
    """Analytical effect of batching on per-command costs (Figure 8).

    With a batch of ``b`` commands, protocol-level messages are sent once
    per batch instead of once per command, so per-command *protocol* CPU and
    per-command message *header* bytes shrink by a factor ``b``; payload
    bytes are unaffected (every command's payload still crosses the wire),
    and so is the per-command execution (state-machine application) cost.
    """

    enabled: bool = True
    expected_batch_size: float = 105.0

    def effective_batch(self, offered_rate_per_site: float = float("inf")) -> float:
        """Average batch size.

        With the 5 ms / 105-command flush policy the batch size is capped
        both by 105 and by how many commands arrive in 5 ms.
        """
        if not self.enabled:
            return 1.0
        arrivals_in_window = offered_rate_per_site * 0.005
        if arrivals_in_window == float("inf"):
            return self.expected_batch_size
        return max(1.0, min(self.expected_batch_size, arrivals_in_window))

    def amortization_factor(self, offered_rate_per_site: float = float("inf")) -> float:
        """Divisor applied to per-command protocol overheads."""
        return self.effective_batch(offered_rate_per_site)
