"""A deterministic in-memory key-value store.

This is the state machine the SMR protocols replicate.  It applies
:class:`repro.core.commands.Command` objects: writes store the command's
value for the key, reads return the current value.  The store holds the
application's data and nothing else: the order commands executed in is the
replica's execution log (``ProcessBase.executed``), and the at-most-once
check is the replica's execution seam (``ProcessBase._execute_command``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.commands import Command


class KeyValueStore:
    """Single-partition deterministic key-value store."""

    def __init__(self, partition: int = 0) -> None:
        self.partition = partition
        self._data: Dict[str, Optional[str]] = {}

    def apply(self, command: Command) -> Dict[str, Optional[str]]:
        """Apply ``command`` and return the per-key results.

        For a write, the result maps the key to the value written; for a
        read, it maps the key to the value read (``None`` if absent).
        """
        results: Dict[str, Optional[str]] = {}
        for op in command.ops:
            if op.is_write():
                self._data[op.key] = op.value
                results[op.key] = op.value
            else:
                results[op.key] = self._data.get(op.key)
        return results

    def get(self, key: str) -> Optional[str]:
        """Current value of ``key`` (``None`` when absent)."""
        return self._data.get(key)

    def keys(self) -> List[str]:
        """Keys currently present in the store."""
        return sorted(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        """Whether both stores hold the same contents, compared in place."""
        if not isinstance(other, KeyValueStore):
            return NotImplemented
        return self._data == other._data

    #: Mutable, so unhashable.
    __hash__ = None  # type: ignore[assignment]

    def snapshot(self) -> Dict[str, Optional[str]]:
        """Copy of the current contents."""
        return dict(self._data)
