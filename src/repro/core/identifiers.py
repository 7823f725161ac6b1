"""Command identifiers ("dots").

Tempo identifies every submitted command with a globally unique identifier.
Following the fantoch implementation, an identifier is a *dot*: a pair of the
identifier of the process that created it and a local monotonically
increasing sequence number.  The dot also encodes the *initial coordinator*
of the command at the partition of the creating process, which is what the
recovery protocol's ``initial_p(id)`` function extracts (Algorithm 4).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass(frozen=True, order=True, slots=True, weakref_slot=True)
class Dot:
    """A globally unique command identifier.

    One exists per command in flight, so it is slotted (``__slots__ ==
    ("source", "sequence", "_hash", "__weakref__")``); the weak-reference
    slot lets the intern table hold it without keeping it alive.  It
    pickles and copies through :func:`intern_dot`, so a restored snapshot
    holds the interned instances.

    Attributes:
        source: identifier of the process that created (submitted) the
            command.  For the partition replicated by that process, this is
            also the command's initial coordinator.
        sequence: per-source monotonically increasing counter, starting at 1.
    """

    source: int
    sequence: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sequence < 1:
            raise ValueError(f"dot sequence must be >= 1, got {self.sequence}")
        if self.source < 0:
            raise ValueError(f"dot source must be >= 0, got {self.source}")
        # Collision-free for source < 64; hot enough (set/dict membership in
        # the simulator and the dependency graphs) that computing it once
        # here instead of on every __hash__ call is measurable.
        object.__setattr__(self, "_hash", self.sequence * 64 + self.source)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object):
        if other is self:
            return True
        if other.__class__ is Dot:
            return self.source == other.source and self.sequence == other.sequence
        return NotImplemented

    def __reduce__(self):
        return intern_dot, (self.source, self.sequence)

    def initial_coordinator(self) -> int:
        """Return the process that initially coordinated this command."""
        return self.source

    def __str__(self) -> str:
        """Not cosmetic: ``Command.write`` stores ``str(dot)`` as every value
        it writes and ``COMMAND`` encodes it on the wire, so it is in every
        store, in ``bytes_sent`` and in every golden byte column."""
        return f"{self.source}.{self.sequence}"


class _InternRef(weakref.ref):
    """The intern table's weak reference to a dot; it knows its slot, so
    the dot's death can clear it (:func:`_forget`)."""

    __slots__ = ("table", "sequence")


def _forget(ref: _InternRef) -> None:
    """Weak-reference callback: a dead dot's entry leaves its table."""
    table = ref.table
    if table.get(ref.sequence) is ref:
        del table[ref.sequence]


#: Global intern table: per source, ``sequence -> weak reference`` to the
#: one live instance of that identifier.  It keeps no dot alive: an entry
#: goes when its dot does, so a command collected everywhere leaves nothing
#: here (``docs/memory.md``).
_INTERN: Dict[int, Dict[int, _InternRef]] = {}


def intern_dot(source: int, sequence: int) -> Dot:
    """Return the canonical :class:`Dot` for ``(source, sequence)``: the
    live instance if there is one, else a new one that becomes it.

    Repeatedly materialising the same identifier (``peek`` followed by
    ``next_id``, decoding, the GC naming a collected dot, tests) otherwise
    allocates distinct-but-equal objects; sharing one instance lets the
    hot set/dict probes short-circuit on identity before falling back to
    field comparison.  Validation lives in ``Dot.__post_init__`` and still
    applies to every interned identifier.
    """
    table = _INTERN.get(source)
    if table is None:
        if source < 0:
            # Delegate to the constructor, which raises the validation error.
            return Dot(source, sequence)
        table = _INTERN[source] = {}
    ref = table.get(sequence)
    if ref is not None:
        dot = ref()
        if dot is not None:
            return dot
    dot = Dot(source, sequence)
    ref = table[sequence] = _InternRef(dot, _forget)
    ref.table = table
    ref.sequence = sequence
    return dot


@dataclass
class DotGenerator:
    """Generates fresh :class:`Dot` identifiers for a single process.

    The generator is deterministic, which keeps simulation runs reproducible.
    Identifiers are interned in a per-source table shared with
    :func:`intern_dot`, so every materialisation of a live ``(source,
    sequence)`` pair yields the same object.
    """

    source: int
    _next: int = field(default=1)

    def next_id(self) -> Dot:
        """Return a fresh identifier; never returns the same dot twice."""
        dot = intern_dot(self.source, self._next)
        self._next += 1
        return dot

    def peek(self) -> Dot:
        """Return the identifier :meth:`next_id` would produce, without
        consuming it."""
        return intern_dot(self.source, self._next)

    def __iter__(self) -> Iterator[Dot]:
        while True:
            yield self.next_id()
