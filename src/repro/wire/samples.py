"""Canonical sample messages, one per registered wire kind.

Shared by the round-trip tests and the codec microbenchmark.  Every kind's
sample is derived from its class: each field carries its field type's
``sample`` (:mod:`repro.core.wireschema`), values representative of the
traffic the fig5/fig6 experiments generate (100-byte payloads,
single-partition fast quorums, a couple of dependencies / piggybacked
promises).

Two samples are written out: ``MPropose/links`` carries a cross-partition
command whose source last minted over partition 1 at sequence 30 (its
chain link, ``Command.links``), the one layout the derived samples leave
out; ``MBatch``, the envelope, nests three derived samples.

Everything here is deterministic — same instances, same bytes, every call —
which is what lets ``tests/test_core/wire_frames.json`` pin every frame byte
for byte.
"""

from __future__ import annotations

from typing import Dict

from repro.core.base import MBatch
from repro.core.commands import Command
from repro.core.messages import MPropose
from repro.core.wireschema import DOT, SVARINT
from repro.wire.codecs import registered_types


def sample_messages() -> Dict[str, object]:
    """One representative instance per registered kind, keyed by kind name,
    plus ``MPropose/links``."""
    samples = {
        cls.__name__: cls(*(field_type.sample for _, field_type in cls.WIRE_FIELDS))
        for cls in registered_types()
        if cls is not MBatch
    }
    linked = Command.write(
        DOT.sample,
        ["key-0", "key-1"],
        payload_size=100,
        client_id=7,
        links=((1, 30),),
    )
    samples["MPropose/links"] = MPropose(
        DOT.sample, linked, {0: (0, 2, 3), 1: (1, 4, 5)}, SVARINT.sample
    )
    samples["MBatch"] = MBatch(
        (samples["MCommit"], samples["MStable"], samples["MConsensusAck"])
    )
    return samples
