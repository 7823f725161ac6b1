"""Real wire format: per-kind binary codecs and framed byte transport.

Every protocol message (Tempo's in :mod:`repro.core.messages`, the
baselines' in :mod:`repro.protocols.dep_messages`) and the
:class:`repro.core.base.MBatch` transport envelope has a registered binary
codec with a ``decode(encode(m)) == m`` round-trip guarantee.  The bodies
are generated from the per-class declarations in
:mod:`repro.core.wireschema` — the same source ``size_bytes()`` is generated
from, so the simulator's byte accounting is exact by construction — and the
asyncio runtime ships :func:`encode_frame` frames through its channels and
stream transports.  See ``docs/wire_format.md``.
"""

from repro.core.wireschema import Reader, WireError
from repro.wire.codecs import (
    KIND_TO_TYPE,
    TYPE_TO_KIND,
    decode,
    decode_frame,
    encode,
    encode_frame,
    encoded_size,
    has_codec,
    registered_types,
)
from repro.wire.samples import sample_messages

__all__ = [
    "KIND_TO_TYPE",
    "Reader",
    "TYPE_TO_KIND",
    "WireError",
    "decode",
    "decode_frame",
    "encode",
    "encode_frame",
    "encoded_size",
    "has_codec",
    "registered_types",
    "sample_messages",
]
