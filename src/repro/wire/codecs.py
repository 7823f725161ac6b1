"""Kind-byte registry and framing for every protocol message.

``decode(encode(m)) == m`` for every registered kind, so the runtime can
ship frames over real transports.  Wire layout (``docs/wire_format.md``)::

    frame   := uvarint(len(payload)) payload
    payload := kind_byte body
    body    := fields in dataclass order, dot first

The bodies are not written here: each message class declares its fields
once with :func:`repro.core.wireschema.wire_schema`, which generates its
``encode_body``/``decode_body`` (and ``size_bytes()``) from the field types
in that module.  This module adds what a class cannot know about itself —
its append-only kind byte — plus the one hand-written body, the
:class:`repro.core.base.MBatch` transport envelope, which nests inner
frames and may nest further batches.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.core.base import MBatch
from repro.core.messages import (
    ClientReply,
    ClientSubmit,
    MBump,
    MCommit,
    MCommitRequest,
    MConsensus,
    MConsensusAck,
    MDeliveryAck,
    MExecutedClock,
    MPayload,
    MPromises,
    MPropose,
    MProposeAck,
    MRec,
    MRecAck,
    MRecNAck,
    MRepairRequest,
    MStable,
    MSubmit,
)
from repro.protocols.dep_messages import (
    MAccept,
    MAccepted,
    MCaesarCommit,
    MCaesarPropose,
    MCaesarProposeAck,
    MCaesarRetry,
    MCaesarRetryAck,
    MDecided,
    MDepAccept,
    MDepAcceptAck,
    MDepCommit,
    MForward,
    MJanusDeps,
    MPreAccept,
    MPreAcceptAck,
)
from repro.core.wireschema import Reader, WireError, uvarint_size, write_uvarint


def _enc_mbatch(buf: bytearray, m: MBatch) -> None:
    write_uvarint(buf, len(m.messages))
    for inner in m.messages:
        _encode_frame_into(buf, inner)


def _dec_mbatch(r: Reader) -> MBatch:
    count = r.read_uvarint()
    return MBatch(tuple(_decode_frame_from(r) for _ in range(count)))


# -- registry ---------------------------------------------------------------------

#: Stable kind-byte assignments; append-only, never reorder (the byte is the
#: on-wire dispatch key).  Adding a kind is one row here, next to the class's
#: ``@wire_schema`` declaration and its sample in ``wire/samples.py``.  A
#: retired kind leaves a gap — 32 (MPromiseResync) and 35 (MStableRequest)
#: went when the repair pass replaced them — and its byte is never reused.
_KINDS: Tuple[Tuple[int, type], ...] = (
    (0, MBatch),
    (1, MSubmit),
    (2, MPropose),
    (3, MProposeAck),
    (4, MPayload),
    (5, MCommit),
    (6, MConsensus),
    (7, MConsensusAck),
    (8, MBump),
    (9, MPromises),
    (10, MStable),
    (11, MRec),
    (12, MRecAck),
    (13, MRecNAck),
    (14, MCommitRequest),
    (15, ClientSubmit),
    (16, ClientReply),
    (17, MPreAccept),
    (18, MPreAcceptAck),
    (19, MDepAccept),
    (20, MDepAcceptAck),
    (21, MDepCommit),
    (22, MCaesarPropose),
    (23, MCaesarProposeAck),
    (24, MCaesarRetry),
    (25, MCaesarRetryAck),
    (26, MCaesarCommit),
    (27, MForward),
    (28, MAccept),
    (29, MAccepted),
    (30, MDecided),
    (31, MJanusDeps),
    (33, MExecutedClock),
    (34, MDeliveryAck),
    (36, MRepairRequest),
)

#: Message class -> (kind byte, body encoder); the class keys mirror the
#: protocols' type-keyed ``_dispatch`` tables.
_ENCODERS: Dict[type, Tuple[int, Callable]] = {}
#: Kind byte -> body decoder.
_DECODERS: Dict[int, Callable[[Reader], object]] = {}
#: Kind byte -> message class (introspection/tests).
KIND_TO_TYPE: Dict[int, type] = {}
#: Message class -> kind byte.
TYPE_TO_KIND: Dict[type, int] = {}

for _kind_id, _cls in _KINDS:
    if not 0 <= _kind_id <= 0xFF:
        raise RuntimeError(f"kind byte {_kind_id} out of range")
    if _kind_id in _DECODERS or _cls in _ENCODERS:
        raise RuntimeError(f"duplicate codec registration: {_kind_id} / {_cls.__name__}")
    if _cls is MBatch:
        _ENCODERS[_cls] = (_kind_id, _enc_mbatch)
        _DECODERS[_kind_id] = _dec_mbatch
    else:
        # ``vars``: the class's own declaration, not one inherited from a base.
        if "WIRE_FIELDS" not in vars(_cls):
            raise RuntimeError(f"{_cls.__name__} has no @wire_schema declaration")
        _ENCODERS[_cls] = (_kind_id, _cls.encode_body)
        _DECODERS[_kind_id] = _cls.decode_body
    KIND_TO_TYPE[_kind_id] = _cls
    TYPE_TO_KIND[_cls] = _kind_id


def registered_types() -> Tuple[type, ...]:
    """Every message class with a codec, in kind-byte order."""
    return tuple(KIND_TO_TYPE[kind] for kind in sorted(KIND_TO_TYPE))


def has_codec(message_type: type) -> bool:
    """Whether ``message_type`` has a registered codec."""
    return message_type in _ENCODERS


# -- public encode/decode -----------------------------------------------------------


def _encode_payload(message: object) -> bytearray:
    entry = _ENCODERS.get(message.__class__)
    if entry is None:
        raise WireError(f"no codec registered for {message.__class__.__name__}")
    kind_id, encoder = entry
    payload = bytearray((kind_id,))
    encoder(payload, message)
    return payload


def encode(message: object) -> bytes:
    """Encode one message as ``kind_byte + body`` (no length prefix)."""
    return bytes(_encode_payload(message))


def decode(data: bytes) -> object:
    """Decode one ``kind_byte + body`` payload; rejects trailing garbage."""
    reader = Reader(data)
    message = _decode_payload(reader)
    reader.expect_end("payload")
    return message


def _decode_payload(reader: Reader) -> object:
    kind_id = reader.read_byte()
    decoder = _DECODERS.get(kind_id)
    if decoder is None:
        raise WireError(f"unknown message kind byte {kind_id}")
    return decoder(reader)


def _encode_frame_into(buf: bytearray, message: object) -> None:
    payload = _encode_payload(message)
    write_uvarint(buf, len(payload))
    buf += payload


def _decode_frame_from(reader: Reader) -> object:
    length = reader.read_uvarint()
    payload = reader.sub_reader(length)
    message = _decode_payload(payload)
    payload.expect_end("frame")
    return message


def encode_frame(message: object) -> bytes:
    """Encode one message as a length-prefixed frame (the stream unit)."""
    buf = bytearray()
    _encode_frame_into(buf, message)
    return bytes(buf)


def decode_frame(data: bytes, offset: int = 0) -> Tuple[object, int]:
    """Decode one frame at ``offset``; return ``(message, next_offset)``."""
    reader = Reader(data, offset)
    message = _decode_frame_from(reader)
    return message, reader.position


def encoded_size(message: object) -> int:
    """Length of ``message``'s encoded frame, prefix included (the frame is
    materialised; ``Message.size_bytes()`` computes the same number without)."""
    payload = len(_encode_payload(message))
    return uvarint_size(payload) + payload


__all__ = [
    "KIND_TO_TYPE",
    "TYPE_TO_KIND",
    "decode",
    "decode_frame",
    "encode",
    "encode_frame",
    "encoded_size",
    "has_codec",
    "registered_types",
]
