"""Kind-byte registry and framing for every protocol message.

``decode(encode(m)) == m`` for every registered kind, so the runtime can
ship frames over real transports.  Wire layout (``docs/wire_format.md``)::

    frame   := uvarint(len(payload)) payload
    payload := kind_byte body
    body    := fields in dataclass order, dot first

The bodies are not written here: each message class is its own
declaration — :func:`repro.core.wireschema.wire_schema` names its
append-only kind byte, each field's annotation its field type — from which
the decorator generates ``encode_body``/``decode_body`` (and
``size_bytes()``).  This module walks the declared classes into the
kind-byte registry and adds the one hand-written body, the
:class:`repro.core.base.MBatch` transport envelope (kind 0), which nests
inner frames and may nest further batches.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.core import messages as core_messages
from repro.core.base import MBatch
from repro.core.wireschema import Reader, WireError, uvarint_size, write_uvarint
from repro.protocols import dep_messages


def _enc_mbatch(buf: bytearray, m: MBatch) -> None:
    write_uvarint(buf, len(m.messages))
    for inner in m.messages:
        _encode_frame_into(buf, inner)


def _dec_mbatch(r: Reader) -> MBatch:
    count = r.read_uvarint()
    return MBatch(tuple(_decode_frame_from(r) for _ in range(count)))


# -- registry ---------------------------------------------------------------------

#: Message class -> (kind byte, body encoder); the class keys mirror the
#: protocols' type-keyed ``_dispatch`` tables.
_ENCODERS: Dict[type, Tuple[int, Callable]] = {}
#: Kind byte -> body decoder.
_DECODERS: Dict[int, Callable[[Reader], object]] = {}
#: Kind byte -> message class (introspection/tests).
KIND_TO_TYPE: Dict[int, type] = {}
#: Message class -> kind byte.
TYPE_TO_KIND: Dict[type, int] = {}


def _register(kind_id: int, cls: type, encoder: Callable, decoder: Callable) -> None:
    if kind_id in KIND_TO_TYPE:
        raise RuntimeError(
            f"kind byte {kind_id} declared by both "
            f"{KIND_TO_TYPE[kind_id].__name__} and {cls.__name__}"
        )
    _ENCODERS[cls] = (kind_id, encoder)
    _DECODERS[kind_id] = decoder
    KIND_TO_TYPE[kind_id] = cls
    TYPE_TO_KIND[cls] = kind_id


#: Kind 0, the one hand-written body; every other kind is a class of the two
#: message modules carrying its own ``@wire_schema`` declaration (``vars``:
#: declared on the class itself, not inherited, not imported from the other
#: module), registered under the byte it names.
_register(0, MBatch, _enc_mbatch, _dec_mbatch)
for _module in (core_messages, dep_messages):
    for _cls in vars(_module).values():
        if (
            isinstance(_cls, type)
            and _cls.__module__ == _module.__name__
            and "WIRE_KIND" in vars(_cls)
        ):
            _register(_cls.WIRE_KIND, _cls, _cls.encode_body, _cls.decode_body)


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
