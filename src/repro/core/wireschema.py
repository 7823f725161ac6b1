"""The wire schema: varint primitives, field types and the per-kind generator.

This is the single source of the wire layout.  A message class is its own
declaration: the decorator names its append-only kind byte, and each field's
annotation names its wire type::

    @wire_schema(6)
    @dataclass(frozen=True)
    class MConsensus(Message):
        timestamp: Svarint
        ballot: Svarint

:func:`wire_schema` reads the field types from the annotations and
generates, at class-definition time, the body encoder, the body decoder and
``size_bytes()`` (generated source, the way ``dataclasses`` builds
``__init__``).  A *field type* is one object holding ``write(buf, value)``,
``read(reader)``, ``size(value)`` and a representative ``sample`` side by
side, so the views of a layout cannot drift; each has a PEP 593 alias
(``Svarint = Annotated[int, SVARINT]``, ...) for annotating fields, and
:func:`repro.wire.sample_messages` builds one message per kind from the
samples.

The module sits below :mod:`repro.core.messages` in the import graph;
:mod:`repro.wire.codecs` walks the declared classes into the kind-byte
registry and adds the framing on top.

Layout rules (``docs/wire_format.md`` has the framing):

* Integers are LEB128 varints — seven payload bits per byte, high bit =
  continuation: unsigned for structurally non-negative fields (dot
  components, counts, lengths, process/partition ids, promise timestamps),
  zigzag-signed for values recovery or clients could drive negative
  (timestamps, ballots, sequences, slots, client ids).
* Collections are count-prefixed and sorted on write, which makes the
  encoding canonical: equal messages produce identical bytes.
* Decoding never trusts its input: every read is bounds-checked and raises
  :class:`WireError` on truncation, oversized varints, oversized frames or
  malformed UTF-8 — never an ``IndexError`` or a half-decoded message.
* Decoding hands back canonical objects where it can: a dot is the interned
  one (:func:`~repro.core.identifiers.intern_dot`), and a short string is
  the object this process registered for that text (encoding and decoding
  both register), so the replicas of an in-process cluster hold one copy
  of each key and value, not one each.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Annotated,
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Tuple,
    get_type_hints,
)

from repro.core.commands import Command, KeyOp, OpKind
from repro.core.identifiers import Dot, intern_dot
from repro.core.phases import Phase
from repro.core.promises import PromiseRangeWire

#: Hard cap on a single varint's width (10 bytes encode up to 70 bits,
#: enough for any 64-bit value); anything longer is corruption.
_MAX_VARINT_BYTES = 10

#: Largest frame a decoder accepts.  A peer-declared length is untrusted
#: input: without a cap, a 2**40-byte declaration makes a stream reader
#: wait and buffer without bound.  16 MiB is orders of magnitude above the
#: largest batch any experiment ships.
MAX_FRAME_BYTES = 1 << 24


class WireError(ValueError):
    """Raised on any malformed, truncated or unencodable wire data."""


# -- canonical strings --------------------------------------------------------------
#
# A ``str`` cannot be weakly referenced, so unlike the dot intern table this
# one holds its strings strongly and is bounded instead: it is emptied when
# full, and strings above the length bound are never registered.  Not
# ``sys.intern``: its table only grows, and on Python 3.12 an interned string
# is immortal, so interning per-command values would leak.

#: Registered strings at most; the table is emptied when it reaches this.
CANONICAL_STRING_ENTRIES = 1024
#: Longest string, in UTF-8 bytes, that is registered.
CANONICAL_STRING_BYTES = 64

#: ``text -> text``: the one object per registered text.
_CANONICAL_STRINGS: Dict[str, str] = {}


def _register_string(text: str) -> str:
    """Register ``text`` (not yet registered, within the length bound) and
    return it, emptying the table first when it is full."""
    table = _CANONICAL_STRINGS
    if len(table) >= CANONICAL_STRING_ENTRIES:
        table.clear()
    table[text] = text
    return text


# -- varint and string primitives ---------------------------------------------------


def write_uvarint(buf: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if value < 0:
        raise WireError(f"cannot encode negative value {value} as uvarint")
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def write_svarint(buf: bytearray, value: int) -> None:
    """Append ``value`` as a zigzag-encoded signed varint."""
    if not -(1 << 63) <= value < (1 << 63):
        raise WireError(f"signed value {value} exceeds 64 bits")
    write_uvarint(buf, (value << 1) ^ (value >> 63))


def write_string(buf: bytearray, value: str) -> None:
    """Append a length-prefixed UTF-8 string and register ``value``."""
    data = value.encode("utf-8")
    length = len(data)
    write_uvarint(buf, length)
    buf += data
    if length <= CANONICAL_STRING_BYTES and value not in _CANONICAL_STRINGS:
        _register_string(value)


def write_optional_string(buf: bytearray, value: Optional[str]) -> None:
    """Append a presence byte followed by the string when present."""
    if value is None:
        buf.append(0)
    else:
        buf.append(1)
        write_string(buf, value)


def uvarint_size(value: int) -> int:
    """Encoded width of a non-negative ``value`` as an unsigned varint."""
    # One byte covers the overwhelmingly common case (process ids, counts,
    # small sequences); larger values need ceil(bit_length / 7) bytes.  No
    # sign check on the accounting hot path: :func:`write_uvarint` is what
    # rejects a negative value.
    if value < 0x80:
        return 1
    return (value.bit_length() + 6) // 7


def _svarint_size(value: int) -> int:
    return uvarint_size((value << 1) ^ (value >> 63))


def _string_size(text: str) -> int:
    encoded = len(text.encode("utf-8"))
    return uvarint_size(encoded) + encoded


def _optional_string_size(text: Optional[str]) -> int:
    return 1 if text is None else 1 + _string_size(text)


class Reader:
    """Bounds-checked sequential reader over one immutable byte buffer."""

    __slots__ = ("_data", "_pos", "_end")

    def __init__(self, data: bytes, start: int = 0, end: Optional[int] = None) -> None:
        self._data = data
        self._pos = start
        self._end = len(data) if end is None else end
        if not 0 <= self._pos <= self._end <= len(data):
            raise WireError("reader bounds outside the buffer")

    @property
    def position(self) -> int:
        return self._pos

    def expect_end(self, context: str) -> None:
        """Fail unless the reader consumed its window exactly."""
        if self._pos != self._end:
            raise WireError(
                f"{context}: {self._end - self._pos} trailing bytes after decode"
            )

    def read_byte(self) -> int:
        if self._pos >= self._end:
            raise WireError("truncated frame: expected one more byte")
        value = self._data[self._pos]
        self._pos += 1
        return value

    def read_bytes(self, count: int) -> bytes:
        if count < 0 or self._pos + count > self._end:
            raise WireError(
                f"truncated frame: wanted {count} bytes, "
                f"{self._end - self._pos} available"
            )
        value = self._data[self._pos : self._pos + count]
        self._pos += count
        return value

    def skip(self, count: int) -> None:
        if count < 0 or self._pos + count > self._end:
            raise WireError(
                f"truncated frame: wanted {count} bytes, "
                f"{self._end - self._pos} available"
            )
        self._pos += count

    def sub_reader(self, length: int) -> "Reader":
        """Consume ``length`` bytes and return a reader bounded to them."""
        if length > MAX_FRAME_BYTES:
            raise WireError(f"declared frame of {length} bytes exceeds the cap")
        if length < 0 or self._pos + length > self._end:
            raise WireError(
                f"truncated frame: declared {length} bytes, "
                f"{self._end - self._pos} available"
            )
        sub = Reader(self._data, self._pos, self._pos + length)
        self._pos += length
        return sub

    def read_uvarint(self) -> int:
        value = 0
        shift = 0
        for _ in range(_MAX_VARINT_BYTES):
            byte = self.read_byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
        raise WireError("varint longer than 10 bytes")

    def read_svarint(self) -> int:
        zigzag = self.read_uvarint()
        return (zigzag >> 1) ^ -(zigzag & 1)

    def read_string(self) -> str:
        """The next string: the registered object when an equal one is."""
        data = self.read_bytes(self.read_uvarint())
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"malformed UTF-8 string: {exc}") from exc
        if len(data) > CANONICAL_STRING_BYTES:
            return text
        held = _CANONICAL_STRINGS.get(text)
        return _register_string(text) if held is None else held

    def read_optional_string(self) -> Optional[str]:
        flag = self.read_byte()
        if flag == 0:
            return None
        if flag != 1:
            raise WireError(f"invalid optional-string flag {flag}")
        return self.read_string()


# -- field types ----------------------------------------------------------------------
#
# One namespace per field type: ``write(buf, value)`` appends the encoding,
# ``read(reader)`` consumes it, ``size`` is its byte length — a callable of
# the value, or a plain ``int`` for fixed-width types — and ``sample`` is the
# value the canonical sample messages carry in every field of the type
# (``tests/test_core/wire_frames.json`` pins their frames).  The classes are
# never instantiated; :func:`wire_schema` binds the callables by name.


class UVARINT:
    """Structurally non-negative integer."""

    sample = 1

    write = staticmethod(write_uvarint)
    read = staticmethod(Reader.read_uvarint)
    size = staticmethod(uvarint_size)


class SVARINT:
    """Integer that recovery or a client could drive negative (zigzag)."""

    sample = 41

    write = staticmethod(write_svarint)
    read = staticmethod(Reader.read_svarint)
    size = staticmethod(_svarint_size)


#: Stable byte value per :class:`Phase` member (wire order, never reordered).
_PHASE_TO_BYTE: Dict[Phase, int] = {
    Phase.START: 0,
    Phase.PAYLOAD: 1,
    Phase.PROPOSE: 2,
    Phase.RECOVER_R: 3,
    Phase.RECOVER_P: 4,
    Phase.COMMIT: 5,
    Phase.EXECUTE: 6,
}
_BYTE_TO_PHASE: Dict[int, Phase] = {byte: phase for phase, byte in _PHASE_TO_BYTE.items()}


class PHASE:
    """One byte naming a :class:`Phase` member."""

    sample = Phase.PROPOSE

    @staticmethod
    def write(buf: bytearray, phase: Phase) -> None:
        buf.append(_PHASE_TO_BYTE[phase])

    @staticmethod
    def read(reader: Reader) -> Phase:
        byte = reader.read_byte()
        phase = _BYTE_TO_PHASE.get(byte)
        if phase is None:
            raise WireError(f"unknown phase byte {byte}")
        return phase

    size = 1


class DOT:
    """``uvarint(source) uvarint(sequence)``; decodes to the interned dot."""

    sample = Dot(2, 37)

    @staticmethod
    def write(buf: bytearray, dot) -> None:
        write_uvarint(buf, dot.source)
        write_uvarint(buf, dot.sequence)

    @staticmethod
    def read(reader: Reader):
        source = reader.read_uvarint()
        sequence = reader.read_uvarint()
        if sequence < 1:
            raise WireError(f"dot sequence must be >= 1, got {sequence}")
        return intern_dot(source, sequence)

    @staticmethod
    def size(dot) -> int:
        source = dot.source
        sequence = dot.sequence
        return (1 if source < 0x80 else (source.bit_length() + 6) // 7) + (
            1 if sequence < 0x80 else (sequence.bit_length() + 6) // 7
        )


class DOT_SET:
    """Count-prefixed set of dots, sorted."""

    sample = frozenset({Dot(0, 11), Dot(1, 29)})

    @staticmethod
    def write(buf: bytearray, dots) -> None:
        write_uvarint(buf, len(dots))
        write_dot = DOT.write
        for dot in sorted(dots):
            write_dot(buf, dot)

    @staticmethod
    def read(reader: Reader):
        read_dot = DOT.read
        return frozenset(read_dot(reader) for _ in range(reader.read_uvarint()))

    @staticmethod
    def size(dots) -> int:
        size = uvarint_size(len(dots))
        for dot in dots:
            size += uvarint_size(dot.source) + uvarint_size(dot.sequence)
        return size


#: Bits of the command flag byte: a client id follows, chain links follow.
_HAS_CLIENT, _HAS_LINKS = 1, 2


class COMMAND:
    """A :class:`Command`: dot, ops, the opaque application payload, then a
    flag byte announcing the client id and the chain links that follow it
    (a command without links encodes as it did before links existed)."""

    sample = Command.write(DOT.sample, ["key-0"], payload_size=100, client_id=7)

    @staticmethod
    def write(buf: bytearray, command: Command) -> None:
        DOT.write(buf, command.dot)
        write_uvarint(buf, len(command.ops))
        for op in command.ops:
            write_string(buf, op.key)
            buf.append(1 if op.kind is OpKind.WRITE else 0)
            write_optional_string(buf, op.value)
        # The modeled application payload really rides the wire: size-many
        # opaque bytes (zeros here; the simulator never inspects payloads).
        write_uvarint(buf, command.payload_size)
        buf += bytes(command.payload_size)
        client_id, links = command.client_id, command.links
        flag = 0 if client_id is None else _HAS_CLIENT
        if links:
            flag |= _HAS_LINKS
        buf.append(flag)
        if client_id is not None:
            write_svarint(buf, client_id)
        if links:
            write_uvarint(buf, len(links))
            for partition, previous in links:
                write_uvarint(buf, partition)
                write_uvarint(buf, previous)

    @staticmethod
    def read(reader: Reader) -> Command:
        dot = DOT.read(reader)
        num_ops = reader.read_uvarint()
        if num_ops == 0:
            raise WireError("command with zero operations")
        ops = []
        for _ in range(num_ops):
            key = reader.read_string()
            kind_byte = reader.read_byte()
            if kind_byte > 1:
                raise WireError(f"invalid op-kind byte {kind_byte}")
            value = reader.read_optional_string()
            ops.append(
                KeyOp(key=key, kind=OpKind.WRITE if kind_byte else OpKind.READ, value=value)
            )
        payload_size = reader.read_uvarint()
        reader.skip(payload_size)
        flag = reader.read_byte()
        if flag > _HAS_CLIENT | _HAS_LINKS:
            raise WireError(f"invalid command flag byte {flag}")
        client_id = reader.read_svarint() if flag & _HAS_CLIENT else None
        links = ()
        if flag & _HAS_LINKS:
            links = COMMAND._read_links(reader, dot.sequence)
        return Command(
            dot=dot,
            ops=tuple(ops),
            payload_size=payload_size,
            client_id=client_id,
            links=links,
        )

    @staticmethod
    def _read_links(reader: Reader, sequence: int) -> Tuple[Tuple[int, int], ...]:
        """One or more links, ascending by partition, each pointing strictly
        below ``sequence - 1`` (what the minter leaves implicit)."""
        count = reader.read_uvarint()
        if count == 0:
            raise WireError("command links flagged but none follow")
        links = []
        for _ in range(count):
            partition = reader.read_uvarint()
            previous = reader.read_uvarint()
            if links and partition <= links[-1][0]:
                raise WireError("command links not ascending by partition")
            if previous >= sequence - 1:
                raise WireError(
                    f"command link to {previous} from sequence {sequence} "
                    "does not skip back"
                )
            links.append((partition, previous))
        return tuple(links)

    @staticmethod
    def size(command: Command) -> int:
        size = DOT.size(command.dot) + uvarint_size(len(command.ops))
        for op in command.ops:
            size += _string_size(op.key) + 1 + _optional_string_size(op.value)
        size += uvarint_size(command.payload_size) + command.payload_size + 1
        if command.client_id is not None:
            size += _svarint_size(command.client_id)
        links = command.links
        if links:
            size += uvarint_size(len(links))
            for partition, previous in links:
                size += uvarint_size(partition) + uvarint_size(previous)
        return size


class QUORUM_MAP:
    """Count-prefixed ``partition -> member tuple``, sorted by partition."""

    sample = {0: (0, 2, 3)}

    @staticmethod
    def write(buf: bytearray, quorums) -> None:
        write_uvarint(buf, len(quorums))
        for partition in sorted(quorums):
            write_uvarint(buf, partition)
            members = quorums[partition]
            write_uvarint(buf, len(members))
            for member in members:
                write_uvarint(buf, member)

    @staticmethod
    def read(reader: Reader):
        quorums = {}
        for _ in range(reader.read_uvarint()):
            partition = reader.read_uvarint()
            members = reader.read_uvarint()
            quorums[partition] = tuple(reader.read_uvarint() for _ in range(members))
        return quorums

    @staticmethod
    def size(quorums) -> int:
        size = uvarint_size(len(quorums))
        for partition, members in quorums.items():
            size += uvarint_size(partition) + uvarint_size(len(members))
            for member in members:
                size += uvarint_size(member)
        return size


class PROMISE_RANGE_MAP:
    """Count-prefixed ``process -> ((lo, hi), ...)`` runs of detached
    promises, sorted by process; each span ships as ``lo, hi - lo``."""

    sample = {2: ((38, 40),)}

    @staticmethod
    def write(buf: bytearray, wire) -> None:
        write_uvarint(buf, len(wire))
        for process in sorted(wire):
            spans = wire[process]
            write_uvarint(buf, process)
            write_uvarint(buf, len(spans))
            for lo, hi in spans:
                if hi < lo or lo < 1:
                    raise WireError(f"invalid promise range ({lo}, {hi})")
                write_uvarint(buf, lo)
                write_uvarint(buf, hi - lo)

    @staticmethod
    def read(reader: Reader):
        wire = {}
        for _ in range(reader.read_uvarint()):
            process = reader.read_uvarint()
            spans = []
            for _ in range(reader.read_uvarint()):
                lo = reader.read_uvarint()
                if lo < 1:
                    raise WireError(f"promise range starts at {lo}, must be >= 1")
                spans.append((lo, lo + reader.read_uvarint()))
            wire[process] = tuple(spans)
        return wire

    @staticmethod
    def size(wire) -> int:
        size = uvarint_size(len(wire))
        for process, spans in wire.items():
            size += uvarint_size(process) + uvarint_size(len(spans))
            for lo, hi in spans:
                size += uvarint_size(lo) + uvarint_size(hi - lo)
        return size


def _read_promise_timestamp(reader: Reader) -> int:
    timestamp = reader.read_uvarint()
    if timestamp < 1:
        raise WireError(f"promise timestamp must be >= 1, got {timestamp}")
    return timestamp


class ATTACHED_MAP:
    """Count-prefixed ``dot -> ascending timestamps >= 1`` (the sender's
    promises attached to each dot), sorted by dot."""

    sample = {Dot(2, 36): (37,)}

    @staticmethod
    def write(buf: bytearray, attached) -> None:
        write_uvarint(buf, len(attached))
        for dot in sorted(attached):
            DOT.write(buf, dot)
            timestamps = attached[dot]
            write_uvarint(buf, len(timestamps))
            for timestamp in timestamps:
                write_uvarint(buf, timestamp)

    @staticmethod
    def read(reader: Reader):
        attached = {}
        for _ in range(reader.read_uvarint()):
            dot = DOT.read(reader)
            attached[dot] = tuple(
                _read_promise_timestamp(reader)
                for _ in range(reader.read_uvarint())
            )
        return attached

    @staticmethod
    def size(attached) -> int:
        size = uvarint_size(len(attached))
        for dot, timestamps in attached.items():
            size += DOT.size(dot) + uvarint_size(len(timestamps))
            for timestamp in timestamps:
                size += uvarint_size(timestamp)
        return size


class RESULT:
    """Optional ``key -> optional value`` execution result, sorted by key."""

    sample = {"key-0": "2.37"}

    @staticmethod
    def write(buf: bytearray, result) -> None:
        if result is None:
            buf.append(0)
            return
        buf.append(1)
        write_uvarint(buf, len(result))
        for key in sorted(result):
            write_string(buf, key)
            write_optional_string(buf, result[key])

    @staticmethod
    def read(reader: Reader):
        flag = reader.read_byte()
        if flag == 0:
            return None
        if flag != 1:
            raise WireError(f"invalid result flag {flag}")
        result = {}
        for _ in range(reader.read_uvarint()):
            key = reader.read_string()
            result[key] = reader.read_optional_string()
        return result

    @staticmethod
    def size(result) -> int:
        if result is None:
            return 1
        size = 1 + uvarint_size(len(result))
        for key, value in result.items():
            size += _string_size(key) + _optional_string_size(value)
        return size


class TS_PAIR:
    """Caesar's ``(clock, process)`` timestamp: two signed varints."""

    sample = (41, 2)

    @staticmethod
    def write(buf: bytearray, timestamp) -> None:
        write_svarint(buf, timestamp[0])
        write_svarint(buf, timestamp[1])

    @staticmethod
    def read(reader: Reader):
        return (reader.read_svarint(), reader.read_svarint())

    @staticmethod
    def size(timestamp) -> int:
        return _svarint_size(timestamp[0]) + _svarint_size(timestamp[1])


class CLOCK_MAP:
    """Count-prefixed ``source -> executed frontier``, sorted by source."""

    sample = {0: 12, 1: 9, 2: 36}

    @staticmethod
    def write(buf: bytearray, clock) -> None:
        write_uvarint(buf, len(clock))
        for source in sorted(clock):
            write_uvarint(buf, source)
            write_uvarint(buf, clock[source])

    @staticmethod
    def read(reader: Reader):
        clock = {}
        for _ in range(reader.read_uvarint()):
            source = reader.read_uvarint()
            clock[source] = reader.read_uvarint()
        return clock

    @staticmethod
    def size(clock) -> int:
        size = uvarint_size(len(clock))
        for source, frontier in clock.items():
            size += uvarint_size(source) + uvarint_size(frontier)
        return size


class TIMESTAMP_MAP:
    """``process -> timestamp >= 1`` (one attached promise per proposer) in
    :class:`CLOCK_MAP`'s layout; the reader also range-checks the timestamp."""

    sample = {2: 41}

    write = staticmethod(CLOCK_MAP.write)
    size = staticmethod(CLOCK_MAP.size)

    @staticmethod
    def read(reader: Reader):
        proposals = {}
        for _ in range(reader.read_uvarint()):
            process = reader.read_uvarint()
            proposals[process] = _read_promise_timestamp(reader)
        return proposals


# -- field annotations ---------------------------------------------------------------
#
# A message field names its wire type in its annotation: the Python type it
# holds, plus the field type as PEP 593 metadata.

Uvarint = Annotated[int, UVARINT]
Svarint = Annotated[int, SVARINT]
PhaseByte = Annotated[Phase, PHASE]
WireDot = Annotated[Dot, DOT]
DotSet = Annotated[FrozenSet[Dot], DOT_SET]
WireCommand = Annotated[Command, COMMAND]
QuorumMap = Annotated[Mapping[int, Tuple[int, ...]], QUORUM_MAP]
TimestampMap = Annotated[Mapping[int, int], TIMESTAMP_MAP]
PromiseRanges = Annotated[PromiseRangeWire, PROMISE_RANGE_MAP]
AttachedMap = Annotated[Mapping[Dot, Tuple[int, ...]], ATTACHED_MAP]
ReplyResult = Annotated[Optional[Dict[str, Optional[str]]], RESULT]
TsPair = Annotated[Tuple[int, int], TS_PAIR]
ClockMap = Annotated[Mapping[int, int], CLOCK_MAP]


# -- the generator -------------------------------------------------------------------


#: Kind bytes that once named a message and never will again: a byte is
#: append-only, so a retired one stays a gap (``docs/wire_format.md`` lists
#: what each was).
RETIRED_KINDS = frozenset({15, 24, 25, 31, 32, 35})


def _field_type(cls: type, name: str, annotation: object) -> type:
    """The wire type ``annotation`` carries as metadata, or ``TypeError``."""
    for metadata in getattr(annotation, "__metadata__", ()):
        if hasattr(metadata, "write"):
            return metadata
    raise TypeError(
        f"{cls.__name__}.{name}: annotation {annotation!r} names no wire type — "
        "annotate the field with a field-type alias (Svarint, DotSet, ...)"
    )


def wire_schema(kind: int) -> Callable[[type], type]:
    """Class decorator: the one declaration of a message kind.

    ``kind`` is the class's append-only kind byte — the on-wire dispatch key
    :mod:`repro.wire.codecs` registers it under; a byte outside ``0..255``
    or in :data:`RETIRED_KINDS` raises ``RuntimeError`` at class definition.
    Each dataclass field, ``dot`` first, is encoded in dataclass order with
    the field type its annotation carries; a field whose annotation names
    none raises ``TypeError`` at class definition.  Attached to the class:

    * ``WIRE_KIND`` — the kind byte;
    * ``WIRE_FIELDS`` — ``(field name, field type)`` per field, ``dot``
      first;
    * ``encode_body(buf, message)`` / ``decode_body(reader)`` — the body
      codec;
    * ``size_bytes(self)`` — exact length of the encoded frame (length
      prefix + kind byte + body) without materialising it.
    """
    if not 0 <= kind <= 0xFF:
        raise RuntimeError(f"kind byte {kind} out of range")
    if kind in RETIRED_KINDS:
        raise RuntimeError(f"kind byte {kind} is retired and never reused")

    def attach(cls: type) -> type:
        hints = get_type_hints(cls, include_extras=True)
        fields = tuple(
            (field.name, _field_type(cls, field.name, hints[field.name]))
            for field in dataclasses.fields(cls)
        )
        namespace: Dict[str, object] = {"cls": cls}
        writes, reads, sizes = [], [], []
        fixed = 1  # the kind byte
        for index, (name, field_type) in enumerate(fields):
            namespace[f"w{index}"] = field_type.write
            namespace[f"r{index}"] = field_type.read
            writes.append(f"    w{index}(buf, m.{name})")
            reads.append(f"r{index}(r)")
            if isinstance(field_type.size, int):
                fixed += field_type.size
            else:
                namespace[f"s{index}"] = field_type.size
                sizes.append(f"s{index}(self.{name})")
        source = "\n".join(
            [
                "def encode_body(buf, m):",
                *writes,
                "def decode_body(r):",
                f"    return cls({', '.join(reads)})",
                "def size_bytes(self):",
                f"    payload = {' + '.join([str(fixed)] + sizes)}",
                "    return payload + (",
                "        1 if payload < 0x80 else (payload.bit_length() + 6) // 7",
                "    )",
            ]
        )
        exec(source, namespace)
        for generated in ("encode_body", "decode_body", "size_bytes"):
            namespace[generated].__qualname__ = f"{cls.__name__}.{generated}"
            namespace[generated].__module__ = cls.__module__
        cls.WIRE_KIND = kind
        cls.WIRE_FIELDS = fields
        cls.encode_body = staticmethod(namespace["encode_body"])
        cls.decode_body = staticmethod(namespace["decode_body"])
        cls.size_bytes = namespace["size_bytes"]
        return cls

    return attach
