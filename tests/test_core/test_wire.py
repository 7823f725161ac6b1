"""Wire-format tests: exhaustiveness gate, round-trips, fuzzing, corruption.

Three layers of guarantee:

* **Exhaustiveness** — every :class:`~repro.core.messages.Message` subclass
  defined in :mod:`repro.core.messages` and
  :mod:`repro.protocols.dep_messages` has a registered codec, so a new
  message kind cannot ship without a wire format; a field whose annotation
  names no wire type fails at class definition.
* **Round-trip** — ``decode(encode(m)) == m`` for every kind, on canonical
  samples derived from the field types (whose frames are pinned byte for
  byte in ``wire_frames.json``) and on hypothesis instances built *from
  each kind's own declaration* (``WIRE_FIELDS``); both also pin
  ``size_bytes() == len(frame)``.
* **Rejection** — truncated frames, trailing garbage, unknown kind bytes,
  corrupt varints and bit flips raise :class:`~repro.wire.WireError`, never
  a random exception or a bogus message.

Plus the source gate: ``struct`` (and any hand-rolled binary packing) must
not leak outside ``repro/wire/`` — mirrors ``test_scheduler_api.py``.
"""

from __future__ import annotations

import inspect
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.messages as core_messages
import repro.protocols.dep_messages as dep_messages
from repro.core import wireschema
from repro.core.base import MBatch
from repro.core.commands import Command, KeyOp, OpKind
from repro.core.identifiers import intern_dot
from repro.core.messages import ClientReply, MBump, MCommit, Message, MPromises
from repro.core.phases import Phase
from repro.core.wireschema import (
    ATTACHED_MAP,
    CLOCK_MAP,
    COMMAND,
    DOT,
    DOT_SET,
    MAX_FRAME_BYTES,
    PHASE,
    PROMISE_RANGE_MAP,
    QUORUM_MAP,
    RESULT,
    RETIRED_KINDS,
    Reader,
    SVARINT,
    Svarint,
    TIMESTAMP_MAP,
    TS_PAIR,
    UVARINT,
    wire_schema,
    write_uvarint,
)
from repro.wire import (
    KIND_TO_TYPE,
    TYPE_TO_KIND,
    WireError,
    decode,
    decode_frame,
    encode,
    encode_frame,
    encoded_size,
    has_codec,
    registered_types,
    sample_messages,
)

def _message_classes():
    """Every concrete Message subclass defined in the two message modules."""
    classes = []
    for module in (core_messages, dep_messages):
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if (
                issubclass(obj, Message)
                and obj is not Message
                and obj.__module__ == module.__name__
            ):
                classes.append(obj)
    return classes


class TestExhaustiveness:
    def test_every_message_subclass_has_a_codec(self):
        missing = [
            cls.__name__ for cls in _message_classes() if not has_codec(cls)
        ]
        assert not missing, (
            f"message kinds without a wire codec: {missing} — declare them "
            "with @wire_schema(kind byte) and annotate each field's wire type"
        )

    def test_batch_envelope_has_a_codec(self):
        assert has_codec(MBatch)

    def test_one_sample_per_registered_kind_plus_links(self):
        # Derived from the registry: one sample per registered class under
        # its name, plus the one layout the field samples leave out.
        samples = sample_messages()
        assert sorted(samples) == sorted(
            [cls.__name__ for cls in registered_types()] + ["MPropose/links"]
        )
        for kind, message in samples.items():
            assert type(message).__name__ == kind.split("/")[0]

    def test_registry_is_the_declared_classes(self):
        # No table beside the classes: what is registered is exactly what
        # the two message modules declare, under the byte each names.
        declared = {cls: cls.WIRE_KIND for cls in _message_classes()}
        assert {**declared, MBatch: 0} == TYPE_TO_KIND
        assert {kind: cls for cls, kind in TYPE_TO_KIND.items()} == KIND_TO_TYPE

    def test_kind_bytes_are_stable(self):
        # The registry is append-only: re-numbering breaks any stored or
        # in-flight frame.  Every (byte, class) pair, literally.
        assert [(TYPE_TO_KIND[cls], cls.__name__) for cls in registered_types()] == [
            (0, "MBatch"),
            (1, "MSubmit"),
            (2, "MPropose"),
            (3, "MProposeAck"),
            (4, "MPayload"),
            (5, "MCommit"),
            (6, "MConsensus"),
            (7, "MConsensusAck"),
            (8, "MBump"),
            (9, "MPromises"),
            (10, "MStable"),
            (11, "MRec"),
            (12, "MRecAck"),
            (13, "MRecNAck"),
            (14, "MCommitRequest"),
            (16, "ClientReply"),
            (17, "MPreAccept"),
            (18, "MPreAcceptAck"),
            (19, "MDepAccept"),
            (20, "MDepAcceptAck"),
            (21, "MDepCommit"),
            (22, "MCaesarPropose"),
            (23, "MCaesarProposeAck"),
            (26, "MCaesarCommit"),
            (27, "MForward"),
            (28, "MAccept"),
            (29, "MAccepted"),
            (30, "MDecided"),
            (33, "MExecutedClock"),
            (34, "MDeliveryAck"),
            (36, "MRepairRequest"),
        ]

    @pytest.mark.parametrize("kind", [15, 24, 25, 31, 32, 35])
    def test_a_retired_byte_is_never_reused(self, kind):
        # 15 ClientSubmit, 24 MCaesarRetry, 25 MCaesarRetryAck, 31 MJanusDeps,
        # 32 MPromiseResync, 35 MStableRequest: gaps for good.
        assert kind in RETIRED_KINDS and kind not in KIND_TO_TYPE
        with pytest.raises(WireError, match="unknown message kind byte"):
            decode(bytes([kind]))
        with pytest.raises(RuntimeError, match="retired"):

            @wire_schema(kind)
            @dataclass(frozen=True)
            class Revived(Message):
                pass

    def test_the_documented_kind_table_is_the_registry(self):
        # docs/wire_format.md keeps the at-a-glance table the code no longer
        # has; its (byte, kind) rows must be what is registered.
        text = (Path(__file__).parents[2] / "docs" / "wire_format.md").read_text()
        rows = re.findall(r"^\| (\d+) \| `(\w+)` \| `[\w/.]+`", text, re.MULTILINE)
        assert [(int(byte), name) for byte, name in rows] == [
            (TYPE_TO_KIND[cls], cls.__name__) for cls in registered_types()
        ]
        # Every other byte the page tabulates is a retired one.
        cells = re.findall(r"^\| ([\d, ]+) \| `\w+`", text, re.MULTILINE)
        documented = {int(byte) for cell in cells for byte in cell.split(",")}
        assert documented - set(KIND_TO_TYPE) == RETIRED_KINDS

    def test_a_byte_declared_twice_is_refused(self):
        from repro.wire import codecs

        with pytest.raises(RuntimeError, match="declared by both MBump and"):
            codecs._register(TYPE_TO_KIND[MBump], MCommit, None, None)
        assert KIND_TO_TYPE[TYPE_TO_KIND[MBump]] is MBump

    def test_codec_exhaustiveness_lint_agrees(self):
        # The same closure properties, as enforced repo-wide by
        # ``python -m repro.analysis.lint``.
        from repro.analysis.lint import codec_exhaustiveness_findings

        assert not [str(finding) for finding in codec_exhaustiveness_findings()]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "kind", sorted(sample_messages()), ids=lambda kind: kind
    )
    def test_sample_round_trips(self, kind):
        message = sample_messages()[kind]
        assert decode(encode(message)) == message
        decoded, offset = decode_frame(encode_frame(message))
        assert decoded == message
        assert offset == len(encode_frame(message)) == encoded_size(message)
        if kind != "MBatch":
            # The envelope has no size_bytes() of its own: the network
            # charges the inner frames only.
            assert message.size_bytes() == offset

    def test_sample_frames_are_byte_identical_to_the_pinned_fixture(self):
        # wire_frames.json holds encode_frame() of every sample: a change to
        # a generated encoder or to a field type's sample moves a byte here.
        pinned = json.loads(Path(__file__).with_name("wire_frames.json").read_text())
        frames = {
            kind: encode_frame(message).hex()
            for kind, message in sample_messages().items()
        }
        assert frames == pinned

    def test_consecutive_frames_decode_by_offset(self):
        samples = sample_messages()
        messages = [samples["MPropose"], samples["MStable"], samples["MBatch"]]
        data = b"".join(encode_frame(message) for message in messages)
        offset = 0
        decoded = []
        while offset < len(data):
            message, offset = decode_frame(data, offset)
            decoded.append(message)
        assert decoded == messages

    def test_dots_decode_interned(self):
        # Identity holds for densely-allocated dots (the intern table is
        # filled in sequence order, like a real process allocating ids).
        for sequence in range(1, 10):
            intern_dot(40, sequence)
        message = decode(encode(MBump(dot=intern_dot(40, 9), timestamp=5)))
        assert message.dot is intern_dot(40, 9)


# -- hypothesis strategies, one per field type ------------------------------------

_keys = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FF), min_size=1, max_size=12
)
_uvarints = st.integers(min_value=0, max_value=2**40)
_svarints = st.integers(min_value=-(2**40), max_value=2**40)
_small = st.integers(min_value=0, max_value=64)
_dots = st.builds(intern_dot, _small, st.integers(min_value=1, max_value=2**40))
_key_ops = st.builds(
    KeyOp,
    key=_keys,
    kind=st.sampled_from(OpKind),
    value=st.one_of(st.none(), _keys),
)


def _links_of(dot):
    """Chain links a command minted as ``dot`` can carry: partitions
    ascending, each pointing below the sequence just before ``dot``'s."""
    if dot.sequence < 2:
        return st.just(())
    return st.dictionaries(
        _small, st.integers(min_value=0, max_value=dot.sequence - 2), max_size=3
    ).map(lambda links: tuple(sorted(links.items())))


_ops = st.lists(_key_ops, min_size=1, max_size=4, unique_by=lambda op: op.key).map(tuple)
_commands = _dots.flatmap(
    lambda dot: st.builds(
        Command,
        dot=st.just(dot),
        ops=_ops,
        # Small payloads: the corruption sweep decodes the frame once per bit.
        payload_size=st.integers(min_value=0, max_value=48),
        client_id=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
        links=_links_of(dot),
    )
)
_spans = st.tuples(
    st.integers(min_value=1, max_value=2**32), st.integers(min_value=0, max_value=2**16)
).map(lambda pair: (pair[0], pair[0] + pair[1]))
_promise_timestamps = st.integers(min_value=1, max_value=2**40)

_FIELD_STRATEGIES = {
    UVARINT: _uvarints,
    SVARINT: _svarints,
    PHASE: st.sampled_from(Phase),
    DOT: _dots,
    DOT_SET: st.frozensets(_dots, max_size=5),
    COMMAND: _commands,
    QUORUM_MAP: st.dictionaries(_small, st.lists(_small, max_size=5).map(tuple), max_size=3),
    TIMESTAMP_MAP: st.dictionaries(_small, _promise_timestamps, max_size=6),
    PROMISE_RANGE_MAP: st.dictionaries(
        _small, st.lists(_spans, min_size=1, max_size=4).map(tuple), max_size=4
    ),
    ATTACHED_MAP: st.dictionaries(
        _dots,
        st.frozensets(_promise_timestamps, max_size=4).map(sorted).map(tuple),
        max_size=3,
    ),
    RESULT: st.one_of(
        st.none(), st.dictionaries(_keys, st.one_of(st.none(), _keys), max_size=4)
    ),
    TS_PAIR: st.tuples(_svarints, _small),
    CLOCK_MAP: st.dictionaries(_small, _uvarints, max_size=5),
}

#: Every registered kind with a declaration (all but the MBatch envelope).
_SCHEMA_KINDS = [cls for cls in registered_types() if cls is not MBatch]


def _instances_of(cls):
    """Strategy building ``cls`` instances from its own wire declaration."""
    return st.builds(
        cls, **{name: _FIELD_STRATEGIES[field_type] for name, field_type in cls.WIRE_FIELDS}
    )


class TestSchemaDriven:
    @pytest.mark.parametrize("cls", _SCHEMA_KINDS, ids=lambda cls: cls.__name__)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_round_trip_size_and_corruption(self, cls, data):
        message = data.draw(_instances_of(cls))
        assert decode(encode(message)) == message
        frame = encode_frame(message)
        assert message.size_bytes() == len(frame)
        assert decode_frame(frame) == (message, len(frame))
        # Every proper prefix is rejected; a flipped bit may still decode to
        # a *different* valid message (the frame carries no checksum), but
        # neither may raise anything other than WireError.
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                decode_frame(frame[:cut])
        corrupt = bytearray(frame)
        for position in range(len(frame)):
            for bit in range(8):
                corrupt[position] ^= 1 << bit
                try:
                    decode_frame(bytes(corrupt))
                except WireError:
                    pass
                corrupt[position] ^= 1 << bit

    def test_a_field_without_a_wire_type_fails_at_definition(self):
        with pytest.raises(TypeError, match=r"Untyped\.ballot: .* names no wire type"):

            @wire_schema(200)
            @dataclass(frozen=True)
            class Untyped(Message):
                timestamp: Svarint
                ballot: int

        with pytest.raises(TypeError, match=r"Unknown\.ballot: .* names no wire type"):

            @wire_schema(200)
            @dataclass(frozen=True)
            class Unknown(Message):
                ballot: Annotated[int, "svarint"]


class TestBatchRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        inner=st.lists(
            st.sampled_from(sorted(sample_messages())), min_size=1, max_size=6
        )
    )
    def test_batches_round_trip(self, inner):
        samples = sample_messages()
        batch = MBatch(tuple(samples[kind] for kind in inner))
        assert decode(encode(batch)) == batch

    def test_nested_batches_round_trip(self):
        samples = sample_messages()
        inner = MBatch((samples["MStable"], samples["MConsensusAck"]))
        outer = MBatch((samples["MCommit"], inner, samples["MBump"]))
        assert decode(encode(outer)) == outer


class TestRejection:
    def test_trailing_garbage_is_rejected(self):
        payload = encode(sample_messages()["MStable"])
        with pytest.raises(WireError):
            decode(payload + b"\x00")

    def test_unknown_kind_byte_is_rejected(self):
        with pytest.raises(WireError):
            decode(bytes([255]))

    def test_corrupt_varint_is_rejected(self):
        # 10 continuation bytes: longer than any valid uvarint.
        with pytest.raises(WireError):
            decode(bytes([TYPE_TO_KIND[MBump]]) + b"\x80" * 11)

    def test_empty_buffer_is_rejected(self):
        with pytest.raises(WireError):
            decode(b"")
        with pytest.raises(WireError):
            decode_frame(b"")

    def test_oversized_frame_declaration_is_rejected(self):
        # Nested frames (MBatch inners) go through the same cap as the
        # stream transport's top-level length check.
        prefix = bytearray()
        write_uvarint(prefix, MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError, match="exceeds the cap"):
            decode_frame(bytes(prefix))

    @pytest.mark.parametrize("flag", [4, 7, 255])
    def test_a_command_flag_byte_above_three_is_rejected(self, flag):
        # Bit 0 announces the client id, bit 1 the chain links; a
        # command with neither ends in its flag byte.
        frame = bytearray()
        COMMAND.write(frame, Command.write(intern_dot(0, 1), ["k"]))
        assert frame[-1] == 0
        frame[-1] = flag
        with pytest.raises(WireError, match="invalid command flag byte"):
            COMMAND.read(Reader(bytes(frame)))

    @pytest.mark.parametrize(
        "links",
        [((1, 3), (0, 1)), ((0, 1), (0, 2)), ((1, 4),), ((1, 5),)],
        ids=["descending", "repeated", "not-skipping", "forward"],
    )
    def test_malformed_command_links_are_rejected(self, links):
        # A link names a partition once, in ascending order, and skips back
        # past the sequence just before the command's (sequence 5 here).
        frame = bytearray()
        COMMAND.write(frame, Command.write(intern_dot(0, 5), ["k"], links=links))
        with pytest.raises(WireError, match="command link"):
            COMMAND.read(Reader(bytes(frame)))

    def test_invalid_promise_range_is_rejected(self):
        message = MCommit(dot=intern_dot(0, 1), timestamp=2, detached={0: ((0, 4),)})
        with pytest.raises(WireError):
            encode(message)


    @pytest.mark.parametrize(
        "message",
        [
            MCommit(dot=intern_dot(0, 1), timestamp=2, attached={1: 0}),
            MPromises(dot=intern_dot(0, 1), attached={intern_dot(0, 2): (0, 3)}),
        ],
        ids=lambda message: message.kind,
    )
    def test_promise_timestamp_below_one_is_rejected_on_decode(self, message):
        # Range checks sit where values enter the program: the wire readers
        # (and PromiseTracker.add_attached / add_detached_range locally).
        with pytest.raises(WireError, match="promise timestamp must be >= 1"):
            decode(encode(message))


#: Frames of the canonical samples, the mutation harness's seeds.
_SAMPLE_FRAMES = [encode_frame(message) for message in sample_messages().values()]


class _CheckedTable(dict):
    """The codec's string table, checking both bounds at every registration."""

    def __init__(self, entries: int) -> None:
        super().__init__()
        self.entries = entries

    def __setitem__(self, text, held):
        assert len(self) < self.entries
        assert len(text.encode("utf-8")) <= wireschema.CANONICAL_STRING_BYTES
        assert held is text
        super().__setitem__(text, held)


def _decode_or_reject(frame: bytes):
    """The decoded message, or ``WireError`` itself; anything else raises."""
    try:
        return decode_frame(frame)
    except WireError:
        return WireError


class TestCanonicalStrings:
    def test_a_decoded_string_is_the_object_encoded(self, monkeypatch):
        monkeypatch.setattr(wireschema, "_CANONICAL_STRINGS", {})
        # Built at run time, so neither is a shared constant.
        key, value = "".join(["key-", "a"]), "".join(["value-", "a"])
        reply = ClientReply(intern_dot(3, 1), {key: value})
        for _ in range(2):
            decoded, _ = decode_frame(encode_frame(reply))
            ((decoded_key, decoded_value),) = decoded.result.items()
            assert decoded_key is key and decoded_value is value

    def test_a_string_above_the_length_bound_is_never_registered(self):
        long_key = "x" * (wireschema.CANONICAL_STRING_BYTES + 1)
        reply = ClientReply(intern_dot(3, 1), {long_key: None})
        decoded, _ = decode_frame(encode_frame(reply))
        assert decoded.result == {long_key: None}
        (decoded_key,) = decoded.result
        assert decoded_key is not long_key
        assert long_key not in wireschema._CANONICAL_STRINGS

    def test_a_full_table_is_emptied_before_the_next_registration(self, monkeypatch):
        monkeypatch.setattr(wireschema, "_CANONICAL_STRINGS", _CheckedTable(3))
        monkeypatch.setattr(wireschema, "CANONICAL_STRING_ENTRIES", 3)
        buf = bytearray()
        for text in ("a", "b", "c", "d"):
            wireschema.write_string(buf, text)
        assert dict(wireschema._CANONICAL_STRINGS) == {"d": "d"}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), entries=st.integers(min_value=1, max_value=16))
    def test_mutated_frames_decode_as_without_the_table(self, data, entries):
        # Hostile bytes: sample frames with bytes overwritten, inserted and
        # deleted.  A small entry bound makes the table fill and empty within
        # one example.
        frame = bytearray(data.draw(st.sampled_from(_SAMPLE_FRAMES)))
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            position = data.draw(st.integers(min_value=0, max_value=len(frame)))
            action = data.draw(st.sampled_from(("set", "insert", "delete")))
            byte = data.draw(st.integers(min_value=0, max_value=255))
            if action == "insert" or position == len(frame):
                frame.insert(position, byte)
            elif action == "set":
                frame[position] = byte
            else:
                del frame[position]
        frame = bytes(frame)
        with mock.patch.object(
            wireschema, "_CANONICAL_STRINGS", _CheckedTable(entries)
        ), mock.patch.object(wireschema, "CANONICAL_STRING_ENTRIES", entries):
            for message in sample_messages().values():
                encode_frame(message)
            decoded = _decode_or_reject(frame)
        # No string is short enough to register: a decode without the table.
        with mock.patch.object(wireschema, "CANONICAL_STRING_BYTES", -1):
            reference = _decode_or_reject(frame)
        assert decoded == reference


def test_struct_stays_inside_the_wire_package():
    # struct/binary packing is a wire concern: everything outside
    # ``repro/wire/`` talks in message objects and lets the codecs do
    # bytes.  Enforced by the import-aware ``struct-outside-wire`` lint
    # (also run repo-wide via ``python -m repro.analysis.lint`` in CI).
    from repro.analysis.lint import struct_import_findings

    offenders = [str(finding) for finding in struct_import_findings()]
    assert not offenders, (
        "struct imported outside repro/wire/ — binary packing belongs to "
        "the codec layer:\n" + "\n".join(offenders)
    )
