"""Smoke tests for the framed byte stream transport (UDS and TCP).

These run on a real event loop — the point is to push actual frames
through actual sockets — but stay sub-second because everything is on
localhost.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.base import MBatch
from repro.core.wireschema import MAX_FRAME_BYTES, write_uvarint
from repro.runtime.channel import Channel, Router
from repro.runtime.transport import StreamConnection, StreamServer
from repro.runtime.virtual_clock import run_with_virtual_clock
from repro.wire import sample_messages


def _round_trip_messages():
    samples = sample_messages()
    return [samples["MPropose"], samples["MCommit"], samples["MBatch"]]


class TestUnixStream:
    def test_messages_survive_a_unix_socket(self, tmp_path):
        path = str(tmp_path / "wire.sock")
        messages = _round_trip_messages()

        async def scenario():
            channel = Channel.create(7)
            server = await StreamServer.serve_unix(channel, path)
            connection = await StreamConnection.open_unix(path)
            for index, message in enumerate(messages):
                await connection.send(index, message)
            received = [await channel.get() for _ in messages]
            await connection.close()
            await server.close()
            return received, server.frames_received, connection.bytes_sent

        received, frames, bytes_sent = asyncio.run(scenario())
        assert frames == len(messages)
        assert bytes_sent > 0
        for index, message in enumerate(messages):
            assert received[index] == (index, message)

    def test_truncated_stream_is_rejected_cleanly(self, tmp_path):
        path = str(tmp_path / "wire.sock")

        async def scenario():
            channel = Channel.create(7)
            server = await StreamServer.serve_unix(channel, path)
            reader, writer = await asyncio.open_unix_connection(path)
            # A frame length that promises more bytes than ever arrive.
            writer.write(bytes([3, 200]))
            writer.close()
            await writer.wait_closed()
            for _ in range(50):
                if server.decode_errors:
                    break
                await asyncio.sleep(0.01)
            await server.close()
            return server.decode_errors, channel.empty()

        decode_errors, empty = asyncio.run(scenario())
        assert decode_errors == 1
        assert empty

    def test_oversized_frame_declaration_closes_the_connection(self, tmp_path):
        path = str(tmp_path / "wire.sock")

        async def scenario():
            channel = Channel.create(7)
            server = await StreamServer.serve_unix(channel, path)
            reader, writer = await asyncio.open_unix_connection(path)
            # Sender 3 declares a 2**40-byte frame and then sends nothing,
            # holding the connection open: the server must refuse the length
            # up front instead of waiting on (and buffering) the body.
            unit = bytearray([3])
            write_uvarint(unit, 1 << 40)
            assert (1 << 40) > MAX_FRAME_BYTES
            writer.write(bytes(unit))
            await writer.drain()
            closed_by_server = await asyncio.wait_for(reader.read(), timeout=2.0)
            writer.close()
            await server.close()
            return closed_by_server, server.decode_errors, channel.empty()

        closed_by_server, decode_errors, empty = asyncio.run(scenario())
        assert closed_by_server == b""
        assert decode_errors == 1
        assert empty

    def test_tcp_round_trip(self):
        messages = _round_trip_messages()

        async def scenario():
            channel = Channel.create(9)
            server = await StreamServer.serve_tcp(channel)
            connection = await StreamConnection.open_tcp("127.0.0.1", server.tcp_port)
            for message in messages:
                await connection.send(3, message)
            received = [await channel.get() for _ in messages]
            await connection.close()
            await server.close()
            return received

        received = asyncio.run(scenario())
        assert received == [(3, message) for message in messages]


class TestRouterWireMode:
    def test_router_ships_frames_and_channel_decodes(self):
        """A plain ``Router()`` ships every message with a codec as its
        frame; the channel hands back an equal, decoded copy."""
        samples = sample_messages()
        message = samples["MCommit"]
        batch = MBatch((samples["MStable"], samples["MConsensusAck"]))

        async def scenario():
            router = Router()
            channel = router.register(1)
            await router.send(0, 1, message)
            await router.send(0, 1, batch)
            # Non-message payloads must pass through untouched.
            await router.send(0, 1, "plain")
            first = await channel.get()
            second = await channel.get()
            third = await channel.get()
            return first, second, third, router.bytes_shipped

        first, second, third, shipped = run_with_virtual_clock(scenario())
        assert first == (0, message) and first[1] is not message
        assert second == (0, batch)
        assert third == (0, "plain")
        assert shipped > 0
