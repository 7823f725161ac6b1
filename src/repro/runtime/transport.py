"""Framed byte stream transport (UDS/TCP) behind the channel interface.

The asyncio runtime normally ships frames through in-memory queues
(:mod:`repro.runtime.channel`).  This module carries the exact same frames
over a real byte stream — a Unix domain socket or a TCP connection — so the
wire format is exercised against an actual transport, partial reads and
all.

Stream unit::

    uvarint(sender) + frame        # frame = uvarint(len) + kind_byte + body

A :class:`StreamServer` accepts connections and feeds every decoded message
into an ordinary :class:`~repro.runtime.channel.Channel`, so consumers call
``channel.get()`` exactly as they do with the in-memory router.  A
:class:`StreamConnection` is the sending side.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple

from repro.core.wireschema import MAX_FRAME_BYTES, WireError, write_uvarint
from repro.runtime.channel import Channel
from repro.wire import decode, encode


async def _read_uvarint(reader: asyncio.StreamReader) -> Optional[int]:
    """Read one unsigned varint from the stream; ``None`` on clean EOF.

    EOF is clean only at the first byte (a frame boundary); mid-varint EOF
    is a truncated stream and raises :class:`WireError`.
    """
    value = 0
    shift = 0
    for index in range(10):
        try:
            byte = (await reader.readexactly(1))[0]
        except asyncio.IncompleteReadError:
            if index == 0:
                return None
            raise WireError("stream truncated inside a varint") from None
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7
    raise WireError("varint too long on stream")


async def read_message(reader: asyncio.StreamReader) -> Optional[Tuple[int, object]]:
    """Read one ``(sender, message)`` unit; ``None`` on clean EOF."""
    sender = await _read_uvarint(reader)
    if sender is None:
        return None
    length = await _read_uvarint(reader)
    if length is None:
        raise WireError("stream truncated before frame length")
    if length > MAX_FRAME_BYTES:
        # The length is the peer's claim: refuse before waiting on (and
        # buffering) a body that may never come.
        raise WireError(f"declared frame of {length} bytes exceeds the cap")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise WireError("stream truncated inside a frame") from error
    return sender, decode(payload)


def _encode_unit(sender: int, message: object) -> bytes:
    buf = bytearray()
    write_uvarint(buf, sender)
    payload = encode(message)
    write_uvarint(buf, len(payload))
    buf += payload
    return bytes(buf)


class StreamConnection:
    """Sending side of a framed stream (one connection to a server)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self.bytes_sent = 0

    @classmethod
    async def open_unix(cls, path: str) -> "StreamConnection":
        reader, writer = await asyncio.open_unix_connection(path)
        return cls(reader, writer)

    @classmethod
    async def open_tcp(cls, host: str, port: int) -> "StreamConnection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def send(self, sender: int, message: object) -> None:
        unit = _encode_unit(sender, message)
        self._writer.write(unit)
        self.bytes_sent += len(unit)
        await self._writer.drain()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


class StreamServer:
    """Accepts framed stream connections and feeds a :class:`Channel`.

    Every message decoded off any connection is put into ``channel``; the
    consumer side is indistinguishable from the in-memory router path.
    """

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self.frames_received = 0
        self.decode_errors = 0
        self._server: Optional[asyncio.AbstractServer] = None

    @classmethod
    async def serve_unix(cls, channel: Channel, path: str) -> "StreamServer":
        server = cls(channel)
        server._server = await asyncio.start_unix_server(server._handle, path=path)
        return server

    @classmethod
    async def serve_tcp(
        cls, channel: Channel, host: str = "127.0.0.1", port: int = 0
    ) -> "StreamServer":
        server = cls(channel)
        server._server = await asyncio.start_server(server._handle, host=host, port=port)
        return server

    @property
    def tcp_port(self) -> int:
        """The bound TCP port (after :meth:`serve_tcp` with ``port=0``)."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                unit = await read_message(reader)
                if unit is None:
                    break
                self.frames_received += 1
                self.channel.put(unit[0], unit[1])
        except WireError:
            self.decode_errors += 1
        finally:
            writer.close()

    async def close(self) -> None:
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
