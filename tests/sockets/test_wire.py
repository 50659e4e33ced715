"""Tests for the async wire helpers."""

import asyncio
import socket

import pytest

from repro.asockets import read_exact, read_header
from repro.lsl.core import LslHeader, ProtocolError, RouteHop


def pair():
    a, b = socket.socketpair()
    b.setblocking(False)
    return a, b


def run(helper, sock, *args):
    """Run one async wire helper against ``sock`` to completion."""

    async def _run():
        return await helper(asyncio.get_running_loop(), sock, *args)

    return asyncio.run(_run())


def test_read_exact():
    a, b = pair()
    a.sendall(b"abcdef")
    assert run(read_exact, b, 3) == b"abc"
    assert run(read_exact, b, 3) == b"def"
    a.close()
    b.close()


def test_read_exact_eof_raises():
    a, b = pair()
    a.sendall(b"ab")
    a.close()
    with pytest.raises(ProtocolError):
        run(read_exact, b, 5)
    b.close()


def test_read_header_returns_surplus():
    a, b = pair()
    h = LslHeader(
        session_id=bytes(16),
        route=(RouteHop("x", 1), RouteHop("y", 2)),
        payload_length=5,
    )
    a.sendall(h.encode() + b"PAYLOAD")
    a.close()
    header, surplus = run(read_header, b)
    assert header == h
    # buffered reads may run past the header; nothing is lost — the
    # overshoot comes back as surplus ahead of the remaining stream
    b.setblocking(True)
    got = surplus
    while True:
        piece = b.recv(100)
        if not piece:
            break
        got += piece
    assert got == b"PAYLOAD"
    b.close()


def test_read_header_bad_magic():
    a, b = pair()
    a.sendall(b"NOPE" + bytes(60))
    with pytest.raises(ProtocolError):
        run(read_header, b)
    a.close()
    b.close()


def test_read_header_truncated_stream():
    a, b = pair()
    h = LslHeader(session_id=bytes(16), route=(RouteHop("host", 9),))
    a.sendall(h.encode()[:10])
    a.close()
    with pytest.raises(ProtocolError):
        run(read_header, b)
    b.close()
