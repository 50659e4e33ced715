"""Real-socket client / lsd / server tests (localhost)."""

import asyncio
import os
import socket

import pytest

from repro.lsl.core import (
    LslError,
    LslHeader,
    RouteHop,
)
from repro.asockets import AsyncDepot, AsyncLslServer, read_header
from tests.helpers import SyncClient


def test_direct_session_roundtrip():
    payload = os.urandom(50_000)
    with AsyncLslServer() as server:
        with SyncClient([server.address], payload_length=len(payload)) as c:
            c.sendall(payload)
            c.finish()
        assert server.wait_for_sessions(1)
    assert not server.errors
    (result,) = server.results
    assert result.payload == payload
    assert result.digest_ok is True
    assert result.route_len == 1


def test_one_depot_relay():
    payload = os.urandom(200_000)
    with AsyncLslServer() as server, AsyncDepot() as depot:
        route = [depot.address, server.address]
        with SyncClient(route, payload_length=len(payload)) as c:
            c.sendall(payload)
            c.finish()
        assert server.wait_for_sessions(1)
    assert not server.errors
    (result,) = server.results
    assert result.payload == payload
    assert result.digest_ok is True
    assert result.route_len == 2
    assert depot.counters.sessions_completed == 1
    assert depot.counters.bytes_relayed >= len(payload)


def test_two_depot_cascade():
    payload = os.urandom(100_000)
    with AsyncLslServer() as server, AsyncDepot() as d1, AsyncDepot() as d2:
        route = [d1.address, d2.address, server.address]
        with SyncClient(route, payload_length=len(payload)) as c:
            c.sendall(payload)
            c.finish()
        assert server.wait_for_sessions(1)
    assert not server.errors
    assert server.results[0].payload == payload
    assert d1.counters.sessions_completed == 1
    assert d2.counters.sessions_completed == 1


def test_server_reply_reaches_client_through_depot():
    with AsyncLslServer(reply=b"PONG") as server, AsyncDepot() as depot:
        with SyncClient(
            [depot.address, server.address], payload_length=4
        ) as c:
            c.sendall(b"PING")
            c.finish()
            got = b""
            while len(got) < 4:
                piece = c.recv()
                if not piece:
                    break
                got += piece
    assert got == b"PONG"


def test_stream_until_fin_mode():
    with AsyncLslServer() as server:
        with SyncClient([server.address], digest=False) as c:
            c.sendall(b"part one ")
            c.sendall(b"part two")
            c.finish()
        assert server.wait_for_sessions(1)
    assert server.results[0].payload == b"part one part two"
    assert server.results[0].digest_ok is None


def test_digest_requires_length():
    with pytest.raises(LslError):
        SyncClient([("localhost", 1)], digest=True)


def test_payload_overrun_rejected():
    with AsyncLslServer() as server:
        with SyncClient([server.address], payload_length=3) as c:
            with pytest.raises(LslError):
                c.sendall(b"toolong")
            c.sendall(b"abc")
            c.finish()
        assert server.wait_for_sessions(1)


def test_finish_with_missing_bytes_rejected():
    with AsyncLslServer() as server:
        with SyncClient([server.address], payload_length=10) as c:
            c.sendall(b"only5")
            with pytest.raises(LslError):
                c.finish()
            c.sendall(b"more5")
            c.finish()
        assert server.wait_for_sessions(1)


def test_depot_rejects_being_final_hop():
    with AsyncDepot() as depot:
        sock = socket.create_connection(depot.address, timeout=5)
        header = LslHeader(
            session_id=bytes(16),
            route=(RouteHop(depot.address[0], depot.address[1]),),
            hop_index=0,
            payload_length=0,
            digest=False,
            sync=False,
        )
        sock.sendall(header.encode())
        # depot should close on us
        sock.settimeout(5)
        assert sock.recv(1) == b""
        sock.close()
    assert depot.counters.sessions_failed == 1


def test_server_rejects_intermediate_hop_role():
    with AsyncLslServer() as server:
        sock = socket.create_connection(server.address, timeout=5)
        header = LslHeader(
            session_id=bytes(16),
            route=(
                RouteHop(server.address[0], server.address[1]),
                RouteHop("elsewhere", 1234),
            ),
            hop_index=0,  # server is NOT last
            payload_length=0,
            digest=False,
            sync=False,
        )
        sock.sendall(header.encode())
        sock.settimeout(5)
        assert sock.recv(1) == b""
        sock.close()
        assert server.wait_for_sessions(1)
    assert server.errors


def test_wire_read_header_roundtrip():
    a, b = socket.socketpair()
    header = LslHeader(
        session_id=os.urandom(16),
        route=(RouteHop("host-x", 1234), RouteHop("host-y", 4321)),
        hop_index=1,
        payload_length=77,
    )
    a.sendall(header.encode() + b"surplus-untouched")
    a.close()
    b.setblocking(False)

    async def _read():
        return await read_header(asyncio.get_running_loop(), b)

    parsed, surplus = asyncio.run(_read())
    b.setblocking(True)
    assert parsed == header
    # over-read bytes are handed back, in order, as surplus
    got = surplus
    while True:
        piece = b.recv(100)
        if not piece:
            break
        got += piece
    assert got == b"surplus-untouched"
    b.close()


def test_concurrent_sessions_through_one_depot():
    payloads = [os.urandom(30_000) for _ in range(4)]
    with AsyncLslServer() as server, AsyncDepot() as depot:
        clients = []
        for p in payloads:
            c = SyncClient(
                [depot.address, server.address], payload_length=len(p)
            )
            c.sendall(p)
            c.finish()
            clients.append(c)
        assert server.wait_for_sessions(4)
        for c in clients:
            c.close()
    assert not server.errors
    got = sorted(r.payload for r in server.results)
    assert got == sorted(payloads)
