"""Real-socket services must not hold sessions without limit.

Two ways a long-running service used to accumulate state: finished
sessions kept their delivered payload in server memory, and a peer
that connected but never completed its LSL header held a task and a
socket forever. Both are bounded now: finished sessions keep at most
their id, and the header phase runs under
:data:`repro.asockets.wire.HEADER_TIMEOUT_S`.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time

import pytest

from repro.asockets import (
    AsyncDepot,
    AsyncLslServer,
    AsyncStripedServer,
    async_send_striped,
    wire,
)
from repro.cluster import AsyncClusterNode, InMemoryStore
from repro.lsl.core import LslHeader, RouteHop
from tests.helpers import SyncClient

SESSIONS = 5


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# -- finished sessions are released -----------------------------------------


def test_server_releases_finished_sessions():
    payloads = [os.urandom(100_000) for _ in range(SESSIONS)]
    with AsyncLslServer() as server:
        for payload in payloads:
            with SyncClient(
                [server.address], payload_length=len(payload)
            ) as client:
                client.sendall(payload)
                client.finish()
        assert server.wait_for_sessions(SESSIONS)
        records = [server.registry.get(r.session_id) for r in server.results]
        # the closed records stay so a reused id is still refused ...
        assert all(r is not None and r.closed for r in records)
        # ... but none of them holds the receiver or its payload
        assert all(r.attachment is None for r in records)
        reused = LslHeader(
            session_id=server.results[0].session_id,
            route=(RouteHop(*server.address),),
            payload_length=1,
            sync=False,
        )
        raw = socket.create_connection(server.address, timeout=5)
        raw.sendall(reused.encode())
        assert _wait(lambda: len(server.errors) == 1)
        raw.close()
    assert sorted(r.payload for r in server.results) == sorted(payloads)


def test_striped_server_releases_finished_sessions():
    payloads = [os.urandom(256 * 1024) for _ in range(SESSIONS)]
    with AsyncStripedServer() as server:
        for payload in payloads:
            asyncio.run(
                async_send_striped(
                    [[server.address]] * 2, payload,
                    redundancy="duplicate-1", sndbuf=64 * 1024,
                )
            )
        assert server.wait_for_sessions(SESSIONS)
        assert _wait(lambda: server.active_tasks == 0)
        assert server._striped == {}
    assert not server.errors
    assert sorted(r.payload for r in server.results) == sorted(payloads)


def test_striped_session_abandoned_by_every_sublink_is_dropped(monkeypatch):
    monkeypatch.setattr(wire, "HEADER_TIMEOUT_S", 0.2)
    with AsyncStripedServer() as server:
        header = LslHeader(
            session_id=bytes(range(16)),
            route=(RouteHop(*server.address),),
            payload_length=1 << 20,
            sync=False,
            framed=True,
        )
        sock = socket.create_connection(server.address, timeout=5)
        sock.sendall(header.encode())
        assert _wait(lambda: header.session_id in server._striped)
        sock.close()  # the only sublink goes away before completion
        assert _wait(lambda: server._striped == {})
        assert len(server.errors) == 1
        assert "abandoned" in str(server.errors[0])


# -- silent and stalled peers are cut off -----------------------------------


def _depot():
    return AsyncDepot()


def _server():
    return AsyncLslServer()


def _striped():
    return AsyncStripedServer()


def _node():
    return AsyncClusterNode(store=InMemoryStore(), worker="w0")


def _failures(service) -> int:
    counters = getattr(service, "counters", None)
    if counters is not None:
        return counters.sessions_failed
    return len(service.errors)


SERVICES = [_depot, _server, _striped, _node]


def _half_header(address) -> bytes:
    header = LslHeader(
        session_id=bytes(16),
        route=(RouteHop(*address), RouteHop("127.0.0.1", 9)),
        framed=True,
        payload_length=10,
    )
    return header.encode()[:10]


@pytest.mark.parametrize("make", SERVICES, ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("sends", ["nothing", "half-header"])
def test_silent_peer_is_closed_within_header_deadline(
    monkeypatch, make, sends
):
    monkeypatch.setattr(wire, "HEADER_TIMEOUT_S", 0.3)
    with make() as service:
        peer = socket.create_connection(service.address, timeout=5)
        if sends == "half-header":
            peer.sendall(_half_header(service.address))
        t0 = time.monotonic()
        assert peer.recv(1) == b""  # the service hangs up on us
        assert time.monotonic() - t0 < 3.0
        peer.close()
        assert _wait(lambda: _failures(service) == 1)
        assert _wait(lambda: service.active_tasks == 0)
