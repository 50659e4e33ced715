"""End-to-end tests for the asyncio client / lsd / server, driven
from coroutines: transfers, rebind/resume, failure accounting."""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time

import pytest

from repro.asockets import AsyncDepot, AsyncLslClient, AsyncLslServer
from repro.lsl.core import real_digest_factory

SESSION_ID = bytes(range(16))
PAYLOAD = random.Random(2026).randbytes(120_000)


class RecordingObserver:
    """Collect protocol events (a ProtocolObserver callable), thread-safe."""

    def __init__(self) -> None:
        self.events = []
        self._lock = threading.Lock()

    def __call__(self, event):
        with self._lock:
            self.events.append(event)

    def kinds(self):
        with self._lock:
            return [e.kind for e in self.events]

    def detail_for(self, kind):
        with self._lock:
            for e in self.events:
                if e.kind == kind:
                    return e.detail
        return None


def _send(route, payload, **kwargs):
    """Run one complete async client transfer from sync test code."""

    async def _run():
        async with AsyncLslClient(
            route, payload_length=len(payload), **kwargs
        ) as client:
            await client.sendall(payload)
            await client.finish()

    asyncio.run(_run())


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# -- basic transfers -------------------------------------------------------


def test_direct_transfer():
    with AsyncLslServer() as server:
        _send([server.address], PAYLOAD)
        assert server.wait_for_sessions(1)
    assert not server.errors
    (result,) = server.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True


def test_cascade_through_two_depots():
    with AsyncLslServer() as server:
        with AsyncDepot() as d1, AsyncDepot() as d2:
            _send([d1.address, d2.address, server.address], PAYLOAD)
            assert server.wait_for_sessions(1)
            assert _wait(lambda: d1.counters.sessions_completed == 1)
            assert _wait(lambda: d2.counters.sessions_completed == 1)
            assert d1.counters.bytes_relayed >= len(PAYLOAD)
    (result,) = server.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True
    assert result.route_len == 3


def test_framed_end_to_end():
    with AsyncLslServer() as server:
        _send([server.address], PAYLOAD, framed=True)
        assert server.wait_for_sessions(1)
    (result,) = server.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True


def test_server_reply_reaches_client():
    async def _run(route):
        async with AsyncLslClient(
            route, payload_length=len(PAYLOAD)
        ) as client:
            await client.sendall(PAYLOAD)
            await client.finish()
            return await client.recv()

    with AsyncLslServer(reply=b"done!") as server:
        with AsyncDepot() as depot:
            got = asyncio.run(_run([depot.address, server.address]))
    assert got == b"done!"


# -- rebind / resume --------------------------------------------------------


def _send_partial_then_die(route, payload, cut):
    async def _run():
        client = await AsyncLslClient.open(
            route, payload_length=len(payload), session_id=SESSION_ID
        )
        await client.sendall(payload[:cut])
        client.close()  # no finish(): FIN mid-payload -> suspend

    asyncio.run(_run())


def _server_received(server, session_id):
    record = server.registry.get(session_id)
    live = getattr(record, "attachment", None) if record else None
    return live.receiver.payload_received if live is not None else -1


def test_resume_after_kill():
    cut = 48_000
    with AsyncLslServer() as server:
        _send_partial_then_die([server.address], PAYLOAD, cut)
        assert _wait(lambda: _server_received(server, SESSION_ID) >= cut)

        async def _resume():
            client = await AsyncLslClient.open(
                [server.address],
                payload_length=len(PAYLOAD),
                session_id=SESSION_ID,
                rebind=True,
                resume_query=True,
                digest_factory=real_digest_factory(PAYLOAD),
            )
            granted = client.granted_offset
            await client.sendall(PAYLOAD[granted:])
            await client.finish()
            client.close()
            return granted

        granted = asyncio.run(_resume())
        assert granted == cut
        assert server.wait_for_sessions(1)
    assert not server.errors
    (result,) = server.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True
    assert result.rebinds == 1


def test_fresh_connect_restarts_stale_session():
    """A non-rebind connect with a known session id displaces the stale
    attachment (RestartSession) and the payload arrives whole."""
    with AsyncLslServer() as server:
        _send_partial_then_die([server.address], PAYLOAD, 10_000)
        assert _wait(lambda: _server_received(server, SESSION_ID) >= 10_000)
        _send([server.address], PAYLOAD, session_id=SESSION_ID)
        assert server.wait_for_sessions(1)
    (result,) = server.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True


# -- depot failure accounting ----------------------------------------------


def test_downstream_refusal_counts_failed_and_emits():
    observer = RecordingObserver()
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_address = probe.getsockname()
    probe.close()
    with AsyncDepot(observer=observer) as depot:
        with pytest.raises(Exception):
            _send([depot.address, dead_address], PAYLOAD, timeout=5)
        assert _wait(lambda: depot.counters.sessions_failed == 1)
    detail = observer.detail_for("relay-failed")
    assert detail is not None
    assert "ConnectionRefusedError" in detail["reason"]
    assert depot.counters.sessions_completed == 0


def test_fin_during_header_counts_failed():
    observer = RecordingObserver()
    with AsyncDepot(observer=observer) as depot:
        raw = socket.create_connection(depot.address, timeout=5)
        raw.sendall(b"LSL")
        raw.close()
        assert _wait(lambda: depot.counters.sessions_failed == 1)
    assert "relay-failed" in observer.kinds()


def test_garbage_header_rejected_and_counted():
    with AsyncDepot() as depot:
        raw = socket.create_connection(depot.address, timeout=5)
        raw.sendall(b"\x00" * 64)
        raw.shutdown(socket.SHUT_WR)
        assert raw.recv(1) == b""  # depot hangs up
        raw.close()
        assert _wait(lambda: depot.counters.sessions_failed == 1)

