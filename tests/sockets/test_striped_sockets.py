"""Striped multipath transfer over real sockets."""

import asyncio
import hashlib
import os
import random
import socket
import threading
import time

import pytest

from repro.asockets import AsyncDepot, AsyncStripedServer, async_send_striped
from repro.lsl.core import LslError


def send_striped(routes, payload, **kwargs):
    """One complete striped send from sync test code."""
    return asyncio.run(async_send_striped(routes, payload, **kwargs))


def test_striped_roundtrip_three_sublinks():
    payload = os.urandom(2 << 20)
    with AsyncStripedServer() as server:
        # a small send buffer engages demand pacing on loopback, so
        # every sublink joins before the first one drains the payload
        report = send_striped(
            [[server.address]] * 3, payload, sndbuf=64 * 1024
        )
        assert server.wait_for_sessions(1)
    assert not server.errors
    (result,) = server.results
    assert result.payload == payload
    assert result.digest_ok is True
    assert result.sublinks == 3
    assert sum(report.per_sublink_bytes) == len(payload)
    assert hashlib.md5(result.payload).digest() == hashlib.md5(payload).digest()


def test_striped_through_depots():
    payload = os.urandom(1 << 20)
    with AsyncStripedServer() as server, AsyncDepot() as d1, \
            AsyncDepot() as d2:
        routes = [
            [d1.address, server.address],
            [d2.address, server.address],
        ]
        send_striped(routes, payload)
        assert server.wait_for_sessions(1)
    assert not server.errors
    assert server.results[0].payload == payload
    assert server.results[0].digest_ok is True


@pytest.mark.parametrize("mode", ["duplicate-1", "parity"])
def test_redundant_striped_roundtrip(mode):
    payload = os.urandom(1 << 20)
    with AsyncStripedServer() as server:
        report = send_striped(
            [[server.address]] * 3, payload,
            stripe_bytes=64 * 1024, redundancy=mode,
        )
        assert server.wait_for_sessions(1)
    assert not server.errors
    assert server.results[0].payload == payload
    assert server.results[0].digest_ok is True
    if mode.startswith("duplicate"):
        assert report.redundant_stripes > 0


class _CrashingRelay:
    """Accepts one connection, reads a little, then resets it — a
    depot that dies mid-transfer, deterministically."""

    def __init__(self, read_bytes=4096):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()
        self._read_bytes = read_bytes
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        got = 0
        try:
            while got < self._read_bytes:
                data = conn.recv(4096)
                if not data:
                    break
                got += len(data)
            # RST, not FIN: linger(0) makes the close abortive so the
            # sender sees a genuine crash
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",
            )
            conn.close()
        except OSError:
            pass

    def close(self):
        try:
            self._listener.close()
        except OSError:
            pass


def test_sublink_crash_degrades_under_duplicate_redundancy():
    """A mid-transfer sublink crash under duplicate-1 completes with
    zero resume round-trips: the survivors already carry coverage."""
    # large enough that the sender is still blocked in sendall when
    # the reset arrives (a 2 MiB payload fits in kernel buffers and
    # the crash would go unobserved)
    payload = os.urandom(16 << 20)
    relay = _CrashingRelay()
    try:
        with AsyncStripedServer() as server:
            report = send_striped(
                [[server.address], [relay.address]],
                payload,
                stripe_bytes=64 * 1024,
                redundancy="duplicate-1",
            )
            assert server.wait_for_sessions(1)
            assert report.sublink_errors  # the crash was observed
            assert not server.errors
            assert server.results[0].payload == payload
            assert server.results[0].digest_ok is True
    finally:
        relay.close()


def test_all_routes_dead_raises():
    # a bound-but-unaccepting listener with a full backlog is not
    # enough to fail fast portably; a closed port is
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    dead = probe.getsockname()
    probe.close()
    with pytest.raises(LslError):
        send_striped([[dead], [dead]], os.urandom(4096), timeout=2.0)


def test_duplicate_trailer_across_sublinks_discarded():
    payload = os.urandom(256 * 1024)
    with AsyncStripedServer() as server:
        send_striped(
            [[server.address]] * 2, payload,
            stripe_bytes=32 * 1024, redundancy="duplicate-1",
        )
        assert server.wait_for_sessions(1)
        # give the second trailer copy a moment to land and be dropped
        time.sleep(0.05)
    assert not server.errors
    assert server.results[0].digest_ok is True


def test_session_id_is_stable_across_sublinks():
    payload = os.urandom(64 * 1024)
    sid = random.Random(9).randbytes(16)
    with AsyncStripedServer() as server:
        report = send_striped([[server.address]] * 2, payload, session_id=sid)
        assert server.wait_for_sessions(1)
    assert report.session_id == sid
    assert server.results[0].session_id == sid
