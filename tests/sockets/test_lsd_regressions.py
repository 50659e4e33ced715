"""Regression tests for three ``lsd`` / server lifecycle bugs.

1. **Relay idle-kill**: the downstream dial's ``connect_timeout`` must
   not stay armed for the whole relay, or any mid-transfer idle gap
   longer than it (a stalled sender, a long zero-window) kills a
   healthy session with ``TimeoutError``.
2. **Accept-loop permadeath**: an ``OSError`` out of ``accept()`` that
   is a per-connection transient (EMFILE, ECONNABORTED) must not exit
   the accept loop, or the depot/server is wedged while ``/healthz``
   still reports it healthy.
3. **Silent session failure**: relay failures must land in a counter
   and an event, never vanish into ``except Exception: pass``.

Plus coverage for the depot failure-path counters: each distinct way a
session can die must land in ``sessions_failed`` with an observable
``relay-failed`` event carrying the reason.
"""

from __future__ import annotations

import errno
import socket
import threading
import time

import pytest

from repro.asockets import AsyncDepot, AsyncLslServer
from repro.lsl.core import ProtocolError
from tests.helpers import SyncClient

PAYLOAD = bytes(range(256)) * 400  # 102_400 bytes


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


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# -- bug 1: relay idle-kill -------------------------------------------------


def test_relay_survives_idle_gap_longer_than_connect_timeout():
    """A sender that stalls longer than the depot's dial timeout and
    then resumes must still complete — the timeout bounds the *connect*
    only, never an established relay."""
    with AsyncLslServer() as server:
        with AsyncDepot(connect_timeout=0.3) as depot:
            client = SyncClient(
                [depot.address, server.address], payload_length=len(PAYLOAD)
            )
            half = len(PAYLOAD) // 2
            client.sendall(PAYLOAD[:half])
            time.sleep(0.8)  # well past connect_timeout mid-transfer
            client.sendall(PAYLOAD[half:])
            client.finish()
            assert server.wait_for_sessions(1, timeout=10)
            client.close()
    assert not server.errors
    (result,) = server.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True


# -- bug 2: accept-loop permadeath -----------------------------------------


def _inject_flaky_accepts(service, failures, err=errno.EMFILE):
    """Make the service's next ``sock_accept`` calls fail with ``err``.

    The accept task is already parked inside a real ``sock_accept``, so
    one throwaway connection (a FIN during the header phase, counted as
    a failed session) flushes it; the loop then re-enters through the
    patched method.
    """
    real = service._loop.sock_accept
    state = {"left": failures}

    async def flaky(listener):
        if state["left"] > 0:
            state["left"] -= 1
            raise OSError(err, "injected accept failure")
        return await real(listener)

    service._loop.sock_accept = flaky
    dummy = socket.create_connection(service.address, timeout=5)
    dummy.close()


def test_depot_accept_loop_survives_transient_oserror():
    observer = RecordingObserver()
    with AsyncLslServer() as server:
        with AsyncDepot(observer=observer) as depot:
            _inject_flaky_accepts(depot, failures=2)
            assert _wait(lambda: depot.counters.accept_errors == 2)
            with SyncClient(
                [depot.address, server.address], payload_length=len(PAYLOAD)
            ) as client:
                client.sendall(PAYLOAD)
                client.finish()
                assert server.wait_for_sessions(1, timeout=10)
    assert depot.counters.accept_errors == 2
    assert observer.kinds().count("accept-error") == 2
    assert observer.detail_for("accept-error")["error"] == "OSError"
    (result,) = server.results
    assert result.digest_ok is True


def test_server_accept_loop_survives_transient_oserror():
    with AsyncLslServer() as server:
        _inject_flaky_accepts(server, failures=1, err=errno.ECONNABORTED)
        assert _wait(lambda: server.accept_errors == 1)
        with SyncClient(
            [server.address], payload_length=len(PAYLOAD)
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
            assert server.wait_for_sessions(2, timeout=10)
    assert server.accept_errors == 1
    results_ok = [r.digest_ok for r in server.results]
    assert True in results_ok


def test_depot_accept_loop_exits_on_fatal_errno():
    """EBADF means the listener itself is gone — the loop must exit,
    not spin on a dead socket."""
    depot = AsyncDepot()
    _inject_flaky_accepts(depot, failures=10_000, err=errno.EBADF)
    assert _wait(lambda: depot.counters.sessions_failed == 1)
    # a spinning loop would count accept errors; an exited one never
    # accepts again
    late = socket.create_connection(depot.address, timeout=5)
    time.sleep(0.2)
    assert depot.counters.accept_errors == 0
    assert depot.counters.sessions_accepted == 1
    late.close()
    depot.shutdown()


# -- bug 3: silent failures -------------------------------------------------


def test_failed_relay_emits_event_and_counts():
    """Downstream connect refusal: the session must land in
    ``sessions_failed`` and produce a ``relay-failed`` event naming the
    reason — never vanish silently."""
    observer = RecordingObserver()
    # reserve a port with nothing listening on it
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_address = probe.getsockname()
    probe.close()
    with AsyncDepot(observer=observer) as depot:
        # sync establishment never completes: the depot hangs up after
        # the refused dial, which the client sees as EOF mid-handshake
        with pytest.raises((OSError, ProtocolError)):
            with SyncClient(
                [depot.address, dead_address],
                payload_length=len(PAYLOAD),
                timeout=5,
            ) as client:
                client.sendall(PAYLOAD)
                client.finish()
                client.recv()
        assert _wait(lambda: depot.counters.sessions_failed == 1)
    detail = observer.detail_for("relay-failed")
    assert detail is not None
    assert "ConnectionRefusedError" in detail["reason"]
    assert depot.counters.sessions_completed == 0


def test_rejected_header_counts_as_failed_session():
    observer = RecordingObserver()
    with AsyncDepot(observer=observer) as depot:
        raw = socket.create_connection(depot.address, timeout=5)
        raw.sendall(b"\x00" * 64)  # not an LSL header
        raw.shutdown(socket.SHUT_WR)
        assert raw.recv(1) == b""  # depot hangs up
        raw.close()
        assert _wait(lambda: depot.counters.sessions_failed == 1)
    assert "relay-failed" in observer.kinds()


def test_upstream_fin_during_header_counts_as_failed_session():
    observer = RecordingObserver()
    with AsyncDepot(observer=observer) as depot:
        raw = socket.create_connection(depot.address, timeout=5)
        raw.sendall(b"LSL")  # a header prefix, then vanish
        raw.close()
        assert _wait(lambda: depot.counters.sessions_failed == 1)
    detail = observer.detail_for("relay-failed")
    assert detail is not None and detail["reason"]


def test_abort_sessions_resets_live_relays():
    """A crash shutdown (``drain=False``) must actually sever relays —
    including pumps parked inside ``recv`` — so peers observe the
    crash instead of hanging on a half-dead depot."""
    with AsyncLslServer() as server:
        depot = AsyncDepot()
        client = SyncClient(
            [depot.address, server.address], payload_length=len(PAYLOAD)
        )
        client.sendall(PAYLOAD[: len(PAYLOAD) // 2])

        def server_got(n):
            record = server.registry.get(client.header.session_id)
            live = getattr(record, "attachment", None) if record else None
            return live is not None and live.receiver.payload_received >= n

        assert _wait(lambda: server_got(len(PAYLOAD) // 2))
        depot.shutdown(drain=False)
        # the client's next writes must fail fast, not block forever
        rest = PAYLOAD[len(PAYLOAD) // 2 :]
        with pytest.raises(OSError):
            for pos in range(0, len(rest), 1024):
                client.sendall(rest[pos : pos + 1024])
                time.sleep(0.01)
        client.close()
        assert _wait(lambda: depot.counters.active_sessions == 0)
