"""Measured transfers over the *real-socket* stack (:mod:`repro.asockets`).

The simulator carries the paper's throughput claims; these runners
exercise the actual artifact shape — a client, N ``lsd`` depots, and a
server on loopback sockets. They back the ``--transport sockets`` paths
of ``repro-lsl transfer`` and ``repro-lsl failover``. Each client
transfer runs on its own event loop (``asyncio.run``), so the whole
path is loop-driven end to end.

:func:`run_socket_transfer` moves one digested payload through a depot
cascade and reports wall-clock goodput plus per-depot counters.
:func:`run_socket_failover` additionally crashes the primary depot
mid-transfer (socket-level resets on live relays) and drives the
client-side failover loop: back off, rebind over the backup route with
a negotiated resume query, and continue from the granted offset — the
same recovery sequence the simulator's ``FailoverTransfer`` runs.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.asockets import (
    AsyncDepot,
    AsyncLslClient,
    AsyncLslServer,
    AsyncStripedServer,
    async_send_striped,
)
from repro.lsl.core import (
    BackoffPolicy,
    FailoverExhausted,
    LslError,
    real_digest_factory,
)

#: Payload pattern block (repeated): cheap to generate at any size,
#: incompressible enough to be honest about copy costs.
_PATTERN = random.Random(20010825).randbytes(1 << 16)


def pattern_payload(nbytes: int) -> bytes:
    """Deterministic pattern bytes of exactly ``nbytes``."""
    reps = nbytes // len(_PATTERN) + 1
    return (_PATTERN * reps)[:nbytes]


@dataclass
class SocketTransferResult:
    """Outcome of one real-socket transfer."""

    nbytes: int
    duration_s: float
    completed: bool
    digest_ok: Optional[bool]
    attempts: int = 1
    failovers: int = 0
    error: Optional[str] = None
    depot_counters: List[Dict[str, int]] = field(default_factory=list)

    @property
    def throughput_mbps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.nbytes * 8 / self.duration_s / 1e6


async def _send(route, payload: bytes) -> None:
    """One complete client transfer: connect, payload, trailer, close."""
    async with AsyncLslClient(route, payload_length=len(payload)) as client:
        await client.sendall(payload)
        await client.finish()


def run_socket_transfer(
    nbytes: int,
    *,
    depots: int = 1,
    host: str = "127.0.0.1",
    timeout: float = 60.0,
) -> SocketTransferResult:
    """One digested transfer through ``depots`` cascaded real depots."""
    payload = pattern_payload(nbytes)
    with AsyncLslServer(host) as server:
        chain = [AsyncDepot(host) for _ in range(depots)]
        try:
            route = [d.address for d in chain] + [server.address]
            t0 = time.perf_counter()
            error: Optional[str] = None
            try:
                asyncio.run(_send(route, payload))
                completed = server.wait_for_sessions(1, timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - reported in result
                completed, error = False, f"{type(exc).__name__}: {exc}"
            duration = time.perf_counter() - t0
            digest_ok = None
            if server.results:
                digest_ok = server.results[0].digest_ok
                completed = completed and server.results[0].payload == payload
            elif server.errors and error is None:
                exc = server.errors[0]
                completed, error = False, f"{type(exc).__name__}: {exc}"
            for d in chain:  # let in-flight relays drain before snapshot
                _await_idle(d)
            return SocketTransferResult(
                nbytes=nbytes,
                duration_s=duration,
                completed=completed,
                digest_ok=digest_ok,
                error=error,
                depot_counters=[d.counters.snapshot() for d in chain],
            )
        finally:
            for d in chain:
                d.shutdown()


@dataclass
class SocketStripedResult(SocketTransferResult):
    """Outcome of one real-socket *striped* (multipath) transfer."""

    per_sublink_bytes: List[int] = field(default_factory=list)
    redundant_stripes: int = 0
    redeals: int = 0
    sublink_errors: int = 0


def run_socket_striped(
    nbytes: int,
    *,
    routes: int = 2,
    depots: int = 0,
    redundancy: str = "none",
    host: str = "127.0.0.1",
    timeout: float = 60.0,
    sndbuf: Optional[int] = 64 * 1024,
) -> SocketStripedResult:
    """One striped transfer over ``routes`` real sublinks.

    The first ``depots`` routes each run through their own ``lsd``
    depot (multipath); the rest go direct (parallel-TCP style). The
    small default ``sndbuf`` keeps loopback demand-paced so every
    sublink actually carries stripes instead of the first one
    swallowing the whole payload into kernel buffers.
    """
    if routes <= 0:
        raise LslError("need at least one route")
    if not 0 <= depots <= routes:
        raise LslError("depots must be between 0 and routes")
    payload = pattern_payload(nbytes)
    with AsyncStripedServer(host) as server:
        chain = [AsyncDepot(host) for _ in range(depots)]
        try:
            route_list = [
                [chain[i].address, server.address]
                if i < depots
                else [server.address]
                for i in range(routes)
            ]
            t0 = time.perf_counter()
            error: Optional[str] = None
            report = None
            try:
                report = asyncio.run(
                    async_send_striped(
                        route_list, payload, redundancy=redundancy,
                        timeout=timeout, sndbuf=sndbuf,
                    )
                )
                completed = server.wait_for_sessions(1, timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - reported in result
                completed, error = False, f"{type(exc).__name__}: {exc}"
            duration = time.perf_counter() - t0
            digest_ok = None
            if server.results:
                digest_ok = server.results[0].digest_ok
                completed = completed and server.results[0].payload == payload
            elif server.errors and error is None:
                exc = server.errors[0]
                completed, error = False, f"{type(exc).__name__}: {exc}"
            for d in chain:
                _await_idle(d)
            return SocketStripedResult(
                nbytes=nbytes,
                duration_s=duration,
                completed=completed,
                digest_ok=digest_ok,
                error=error,
                depot_counters=[d.counters.snapshot() for d in chain],
                per_sublink_bytes=(
                    list(report.per_sublink_bytes) if report else []
                ),
                redundant_stripes=report.redundant_stripes if report else 0,
                redeals=report.redeals if report else 0,
                sublink_errors=len(report.sublink_errors) if report else 0,
            )
        finally:
            for d in chain:
                d.shutdown()


def _await_idle(depot, timeout: float = 5.0) -> None:
    """Wait for a depot's active-session gauge to reach zero."""
    deadline = time.monotonic() + timeout
    while depot.counters.active_sessions > 0 and time.monotonic() < deadline:
        time.sleep(0.005)


def _crash_when_received(
    server, session_id: bytes, threshold: int,
    depot, crashed: threading.Event,
) -> None:
    """Crash ``depot`` once the server has ``threshold`` payload bytes.

    Watches the live receiver through the session registry (the relay's
    own ``bytes_relayed`` counter is batched per pump run, so it shows
    nothing until the relay *ends* — useless as a mid-stream trigger).
    """
    while not crashed.is_set():
        record = server.registry.get(session_id)
        live = getattr(record, "attachment", None) if record else None
        if live is not None and live.receiver.payload_received >= threshold:
            depot.shutdown(drain=False)  # non-draining shutdown == crash
            crashed.set()
            return
        time.sleep(0.002)


def run_socket_failover(
    nbytes: int,
    *,
    crash_after_fraction: float = 0.25,
    max_attempts: int = 4,
    backoff: Optional[BackoffPolicy] = None,
    host: str = "127.0.0.1",
    timeout: float = 60.0,
    rng: Optional[random.Random] = None,
    pace_s: float = 0.0005,
) -> SocketTransferResult:
    """Transfer through a primary depot that crashes mid-stream.

    Route 1 is ``client -> depot A -> server``; once depot A has
    relayed ``crash_after_fraction`` of the payload it is killed with
    its live sessions aborted. The client then fails over: exponential
    backoff, rebind through the backup depot B with ``resume_query``,
    resume from the server's granted offset, finish, verify the MD5.

    ``pace_s`` sleeps between 32 KiB client sends; loopback is fast
    enough that an unpaced transfer outruns the crash watcher and the
    failover path never fires.
    """
    if not (0.0 < crash_after_fraction < 1.0):
        raise LslError("crash_after_fraction must be in (0, 1)")
    payload = pattern_payload(nbytes)
    session_id = (rng or random.Random()).getrandbits(128).to_bytes(16, "big")
    policy = backoff or BackoffPolicy(base_s=0.05, max_s=1.0)
    rng = rng or random.Random(0)
    crashed = threading.Event()
    with AsyncLslServer(host) as server:
        primary = AsyncDepot(host)
        backup = AsyncDepot(host)
        watcher = threading.Thread(
            target=_crash_when_received,
            args=(
                server,
                session_id,
                int(nbytes * crash_after_fraction),
                primary,
                crashed,
            ),
            daemon=True,
        )
        watcher.start()
        t0 = time.perf_counter()
        attempts = 0
        failovers = 0
        error: Optional[str] = None
        try:
            sent = _failover_send(
                [primary.address, server.address],
                [backup.address, server.address],
                payload,
                session_id,
                policy,
                rng,
                max_attempts,
                pace_s=pace_s,
                # an attempt only counts once the *server* completed the
                # session: a send can return locally (bytes parked in
                # kernel buffers) while the relay already died
                confirm=lambda: server.wait_for_sessions(
                    1, timeout=min(5.0, timeout)
                ),
            )
            attempts, failovers = sent
            completed = server.wait_for_sessions(1, timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - reported in result
            completed, error = False, f"{type(exc).__name__}: {exc}"
        finally:
            crashed.set()
            primary.shutdown()
            backup.shutdown()
        duration = time.perf_counter() - t0
        digest_ok = None
        if server.results:
            digest_ok = server.results[0].digest_ok
            completed = completed and server.results[0].payload == payload
        return SocketTransferResult(
            nbytes=nbytes,
            duration_s=duration,
            completed=completed,
            digest_ok=digest_ok,
            attempts=max(attempts, 1),
            failovers=failovers,
            error=error,
            depot_counters=[
                primary.counters.snapshot(), backup.counters.snapshot()
            ],
        )


def _failover_send(
    primary_route: Sequence[Tuple[str, int]],
    backup_route: Sequence[Tuple[str, int]],
    payload: bytes,
    session_id: bytes,
    policy: BackoffPolicy,
    rng: random.Random,
    max_attempts: int,
    pace_s: float = 0.0,
    confirm=None,
) -> Tuple[int, int]:
    """Send with failover; returns ``(attempts, failovers)``.

    First attempt opens a fresh session on the primary route; every
    retry rebinds on the backup route with a resume query, restarting
    the trailer digest from the granted offset via the shared
    ``real_digest_factory``. An attempt succeeds only when ``confirm()``
    (server-side completion) agrees. Raises :class:`FailoverExhausted`
    when the attempt budget runs out.
    """
    attempts = 0
    failovers = 0
    last_error: Optional[Exception] = None
    while attempts < max_attempts:
        route = primary_route if attempts == 0 else backup_route
        rebind = attempts > 0
        attempts += 1
        try:
            asyncio.run(
                _one_attempt(route, payload, session_id, rebind, pace_s)
            )
            if confirm is not None and not confirm():
                raise LslError("relay lost the stream after a local send")
            return attempts, failovers
        except (OSError, LslError) as exc:
            last_error = exc
            failovers += 1
            time.sleep(policy.delay(failovers - 1, rng))
    raise FailoverExhausted(
        f"gave up after {attempts} attempts: {last_error}"
    ) from last_error


_PACE_CHUNK = 32 * 1024


async def _one_attempt(
    route: Sequence[Tuple[str, int]],
    payload: bytes,
    session_id: bytes,
    rebind: bool,
    pace_s: float = 0.0,
) -> None:
    kwargs = dict(payload_length=len(payload), session_id=session_id)
    if rebind:
        kwargs.update(
            rebind=True,
            resume_query=True,
            digest_factory=real_digest_factory(payload),
        )
    client = await AsyncLslClient.open(list(route), **kwargs)
    try:
        offset = client.granted_offset or 0
        for pos in range(offset, len(payload), _PACE_CHUNK):
            await client.sendall(payload[pos : pos + _PACE_CHUNK])
            if pace_s:
                await asyncio.sleep(pace_s)
        await client.finish()
    finally:
        client.close()
