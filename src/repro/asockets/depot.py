"""``lsd`` on asyncio — the real-socket depot.

A thin driver over :class:`~repro.lsl.core.RelayCore`: one event loop
carries every session, so concurrent-session count is bounded by file
descriptors, not threads. The relay pumps are zero-copy on the Python
side: one preallocated buffer per direction, ``sock_recv_into``
filling it and ``sock_sendall`` draining a ``memoryview`` slice, no
per-chunk bytes objects.

Counter accounting (:class:`DepotCounters`), the
:class:`~repro.lsl.core.ProtocolObserver` event plane, and the
``/metrics`` + ``/healthz`` + ``/events`` exposition surface
(:mod:`repro.telemetry.obs`) are shared with the cluster workers.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Dict, Optional

from repro.lsl.core import (
    Chunk,
    ProtocolError,
    ProtocolObserver,
    RelayCore,
    RelayReject,
)
from repro.lsl.core.events import emit
from repro.asockets.runtime import AsyncLoopService
from repro.asockets.wire import CHUNK, header_phase
from repro.telemetry.tracing import TraceSpool


class DepotCounters:
    """Thread-safe depot counters with an active-session gauge.

    The event loop mutates them while the exposition server's threads
    read them, so all mutation goes through :meth:`add` / the session
    gauge helpers under one internal lock, and :meth:`snapshot` returns
    a consistent view — readers never see a torn update. Mirrors the
    simulator depot's outcome accounting: ``sessions_completed`` only
    when the relay drained cleanly in both directions,
    ``sessions_failed`` otherwise.
    """

    _FIELDS = (
        "sessions_accepted",
        "sessions_completed",
        "sessions_failed",
        "sessions_suspended",
        "sessions_expired",
        "bytes_relayed",
        "accept_errors",
        "takeovers",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, int] = {name: 0 for name in self._FIELDS}
        self._active = 0

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                if name not in self._values:
                    raise AttributeError(f"unknown counter {name!r}")
                self._values[name] += delta

    def session_started(self) -> None:
        with self._lock:
            self._values["sessions_accepted"] += 1
            self._active += 1

    def session_ended(self, completed: bool) -> None:
        with self._lock:
            self._active -= 1
            key = "sessions_completed" if completed else "sessions_failed"
            self._values[key] += 1

    def session_suspended(self) -> None:
        """A terminal session EOFed mid-payload and is parked for a
        rebind — neither completed nor failed yet."""
        with self._lock:
            self._active -= 1
            self._values["sessions_suspended"] += 1

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return self._active

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            snap = dict(self._values)
            snap["active_sessions"] = self._active
            return snap

    def __getattr__(self, name: str) -> int:
        if name in DepotCounters._FIELDS:
            with self._lock:
                return self._values[name]
        raise AttributeError(name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DepotCounters({self.snapshot()})"


class AsyncDepot(AsyncLoopService):
    """A depot relaying sessions on one event loop until ``shutdown``.

    ``connect_timeout`` bounds the downstream dial only and
    :data:`~repro.asockets.wire.HEADER_TIMEOUT_S` the header phase —
    established relays carry no timeout, so arbitrarily long
    mid-transfer idle gaps never kill a healthy session.
    """

    _thread_prefix = "alsd"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        observer: Optional[ProtocolObserver] = None,
        connect_timeout: float = 30.0,
        drain_timeout: float = 5.0,
        backlog: int = 4096,
        reuse_port: bool = False,
        listener: Optional[socket.socket] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        self.counters = DepotCounters()
        self._observer = observer
        self._tracer = tracer
        self._connect_timeout = connect_timeout
        super().__init__(
            host,
            port,
            drain_timeout=drain_timeout,
            backlog=backlog,
            reuse_port=reuse_port,
            listener=listener,
        )

    # -- accept hooks ------------------------------------------------------

    def _on_accepted(self, sock: socket.socket) -> None:
        self.counters.session_started()

    def _on_accept_error(self, exc: OSError) -> None:
        self.counters.add(accept_errors=1)
        emit(self._observer, "accept-error", "",
             error=type(exc).__name__, detail=str(exc))

    # -- one relay session -------------------------------------------------

    async def _handle(self, upstream: socket.socket) -> None:
        loop = self._loop
        completed = False
        failure: Optional[BaseException] = None
        core = RelayCore(observer=self._observer)

        async def decide():
            decision = None
            while decision is None:
                data = await loop.sock_recv(upstream, CHUNK)
                if not data:
                    error = core.on_upstream_fin()
                    raise error if error is not None else ProtocolError(
                        "upstream closed during header phase"
                    )
                decision = core.feed([Chunk.real(data)])
            return decision

        try:
            decision = await header_phase(decide())
            if isinstance(decision, RelayReject):
                raise decision.error
            await self._relay(upstream, decision)
            completed = True
        except asyncio.CancelledError as exc:
            failure = exc
            raise
        except Exception as exc:
            failure = exc
        finally:
            self.counters.session_ended(completed)
            if not completed:
                emit(self._observer, "relay-failed",
                     core.header.short_id if core.header is not None else "",
                     reason=f"{type(failure).__name__}: {failure}")
            try:
                upstream.close()
            except OSError:
                pass

    async def _relay(self, upstream: socket.socket, decision) -> None:
        """Dial the decided next hop and pump both directions to EOF.

        Owns the downstream socket for its whole life (closed before
        returning) so callers only manage the upstream side. Shared
        with the async cluster node, whose sessions enter here after
        their own header phase.
        """
        loop = self._loop
        tracer = self._tracer
        tctx = decision.header.trace
        relay_span = 0
        dial_span = 0
        onward = decision.onward_bytes
        if tracer is not None and tctx is not None:
            # traced depot: forward our relay span as the downstream
            # parent instead of the core's verbatim onward header
            relay_span = tracer.begin(
                "depot.relay",
                tctx.trace_id,
                tctx.parent_span,
                session=decision.header.short_id,
                depot=f"{self.address[0]}:{self.address[1]}",
                hop=tctx.hop,
            )
            onward = decision.header.traced_onward(relay_span).encode()
        downstream: Optional[socket.socket] = None
        status = "error"
        try:
            nxt = decision.next_hop
            if relay_span:
                dial_span = tracer.begin(
                    "depot.dial", tctx.trace_id, relay_span, hop=str(nxt)
                )
            downstream = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            downstream.setblocking(False)
            await asyncio.wait_for(
                loop.sock_connect(downstream, (nxt.host, nxt.port)),
                self._connect_timeout,
            )
            if dial_span:
                tracer.end(dial_span)
                dial_span = 0
            await loop.sock_sendall(downstream, onward)
            relayed = 0
            for chunk in decision.surplus:
                assert chunk.data is not None  # real sockets carry real bytes
                await loop.sock_sendall(downstream, chunk.data)
                relayed += chunk.length
            if relayed:
                self.counters.add(bytes_relayed=relayed)
            # full-duplex relay: two pump tasks, half-close aware; a
            # cancelled gather cancels both pumps with it
            await asyncio.gather(
                self._pump(upstream, downstream),
                self._pump(downstream, upstream),
            )
            status = "ok"
        finally:
            if tracer is not None:
                if dial_span:
                    tracer.end(dial_span, status="error")
                if relay_span:
                    tracer.end(relay_span, status=status)
            if downstream is not None:
                try:
                    downstream.close()
                except OSError:
                    pass

    async def _pump(self, src: socket.socket, dst: socket.socket) -> None:
        """Copy src -> dst until EOF, then half-close dst.

        Zero-copy: ``sock_recv_into`` refills one preallocated buffer
        and ``sock_sendall`` transmits a ``memoryview`` slice of it —
        safe because the two awaits are strictly sequential within this
        task. The byte counter is batched per pump run, one locked
        update instead of one per chunk.
        """
        loop = self._loop
        buf = bytearray(CHUNK)
        view = memoryview(buf)
        copied = 0
        try:
            while True:
                n = await loop.sock_recv_into(src, buf)
                if not n:
                    break
                await loop.sock_sendall(dst, view[:n])
                copied += n
        except OSError:
            pass
        finally:
            if copied:
                self.counters.add(bytes_relayed=copied)
            try:
                dst.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    # -- observability -----------------------------------------------------

    def expose(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        event_log=None,
    ):
        """Serve ``/metrics`` + ``/healthz`` + ``/events`` for this depot."""
        from repro.telemetry.obs import ExpositionServer, depot_families

        def collect():
            return depot_families(self.counters.snapshot(), event_log)

        def health() -> Dict[str, object]:
            return {
                "status": "ok",
                "depot": f"{self.address[0]}:{self.address[1]}",
                "active_sessions": self.counters.active_sessions,
            }

        return ExpositionServer(
            collect, host=host, port=port, health=health,
            event_log=event_log, trace_spool=self._tracer,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AsyncDepot {self.address[0]}:{self.address[1]}>"
