"""Striped multipath LSL over asyncio sockets.

The :class:`~repro.lsl.core.StripeScheduler` /
:class:`~repro.lsl.core.StripeAssembler` machines that power the
simulator's striped sessions (:mod:`repro.lsl.core.striping`), driven
by one task per sublink on one event loop. Because every task runs on
that loop, the shared machines need no locks — between two awaits
nothing else can touch them — and the demand pacing falls out of
``sock_sendall``: a task awaiting a slow path's send buffer simply
yields the loop to the sublinks that can still make progress.

A sublink that dies (depot crash, connection reset) degrades the
transfer: its uncovered stripes are re-dealt to the survivors, and
under ``duplicate-k`` redundancy the survivors already carry full
coverage — the session completes with zero resume round-trips.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

import asyncio

from repro.lsl.core import (
    Completed,
    Deliver,
    Failed,
    LslError,
    LslHeader,
    ProtocolError,
    ProtocolObserver,
    Redundancy,
    RouteError,
    RouteHop,
    StripeAssembler,
    StripeScheduler,
    TraceContext,
    new_session_id,
    parse_redundancy,
)
from repro.lsl.core.striping import DEFAULT_STRIPE
from repro.telemetry.tracing import TraceSpool, new_trace_id
from repro.asockets import wire
from repro.asockets.runtime import AsyncLoopService
from repro.asockets.wire import CHUNK, header_phase, read_header


@dataclass
class StripedResult:
    """Outcome of one completed striped session (server side)."""

    session_id: bytes
    payload: bytes
    digest_ok: Optional[bool]
    sublinks: int
    duplicate_bytes: int
    reconstructed_blocks: int


@dataclass
class StripedSendReport:
    """Outcome of a striped send (client side)."""

    session_id: bytes
    per_sublink_bytes: List[int]
    redundant_stripes: int
    redeals: int
    sublink_errors: List[Exception] = field(default_factory=list)


def _normalize_routes(
    routes: Sequence[Sequence[Tuple[str, int]]],
) -> List[Tuple[RouteHop, ...]]:
    if not routes:
        raise RouteError("need at least one route")
    return [tuple(RouteHop(h, p) for h, p in route) for route in routes]


async def send_striped(
    routes: Sequence[Sequence[Tuple[str, int]]],
    payload: bytes,
    session_id: Optional[bytes] = None,
    stripe_bytes: int = DEFAULT_STRIPE,
    redundancy: Union[str, Redundancy] = "none",
    digest: bool = True,
    timeout: float = 30.0,
    observer: Optional[ProtocolObserver] = None,
    rng: Optional[random.Random] = None,
    sndbuf: Optional[int] = None,
    tracer: Optional[TraceSpool] = None,
    trace_id: Optional[bytes] = None,
    trace_parent: int = 0,
) -> StripedSendReport:
    """Send ``payload`` striped across ``routes`` (one task each).

    Raises :class:`LslError` only when no surviving sublink can
    complete coverage; individual failures degrade and land in
    ``sublink_errors``. With ``tracer`` set, the whole send is one
    ``client.session`` span and each sublink header carries the trace
    context parented to its ``client.dial`` span.
    """
    hop_routes = _normalize_routes(routes)
    if isinstance(redundancy, str):
        redundancy = parse_redundancy(redundancy)
    sid = session_id if session_id is not None else new_session_id(
        rng or random.Random()
    )
    session_span = 0
    if tracer is not None:
        if trace_id is None:
            trace_id = new_trace_id(rng)
        session_span = tracer.begin(
            "client.session",
            trace_id,
            parent=trace_parent,
            session=sid.hex()[:8],
            routes=[[f"{h.host}:{h.port}" for h in r] for r in hop_routes],
            striped=True,
        )
    scheduler = StripeScheduler(
        len(payload),
        data=payload,
        stripe_bytes=stripe_bytes,
        redundancy=redundancy,
        use_digest=digest,
        observer=observer,
        session=sid.hex()[:8],
    )
    loop = asyncio.get_running_loop()
    errors: List[Exception] = []
    sent_bytes = [0] * len(hop_routes)

    async def run_sublink(index: int, route) -> None:
        key = f"sub{index}"
        scheduler.add_sublink(key)
        dial_span = 0
        if tracer is not None:
            assert trace_id is not None
            dial_span = tracer.begin(
                "client.dial", trace_id, session_span,
                hop=str(route[0]), sublink=key,
            )
        header = LslHeader(
            session_id=sid,
            route=route,
            hop_index=0,
            payload_length=len(payload),
            digest=digest,
            sync=False,  # framed joins are asynchronous by design
            framed=True,
            trace=(
                TraceContext(trace_id, dial_span, 0)
                if tracer is not None and trace_id is not None
                else None
            ),
        )
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        if sndbuf is not None:
            # shrink the send buffer so demand pacing engages even on
            # loopback (otherwise the first task can drain the whole
            # scheduler into kernel memory before the others connect)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
        try:
            await asyncio.wait_for(
                loop.sock_connect(sock, (route[0].host, route[0].port)),
                timeout,
            )
            if dial_span:
                assert tracer is not None
                tracer.end(dial_span)
                dial_span = 0
            await loop.sock_sendall(sock, header.encode())
            while True:
                assignment = scheduler.next_assignment(key)
                if assignment is None:
                    scheduler.sublink_finished(key)
                    sock.shutdown(socket.SHUT_WR)
                    return
                body = (
                    assignment.payload
                    if assignment.payload is not None
                    else b""
                )
                # awaiting the send buffer IS the demand pacing: a
                # task stuck on a slow path yields to the sublinks
                # that can still pull stripes
                await loop.sock_sendall(
                    sock, assignment.frame_header() + body
                )
                assignment.header_sent = True
                assignment.sent = assignment.length
                if assignment.kind == "data":
                    sent_bytes[index] += assignment.length
        except (OSError, asyncio.TimeoutError) as exc:
            scheduler.sublink_lost(key, exc)
            errors.append(exc)
        finally:
            if dial_span:
                assert tracer is not None
                tracer.end(dial_span, status="error")
            try:
                sock.close()
            except OSError:
                pass

    await asyncio.gather(
        *(run_sublink(i, route) for i, route in enumerate(hop_routes))
    )
    if tracer is not None and session_span:
        tracer.end(
            session_span,
            status="error" if scheduler.failed is not None else "ok",
            bytes=sum(sent_bytes),
            redeals=scheduler.redeals,
        )
    if scheduler.failed is not None:
        raise LslError(f"striped send failed: {scheduler.failed}")
    return StripedSendReport(
        session_id=sid,
        per_sublink_bytes=sent_bytes,
        redundant_stripes=scheduler.redundant_stripes,
        redeals=scheduler.redeals,
        sublink_errors=errors,
    )


class _AsyncStripedSession:
    """Loop-confined shared state for one striped session."""

    __slots__ = (
        "header", "assembler", "chunks", "sublinks", "open", "span",
        "drop_timer",
    )

    def __init__(
        self, header: LslHeader, observer: Optional[ProtocolObserver]
    ) -> None:
        self.span = 0  # server.session trace span, when traced
        self.header = header
        self.assembler = StripeAssembler(
            header.payload_length,
            use_digest=header.digest,
            observer=observer,
            session=header.short_id,
        )
        self.chunks: List[bytes] = []
        self.sublinks = 0  # sublinks ever attached
        self.open = 0  # sublinks attached right now
        self.drop_timer: Optional[asyncio.TimerHandle] = None


class AsyncStripedServer(AsyncLoopService):
    """Accepts framed striped sessions on one event loop.

    Sublinks carrying the same session id feed one shared
    :class:`~repro.lsl.core.StripeAssembler`; no per-session lock is
    needed because every sublink task runs on the loop. Completed
    sessions land in ``results`` (and ``on_session``), failures in
    ``errors``.

    A session leaves the session map as soon as it completes or fails;
    only its id is kept, so a late redundant sublink is drained instead
    of opening a second session. A session whose every sublink closed
    before it completed is dropped (and counted in ``errors``) unless
    another sublink attaches within
    :data:`~repro.asockets.wire.HEADER_TIMEOUT_S` — sublinks through
    depots may arrive after a direct one already finished its share.
    """

    _thread_prefix = "alsl-striped"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_session: Optional[Callable[[StripedResult], None]] = None,
        observer: Optional[ProtocolObserver] = None,
        drain_timeout: float = 5.0,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        self.on_session = on_session
        self._observer = observer
        self._tracer = tracer
        self.results: List[StripedResult] = []
        self.errors: List[Exception] = []
        self._striped: Dict[bytes, _AsyncStripedSession] = {}
        self._finished: Set[bytes] = set()
        self._lock = threading.Lock()  # results/errors cross-thread reads
        super().__init__(host, port, drain_timeout=drain_timeout)

    async def _handle(self, sock: socket.socket) -> None:
        loop = self._loop
        session: Optional[_AsyncStripedSession] = None
        key = ""
        try:
            header, surplus = await header_phase(read_header(loop, sock))
            if not header.is_last_hop or not header.framed:
                raise ProtocolError(
                    "unframed or mis-routed striped sublink"
                )
            if header.session_id in self._finished:
                # a redundant copy arriving after completion
                await self._discard(sock)
                return
            session = self._attach(header)
            key = f"sub{session.sublinks}"
            session.sublinks += 1
            session.open += 1
            session.assembler.attach(key)
            if surplus:
                self._feed(session, key, surplus)
            while True:
                if session.assembler.finished:
                    if session.assembler.failed is None:
                        # completed: drain to EOF instead of closing
                        # with unread redundant copies in the buffer —
                        # that close would RST a peer still mid-send,
                        # and the sender would count a healthy sublink
                        # as lost
                        await self._discard(sock)
                    break
                try:
                    data = await loop.sock_recv(sock, CHUNK)
                except OSError:
                    break  # a dead sublink degrades, it doesn't fail
                if not data:
                    break
                self._feed(session, key, data)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            with self._lock:
                self.errors.append(exc)
        finally:
            if session is not None and key:
                session.assembler.sublink_closed(key)
                self._sublink_closed(session)
            try:
                sock.close()
            except OSError:
                pass

    def _attach(self, header: LslHeader) -> _AsyncStripedSession:
        session = self._striped.get(header.session_id)
        if session is None:
            session = _AsyncStripedSession(header, self._observer)
            if self._tracer is not None and header.trace is not None:
                session.span = self._tracer.begin(
                    "server.session",
                    header.trace.trace_id,
                    header.trace.parent_span,
                    session=header.short_id,
                    striped=True,
                    hop=header.trace.hop,
                )
            self._striped[header.session_id] = session
        elif session.header.payload_length != header.payload_length:
            raise ProtocolError("sublink disagrees on payload length")
        if session.drop_timer is not None:
            session.drop_timer.cancel()
            session.drop_timer = None
        return session

    def _sublink_closed(self, session: _AsyncStripedSession) -> None:
        session.open -= 1
        if session.open == 0 and not session.assembler.finished:
            session.drop_timer = self._loop.call_later(
                wire.HEADER_TIMEOUT_S, self._drop_abandoned, session
            )

    def _drop_abandoned(self, session: _AsyncStripedSession) -> None:
        session.drop_timer = None
        if session.open or session.assembler.finished:
            return
        error = ProtocolError(
            "striped session abandoned: every sublink closed before "
            "completion"
        )
        self._end(session, "error", error)

    def _end(
        self,
        session: _AsyncStripedSession,
        status: str,
        error: Optional[Exception] = None,
        **attrs: object,
    ) -> None:
        """Retire a finished session: forget it, keep only its id."""
        session_id = session.header.session_id
        self._striped.pop(session_id, None)
        self._finished.add(session_id)
        session.chunks = []
        if self._tracer is not None and session.span:
            self._tracer.end(session.span, status=status, **attrs)
            session.span = 0
        if error is not None:
            with self._lock:
                self.errors.append(error)

    async def _discard(self, sock: socket.socket) -> None:
        """Read ``sock`` to EOF, discarding everything."""
        buf = bytearray(CHUNK)
        try:
            while await self._loop.sock_recv_into(sock, buf):
                pass
        except OSError:
            pass

    def _feed(
        self, session: _AsyncStripedSession, key: str, data: bytes
    ) -> None:
        for event in session.assembler.feed_bytes(key, data):
            if isinstance(event, Deliver):
                assert event.chunk.data is not None
                session.chunks.append(event.chunk.data)
            elif isinstance(event, Completed):
                result = StripedResult(
                    session_id=session.header.session_id,
                    payload=b"".join(session.chunks),
                    digest_ok=event.digest_ok,
                    sublinks=session.sublinks,
                    duplicate_bytes=session.assembler.duplicate_bytes,
                    reconstructed_blocks=(
                        session.assembler.reconstructed_blocks
                    ),
                )
                self._end(
                    session, "ok",
                    bytes_received=len(result.payload),
                    sublinks=result.sublinks,
                )
                with self._lock:
                    self.results.append(result)
                if self.on_session is not None:
                    self.on_session(result)
            elif isinstance(event, Failed):
                self._end(session, "error", event.error)

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        """Block (caller thread) until ``count`` sessions finished."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if len(self.results) >= count:
                    return True
            time.sleep(0.01)
        return False
