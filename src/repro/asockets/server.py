"""Asyncio LSL server over real sockets.

A thin driver over the sans-I/O machines —
:class:`~repro.lsl.core.SessionAcceptor` arbitrates
fresh/rebind/restart, :class:`~repro.lsl.core.PayloadReceiver` /
:class:`~repro.lsl.core.FramedReceiver` own payload accounting and the
end-to-end MD5, :func:`~repro.lsl.core.negotiate_resume` answers
resume queries — run from one event loop. Because all session logic
runs single-threaded in that loop, no per-session lock is needed: a
rebind simply cancels the task serving the dead sublink (its pending
read wakes with ``CancelledError`` and closes only its own socket) and
re-attaches the receiver state to the new sublink's task.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import asyncio

from repro.lsl.core import (
    AcceptRebind,
    Chunk,
    Completed,
    Deliver,
    EOF_COMPLETE,
    EOF_SUSPEND,
    Failed,
    FramedReceiver,
    LslHeader,
    PayloadReceiver,
    ProtocolError,
    ProtocolObserver,
    RejectSession,
    RestartSession,
    SessionAcceptor,
    SessionRegistry,
    negotiate_resume,
)
from repro.lsl.core.events import emit
from repro.asockets.runtime import AsyncLoopService
from repro.asockets.wire import CHUNK, header_phase, read_header
from repro.telemetry.tracing import TraceSpool


@dataclass
class SessionResult:
    """Outcome of one completed real-socket session."""

    session_id: bytes
    payload: bytes
    digest_ok: Optional[bool]
    route_len: int
    rebinds: int = 0


class _LiveAsyncSession:
    """Receiver state that outlives individual sublinks (rebinds)."""

    __slots__ = ("receiver", "chunks", "sock", "task", "span", "trace")

    def __init__(
        self, receiver: Union[PayloadReceiver, FramedReceiver]
    ) -> None:
        self.receiver = receiver
        self.chunks: List[bytes] = []
        self.sock: Optional[socket.socket] = None
        self.task: Optional["asyncio.Task"] = None
        # distributed tracing: active server.session span per sublink
        # attachment (a rebind closes it and opens a new one)
        self.span = 0
        self.trace: Optional[bytes] = None


class AsyncLslServer(AsyncLoopService):
    """Accepts LSL sessions on one event loop; verifies digests.

    Completed sessions land in ``results`` (and ``on_session``),
    refused or broken ones in ``errors``. A finished session keeps only
    its closed registry record, so a reused session id is still
    rejected; its receiver and payload are released.
    """

    _thread_prefix = "alsl-srv"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_session: Optional[Callable[[SessionResult], None]] = None,
        reply: Optional[bytes] = None,
        observer: Optional[ProtocolObserver] = None,
        drain_timeout: float = 5.0,
        session_ttl: Optional[float] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        self.on_session = on_session
        self.reply = reply
        self._observer = observer
        self._tracer = tracer
        self.registry = SessionRegistry()
        self._acceptor = SessionAcceptor(self.registry, observer)
        self.results: List[SessionResult] = []
        self.errors: List[Exception] = []
        self.accept_errors = 0
        self.sessions_expired = 0
        if session_ttl is not None and session_ttl <= 0:
            raise ValueError("session_ttl must be positive")
        self._session_ttl = session_ttl
        self._lock = threading.Lock()  # results/errors cross-thread reads
        super().__init__(host, port, drain_timeout=drain_timeout)
        if session_ttl is not None:
            self._loop.call_soon_threadsafe(self._start_sweeper)

    def _start_sweeper(self) -> None:
        task = self._loop.create_task(self._sweep_loop())
        # registered like a session so shutdown cancels it cleanly
        self._sessions.add(task)
        task.add_done_callback(self._sessions.discard)

    async def _sweep_loop(self) -> None:
        """Expire suspended sessions that never rebound."""
        ttl = self._session_ttl
        assert ttl is not None
        while True:
            await asyncio.sleep(min(ttl / 4.0, 1.0))
            expired = self.registry.expire(time.monotonic(), ttl)
            with self._lock:
                self.sessions_expired += len(expired)
            for record in expired:
                emit(self._observer, "session-expired",
                     record.session_id.hex()[:8],
                     bytes_received=record.bytes_received)
                live = record.attachment
                task = getattr(live, "task", None)
                if task is not None and not task.done():
                    task.cancel()

    def _on_accept_error(self, exc: OSError) -> None:
        self.accept_errors += 1

    # -- session tasks -----------------------------------------------------

    async def _handle(self, sock: socket.socket) -> None:
        task = asyncio.current_task()
        try:
            header, surplus = await header_phase(read_header(self._loop, sock))
            live, reply = self._attach(sock, task, header)
            if reply:
                await self._loop.sock_sendall(sock, reply)
            await self._drive(sock, live, surplus)
        except asyncio.CancelledError:
            # displaced by a rebind/restart (or shutdown): only this
            # sublink is finished — the receiver state lives on
            try:
                sock.close()
            except OSError:
                pass
            raise
        except Exception as exc:
            with self._lock:
                self.errors.append(exc)
            try:
                sock.close()
            except OSError:
                pass

    def _attach(self, sock, task, header: LslHeader):
        """Run the accept decision and wire up the sublink.

        Synchronous on purpose: between two awaits of this task nothing
        else can touch the registry, which is all the serialization the
        single-loop driver needs.
        """
        decision = self._acceptor.decide(header, time.monotonic())
        if isinstance(decision, RejectSession):
            raise decision.error
        if isinstance(decision, AcceptRebind):
            live: _LiveAsyncSession = decision.record.attachment
            old = live.task
            if old is not None and old is not task:
                # kick the task still serving the dead sublink; it
                # wakes cancelled and closes only its own socket
                old.cancel()
            reply = negotiate_resume(
                header, live.receiver.payload_received, self._observer
            )
            granted = live.receiver.payload_received
            live.receiver.rebind(header)
            live.sock, live.task = sock, task
            self._begin_span(live, header, granted=granted)
            return live, reply
        if isinstance(decision, RestartSession) and isinstance(
            decision.stale, _LiveAsyncSession
        ):
            stale_task = decision.stale.task
            if stale_task is not None and stale_task is not task:
                stale_task.cancel()
        receiver: Union[PayloadReceiver, FramedReceiver]
        if header.framed:
            receiver = FramedReceiver(header, self._observer)
        else:
            receiver = PayloadReceiver(header, self._observer)
        live = _LiveAsyncSession(receiver)
        live.sock, live.task = sock, task
        decision.record.attachment = live
        self._begin_span(live, header)
        return live, decision.reply

    # -- tracing -----------------------------------------------------------

    def _begin_span(
        self,
        live: _LiveAsyncSession,
        header: LslHeader,
        granted: Optional[int] = None,
    ) -> None:
        """Open a ``server.session`` span for this sublink attachment
        (a rebind closes the old span as ``rebound``, emits
        ``server.resume-grant``, and opens a fresh span parented to the
        new sublink's trace context)."""
        tracer = self._tracer
        if tracer is None or header.trace is None:
            return
        if live.span:
            tracer.end(live.span, status="rebound")
        tctx = header.trace
        live.trace = tctx.trace_id
        live.span = tracer.begin(
            "server.session",
            tctx.trace_id,
            tctx.parent_span,
            session=header.short_id,
            rebind=header.rebind,
            hop=tctx.hop,
        )
        if granted is not None:
            tracer.instant(
                "server.resume-grant", tctx.trace_id, live.span,
                granted=granted,
            )

    def _end_span(self, live: _LiveAsyncSession, status: str) -> None:
        if self._tracer is None or not live.span:
            return
        if status == "suspended" and live.trace is not None:
            self._tracer.instant(
                "server.suspend", live.trace, live.span,
                bytes_received=live.receiver.payload_received,
            )
        self._tracer.end(
            live.span, status=status,
            bytes_received=live.receiver.payload_received,
        )
        live.span = 0

    async def _drive(
        self, sock: socket.socket, live: _LiveAsyncSession, surplus: bytes
    ) -> None:
        """Feed the receiver from the sublink until it finishes or EOFs."""
        loop = self._loop
        if surplus:
            if await self._apply(live, live.receiver.feed([Chunk.real(surplus)])):
                sock.close()
                return
        while not live.receiver.finished:
            try:
                data = await loop.sock_recv(sock, CHUNK)
            except OSError:
                return  # sublink died
            if not data:
                disposition = live.receiver.feed_eof()
                if disposition == EOF_SUSPEND:
                    # keep receiver state; a rebind may resume us
                    self._note_suspended(live)
                    try:
                        sock.close()
                    except OSError:
                        pass
                    return
                if disposition == EOF_COMPLETE:
                    await self._finalize(live, live.receiver.digest_ok)
                break
            if await self._apply(live, live.receiver.feed([Chunk.real(data)])):
                break
        try:
            sock.close()
        except OSError:
            pass

    async def _apply(self, live: _LiveAsyncSession, events) -> bool:
        """Apply receiver events; True once the session is finished."""
        for event in events:
            if isinstance(event, Deliver):
                if event.chunk.data is None:
                    raise ProtocolError("virtual bytes over a real socket")
                live.chunks.append(event.chunk.data)
            elif isinstance(event, Completed):
                await self._finalize(live, event.digest_ok)
                return True
            elif isinstance(event, Failed):
                self._close_record(live)
                raise event.error
        return live.receiver.finished

    def _note_suspended(self, live: _LiveAsyncSession) -> None:
        record = self.registry.get(live.receiver.session_id)
        if record is not None:
            record.bytes_received = live.receiver.payload_received
            record.last_active = time.monotonic()
        self._end_span(live, "suspended")

    def _close_record(self, live: _LiveAsyncSession):
        """Close the session's record and release its receiver state.

        The record stays (it rejects a reused session id); the
        attachment goes, so a finished session's payload is not held
        for the server's lifetime.
        """
        session_id = live.receiver.session_id
        self.registry.close(session_id)
        record = self.registry.get(session_id)
        if record is not None:
            record.bytes_received = live.receiver.payload_received
            record.last_active = time.monotonic()
            record.attachment = None
        return record

    async def _finalize(
        self, live: _LiveAsyncSession, digest_ok: Optional[bool]
    ) -> None:
        session_id = live.receiver.session_id
        self._end_span(
            live, "ok" if digest_ok in (None, True) else "digest-failed"
        )
        record = self._close_record(live)
        header = live.receiver.header
        result = SessionResult(
            session_id=session_id,
            payload=b"".join(live.chunks),
            digest_ok=digest_ok,
            route_len=len(header.route),
            rebinds=record.rebinds if record is not None else 0,
        )
        live.chunks.clear()
        if live.sock is not None and self.reply is not None:
            await self._loop.sock_sendall(live.sock, self.reply)
        with self._lock:
            self.results.append(result)
        if self.on_session is not None:
            self.on_session(result)

    # -- observability -----------------------------------------------------

    def expose(self, host: str = "127.0.0.1", port: int = 0, event_log=None):
        """Serve ``/metrics`` + ``/healthz`` (+ ``/events``)."""
        from repro.telemetry.obs import ExpositionServer, depot_families

        def collect():
            with self._lock:
                snap = {
                    "sessions_completed": len(self.results),
                    "sessions_failed": len(self.errors),
                    "sessions_expired": self.sessions_expired,
                }
            return depot_families(snap, event_log, prefix="lsl_server_")

        def health():
            return {
                "status": "ok",
                "server": f"{self.address[0]}:{self.address[1]}",
            }

        return ExpositionServer(
            collect, host=host, port=port, health=health,
            event_log=event_log, trace_spool=self._tracer,
        )

    # -- lifecycle ---------------------------------------------------------

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        """Block (caller thread) until ``count`` sessions finished."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if len(self.results) + len(self.errors) >= count:
                    return True
            time.sleep(0.01)
        return False
