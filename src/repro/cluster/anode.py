"""Asyncio depot worker with store-backed terminal sessions.

``lsd`` proper is a stateless relay: header in, next hop dialed, pumps
until EOF. An :class:`AsyncClusterNode` does exactly that for
intermediate-hop sublinks (through the base
:class:`~repro.asockets.depot.AsyncDepot` machinery) — but when the
header addresses *it* as the final hop, it terminates the session the
way an LSL server would (receiver state, negotiated resume, end-to-end
MD5), with one difference that makes the cluster work: the durable
half of the session lives in the shared
:class:`~repro.cluster.store.SessionStore`, not in this process.

Received payload is checkpointed to the store's spool every
``checkpoint_bytes`` (and fully on suspend), so after this worker is
SIGKILLed a rebind landing on *any* worker can grant the spooled
length and rebuild the receiver — running MD5 included — by re-feeding
the spool. The digest is never serialized; the spooled bytes are its
only portable representation.

Store operations are short blocking calls executed in-loop;
checkpoint batching keeps them off the per-read path. ``lsd --workers
N`` gives N loops behind one port — the multi-core story one event
loop alone lacks.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from typing import Callable, List, Optional, Union

from repro.lsl.core import (
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
    RelayCore,
    RelayReject,
)
from repro.lsl.core.events import emit
from repro.asockets.depot import AsyncDepot
from repro.asockets.server import SessionResult
from repro.asockets.wire import CHUNK, header_phase, read_header
from repro.cluster.acceptor import (
    StoreAcceptResume,
    StoreDecision,
    StoreSessionAcceptor,
)
from repro.cluster.store import SessionStore
from repro.telemetry.tracing import TraceSpool

#: Spool checkpoint granularity: how much received payload a worker
#: may hold un-checkpointed. Smaller = finer resume offsets after a
#: crash but more store round-trips; 256 KiB keeps the store off the
#: per-read hot path while bounding client re-send after failover.
DEFAULT_CHECKPOINT_BYTES = 256 * 1024


class _TerminalSession:
    """Everything about one store-backed terminal session but the
    socket reads: receiver state, spool checkpoints, completion, and
    the ``server.session`` / ``store.cas`` trace spans."""

    def __init__(
        self,
        store: SessionStore,
        worker: str,
        header: LslHeader,
        decision: StoreDecision,
        observer: Optional[ProtocolObserver],
        checkpoint_bytes: int,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        self.store = store
        self.worker = worker
        self.header = header
        self.session_id = header.session_id
        self.epoch = decision.record.epoch
        self.reply = decision.reply
        self.checkpoint_bytes = checkpoint_bytes
        self.takeover = (
            isinstance(decision, StoreAcceptResume) and decision.takeover
        )
        self.tracer = tracer if header.trace is not None else None
        self.span = 0
        if self.tracer is not None:
            tctx = header.trace
            assert tctx is not None
            self.span = self.tracer.begin(
                "server.session",
                tctx.trace_id,
                tctx.parent_span,
                session=header.short_id,
                worker=worker,
                rebind=header.rebind,
                hop=tctx.hop,
            )
            if isinstance(decision, StoreAcceptResume):
                self.tracer.instant(
                    "server.resume-grant", tctx.trace_id, self.span,
                    granted=decision.prefix_length,
                    takeover=decision.takeover,
                )
        receiver: Union[PayloadReceiver, FramedReceiver]
        if header.framed:
            receiver = FramedReceiver(header, observer)
        else:
            receiver = PayloadReceiver(header, observer)
        self.receiver = receiver
        self.chunks: List[bytes] = []
        self.pending = bytearray()
        self.digest_ok: Optional[bool] = None
        self.completed = False
        self.ownership_lost = False
        if isinstance(decision, StoreAcceptResume) and decision.prefix_length:
            self._prime(store.payload(self.session_id))

    def _prime(self, prefix: bytes) -> None:
        """Rebuild receiver state (offset + MD5) from the spool.

        Framed sessions prime the *inner* payload receiver directly:
        the spool holds decoded payload, not frames, and the new
        sublink starts a fresh frame stream at the granted offset.
        """
        inner = (
            self.receiver.inner
            if isinstance(self.receiver, FramedReceiver)
            else self.receiver
        )
        for event in inner.feed([Chunk.real(prefix)]):
            if isinstance(event, Deliver):
                assert event.chunk.data is not None
                self.chunks.append(event.chunk.data)

    @property
    def finished(self) -> bool:
        return self.receiver.finished or self.ownership_lost

    # -- live bytes --------------------------------------------------------

    def ingest(self, data: bytes) -> None:
        """Feed sublink bytes; checkpoints and completes as it goes.

        Raises the receiver's error on protocol/digest failure (the
        store record is closed first so the id cannot be resumed).
        """
        for event in self.receiver.feed([Chunk.real(data)]):
            if isinstance(event, Deliver):
                if event.chunk.data is None:
                    raise ProtocolError("virtual bytes over a real socket")
                self.chunks.append(event.chunk.data)
                self.pending.extend(event.chunk.data)
            elif isinstance(event, Completed):
                self._complete(event.digest_ok)
            elif isinstance(event, Failed):
                self.store.finish(
                    self.session_id, self.worker, self.epoch, time.time()
                )
                raise event.error
        if (
            not self.receiver.finished
            and len(self.pending) >= self.checkpoint_bytes
        ):
            self.flush()

    def flush(self) -> bool:
        """Checkpoint pending payload; False when ownership was lost."""
        if self.ownership_lost:
            return False
        if not self.pending:
            return True
        cas_span = self._begin_cas("append", bytes=len(self.pending))
        total = self.store.append_payload(
            self.session_id,
            self.worker,
            self.epoch,
            bytes(self.pending),
            time.time(),
        )
        self.pending.clear()
        if total is None:
            # a takeover claimed the session away from us: abandon the
            # sublink; the new owner serves the session from the spool
            self._end_cas(cas_span, "lost")
            self.ownership_lost = True
            return False
        self._end_cas(cas_span, "ok")
        return True

    def on_eof(self) -> str:
        """Classify a clean FIN; returns the session status."""
        disposition = self.receiver.feed_eof()
        if disposition == EOF_SUSPEND:
            # park the session in the store for a rebind — on this
            # worker or any other
            if not self.flush():
                return "suspended"
            self.store.touch(
                self.session_id, self.worker, self.epoch, time.time()
            )
            return "suspended"
        if disposition == EOF_COMPLETE:
            # stream-until-FIN: EOF is the completion signal
            self._complete(self.receiver.digest_ok)
        return "completed" if self.completed else "failed"

    def _complete(self, digest_ok: Optional[bool]) -> None:
        cas_span = self._begin_cas("finish")
        if not self.store.finish(
            self.session_id, self.worker, self.epoch, time.time()
        ):
            self._end_cas(cas_span, "lost")
            self.ownership_lost = True
            return
        self._end_cas(cas_span, "ok")
        self.digest_ok = digest_ok
        self.completed = True

    # -- tracing -----------------------------------------------------------

    def _begin_cas(self, op: str, **attrs: object) -> int:
        """Open a ``store.cas`` span around an owner-epoch store call."""
        if self.tracer is None:
            return 0
        assert self.header.trace is not None
        return self.tracer.begin(
            "store.cas", self.header.trace.trace_id, self.span,
            op=op, **attrs,
        )

    def _end_cas(self, cas_span: int, status: str) -> None:
        if cas_span and self.tracer is not None:
            self.tracer.end(cas_span, status=status)

    def finish_trace(self, status: str) -> None:
        """Close the ``server.session`` span with the node's final
        session status (``completed`` / ``suspended`` / anything else =
        error); safe to call untraced or twice."""
        if self.tracer is None or not self.span:
            return
        assert self.header.trace is not None
        trace_id = self.header.trace.trace_id
        received = self.receiver.payload_received
        if status == "completed":
            trace_status = (
                "ok" if self.digest_ok in (None, True) else "digest-failed"
            )
        elif status == "suspended":
            self.tracer.instant(
                "server.suspend", trace_id, self.span,
                bytes_received=received,
            )
            trace_status = "suspended"
        else:
            trace_status = "error"
        self.tracer.end(
            self.span, status=trace_status, bytes_received=received,
        )
        self.span = 0

    def result(self, rebinds: int) -> SessionResult:
        return SessionResult(
            session_id=self.session_id,
            payload=b"".join(self.chunks),
            digest_ok=self.digest_ok,
            route_len=len(self.header.route),
            rebinds=rebinds,
        )


class AsyncClusterNode(AsyncDepot):
    """Single-event-loop depot worker with terminal sessions."""

    _thread_prefix = "acluster"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store: SessionStore,
        worker: str,
        observer: Optional[ProtocolObserver] = None,
        connect_timeout: float = 30.0,
        drain_timeout: float = 5.0,
        backlog: int = 4096,
        reuse_port: bool = False,
        listener: Optional[socket.socket] = None,
        session_ttl: Optional[float] = None,
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        reply: Optional[bytes] = None,
        on_session: Optional[Callable[[SessionResult], None]] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        if session_ttl is not None and session_ttl <= 0:
            raise ValueError("session_ttl must be positive")
        if checkpoint_bytes <= 0:
            raise ValueError("checkpoint_bytes must be positive")
        # subclass state first: the loop super().__init__ starts may
        # deliver a session before this frame returns
        self._store = store
        self.worker = worker
        self._acceptor = StoreSessionAcceptor(store, worker, observer)
        self._session_ttl = session_ttl
        self._checkpoint_bytes = checkpoint_bytes
        self.reply = reply
        self.on_session = on_session
        self.results: List[SessionResult] = []
        self._results_lock = threading.Lock()
        super().__init__(
            host,
            port,
            observer=observer,
            connect_timeout=connect_timeout,
            drain_timeout=drain_timeout,
            backlog=backlog,
            reuse_port=reuse_port,
            listener=listener,
            tracer=tracer,
        )
        if session_ttl is not None:
            self._loop.call_soon_threadsafe(self._start_sweeper)

    # -- TTL sweep ---------------------------------------------------------

    def _start_sweeper(self) -> None:
        task = self._loop.create_task(self._sweep_loop())
        # registered like a session so shutdown cancels it cleanly
        self._sessions.add(task)
        task.add_done_callback(self._sessions.discard)

    async def _sweep_loop(self) -> None:
        ttl = self._session_ttl
        assert ttl is not None
        while True:
            await asyncio.sleep(min(ttl / 4.0, 1.0))
            try:
                expired = self._store.sweep(time.time(), ttl)
            except (OSError, ValueError, TimeoutError):
                continue  # store hiccup; retry next tick
            if expired:
                self.counters.add(sessions_expired=len(expired))
                for record in expired:
                    emit(self._observer, "session-expired",
                         record.session_id.hex()[:8],
                         bytes_received=record.bytes_received)

    # -- sessions ----------------------------------------------------------

    async def _handle(self, upstream: socket.socket) -> None:
        status = "failed"
        short_id = ""
        try:
            header, surplus = await header_phase(
                read_header(self._loop, upstream)
            )
            short_id = header.short_id
            if header.is_last_hop:
                status = await self._terminal(upstream, header, surplus)
            else:
                core = RelayCore(observer=self._observer)
                decision = core.feed(
                    [Chunk.real(header.encode()), Chunk.real(surplus)]
                )
                assert decision is not None  # full header was fed
                if isinstance(decision, RelayReject):
                    raise decision.error
                await self._relay(upstream, decision)
                status = "completed"
        except asyncio.CancelledError:
            emit(self._observer, "relay-failed", short_id,
                 reason="CancelledError: worker shutdown")
            raise
        except Exception as exc:
            emit(self._observer, "relay-failed", short_id,
                 reason=f"{type(exc).__name__}: {exc}")
        finally:
            if status == "completed":
                self.counters.session_ended(True)
            elif status == "suspended":
                self.counters.session_suspended()
            else:
                self.counters.session_ended(False)
            try:
                upstream.close()
            except OSError:
                pass

    async def _terminal(
        self, upstream: socket.socket, header: LslHeader, surplus: bytes
    ) -> str:
        loop = self._loop
        decision = self._acceptor.decide(header, time.time())
        if isinstance(decision, RejectSession):
            raise decision.error
        if isinstance(decision, StoreAcceptResume) and decision.takeover:
            self.counters.add(takeovers=1)
        term = _TerminalSession(
            self._store,
            self.worker,
            header,
            decision,
            self._observer,
            self._checkpoint_bytes,
            tracer=self._tracer,
        )
        status = "failed"
        try:
            if term.reply:
                await loop.sock_sendall(upstream, term.reply)
            if surplus:
                term.ingest(surplus)
            while not term.finished:
                try:
                    data = await loop.sock_recv(upstream, CHUNK)
                except OSError:
                    # sublink reset mid-payload: park what we have
                    term.flush()
                    status = "suspended"
                    return status
                if not data:
                    status = term.on_eof()
                    break
                term.ingest(data)
            else:
                status = "completed" if term.completed else "suspended"
            if term.completed:
                if self.reply is not None:
                    await loop.sock_sendall(upstream, self.reply)
                result = term.result(rebinds=decision.record.rebinds)
                with self._results_lock:
                    self.results.append(result)
                if self.on_session is not None:
                    self.on_session(result)
                return "completed"
            return status
        finally:
            term.finish_trace(status)

    # -- observability -----------------------------------------------------

    def publish_counters(self) -> None:
        """Push this worker's counter snapshot into the shared store."""
        self._store.publish_counters(self.worker, self.counters.snapshot())

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        """Block (caller thread) until ``count`` terminal completions."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._results_lock:
                if len(self.results) >= count:
                    return True
            time.sleep(0.01)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AsyncClusterNode {self.worker} "
            f"{self.address[0]}:{self.address[1]}>"
        )
