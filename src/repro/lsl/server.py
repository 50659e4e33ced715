"""LSL server: accept sessions, verify end-to-end integrity.

The server is the final hop of the loose source route. The protocol
decisions — header accounting, trailer/digest verification, EOF
classification, accept/rebind/restart arbitration — live in the
sans-I/O core (:class:`repro.lsl.core.PayloadReceiver`,
:class:`repro.lsl.core.SessionAcceptor`); this module is the simulator
driver mapping those decisions onto
:class:`~repro.tcp.sockets.SimSocket` events. Sessions survive
transport rebinds: a new sublink carrying the REBIND flag re-attaches
to the existing session record.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.lsl.core import (
    EOF_COMPLETE,
    EOF_SUSPEND,
    AcceptRebind,
    Completed,
    Deliver,
    Failed,
    HeaderAccumulator,
    LslError,
    LslHeader,
    PayloadReceiver,
    ProtocolError,
    RejectSession,
    RestartSession,
    SessionAcceptor,
    StreamDigest,
    negotiate_resume,
)
from repro.lsl.session import SessionRegistry
from repro.tcp.buffers import StreamChunk
from repro.tcp.options import TcpOptions
from repro.tcp.sockets import SimSocket, TcpStack

DIGEST_LEN = 16


class LslServerConnection:
    """Server endpoint of one LSL session (survives rebinds)."""

    def __init__(self, server: "LslServer", sock: SimSocket, header: LslHeader) -> None:
        self.server = server
        self.sock = sock

        self._app_queue: Deque[StreamChunk] = deque()
        self._app_bytes = 0

        self.telemetry = server.stack.net.telemetry
        self.span = None
        if self.telemetry.enabled:
            self.span = self.telemetry.spans.begin(
                f"server@{server.stack.host.name}",
                cat="lsl",
                group=header.short_id,
                args={"declared_length": header.payload_length},
            )
        # distributed tracing (TraceSpool; distinct from the sim-time
        # telemetry span above)
        self.trace_span = 0
        self._trace_id: Optional[bytes] = None
        self._begin_trace_span(header)
        from repro.telemetry.protocol import protocol_observer

        self.receiver = PayloadReceiver(
            header,
            observer=protocol_observer(self.telemetry, "server", lambda: self.span),
        )

        # application callbacks
        self.on_readable: Optional[Callable[[], None]] = None
        self.on_complete: Optional[Callable[["LslServerConnection"], None]] = None
        self.on_error: Optional[Callable[[Exception], None]] = None
        self.on_close: Optional[Callable[[Optional[Exception]], None]] = None

        self._wire(sock)

    # -- protocol state (delegated to the core receiver) -------------------

    @property
    def header(self) -> LslHeader:
        return self.receiver.header

    @property
    def digest(self) -> StreamDigest:
        return self.receiver.digest

    @property
    def payload_received(self) -> int:
        return self.receiver.payload_received

    @property
    def digest_ok(self) -> Optional[bool]:
        return self.receiver.digest_ok

    @property
    def complete(self) -> bool:
        return self.receiver.complete

    @property
    def failed(self) -> Optional[Exception]:
        return self.receiver.failed

    # -- transport (re)binding --------------------------------------------

    def _wire(self, sock: SimSocket) -> None:
        self.sock = sock
        sock.on_readable = self._sock_readable
        sock.on_peer_fin = self._sock_peer_fin
        sock.on_close = self._sock_closed
        if self.span is not None and sock.conn is not None:
            sock.conn.telemetry_span = self.span

    def _tel_end(self, outcome: str) -> None:
        if self.span is not None:
            self.telemetry.spans.end(
                self.span,
                args={
                    "outcome": outcome,
                    "payload_received": self.payload_received,
                },
            )
            self.span = None

    # -- distributed tracing ----------------------------------------------

    def _begin_trace_span(
        self, header: LslHeader, granted: Optional[int] = None
    ) -> None:
        """Open a ``server.session`` span for this sublink attachment
        (same semantics as the real-socket servers: a rebind closes the
        old span as ``rebound``, emits ``server.resume-grant``, and
        opens a fresh span under the new sublink's trace context)."""
        tracer = self.server.tracer
        if tracer is None or header.trace is None:
            return
        if self.trace_span:
            tracer.end(self.trace_span, status="rebound")
        tctx = header.trace
        self._trace_id = tctx.trace_id
        self.trace_span = tracer.begin(
            "server.session",
            tctx.trace_id,
            tctx.parent_span,
            session=header.short_id,
            rebind=header.rebind,
            hop=tctx.hop,
        )
        if granted is not None:
            tracer.instant(
                "server.resume-grant", tctx.trace_id, self.trace_span,
                granted=granted,
            )

    def _end_trace_span(self, status: str) -> None:
        tracer = self.server.tracer
        if tracer is None or not self.trace_span:
            return
        if status == "suspended" and self._trace_id is not None:
            tracer.instant(
                "server.suspend", self._trace_id, self.trace_span,
                bytes_received=self.payload_received,
            )
        tracer.end(
            self.trace_span, status=status,
            bytes_received=self.payload_received,
        )
        self.trace_span = 0

    def rebind_transport(self, sock: SimSocket, header: LslHeader) -> None:
        """Attach a replacement sublink to this session."""
        if self.complete:
            raise LslError("rebind of a completed session")
        # validates the asserted offset (or grants ours) before any
        # mutation, so a bad rebind leaves the session untouched
        reply = negotiate_resume(
            header, self.payload_received, self.receiver._observer
        )
        granted = self.payload_received
        old = self.sock
        if old is not None and not old.closed:
            old.abort()
        self.receiver.rebind(header)
        self._wire(sock)
        self._begin_trace_span(header, granted=granted)
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("lsl.rebinds").inc()
            self.telemetry.spans.instant(
                "rebind",
                cat="lsl",
                parent=self.span,
                args={
                    "session": header.short_id,
                    "resume_query": header.resume_query,
                    "granted_offset": self.payload_received,
                },
            )
        if reply:
            sock.send(reply)
        # data may already be waiting on the new sublink
        if sock.readable_bytes > 0:
            self._sock_readable()

    # -- session-layer framing ------------------------------------------------

    @property
    def session_id(self) -> bytes:
        return self.receiver.session_id

    @property
    def declared_length(self) -> Optional[int]:
        return self.receiver.declared_length

    def _sock_readable(self) -> None:
        self._ingest_chunks(self.sock.recv())

    def _ingest_chunks(self, chunks: List[StreamChunk]) -> None:
        delivered = False
        app_queue = self._app_queue
        for event in self.receiver.feed(chunks):
            if type(event) is Deliver:  # events are exact, leaf types
                chunk = event.chunk
                app_queue.append(StreamChunk(chunk.length, chunk.data))
                self._app_bytes += chunk.length
                delivered = True
            elif type(event) is Completed:
                self._on_complete_event()
            elif type(event) is Failed:
                self._fail(event.error)
        if delivered:
            # one registry touch per batch: bytes_received is monotonic,
            # so only the post-batch value matters
            record = self.server.registry.get(self.session_id)
            if record is not None:
                record.bytes_received = self.payload_received
        if self._app_bytes > 0 and self.on_readable:
            self.on_readable()

    def _on_complete_event(self) -> None:
        self.server.registry.close(self.session_id)
        self._tel_end("complete")
        self._end_trace_span(
            "ok" if self.digest_ok in (None, True) else "digest-failed"
        )
        if self.on_complete:
            self.on_complete(self)

    def _sock_peer_fin(self) -> None:
        self._sock_readable()  # drain anything left
        if self.complete or self.failed:
            self.sock.close()
            return
        disposition = self.receiver.feed_eof()
        if disposition == EOF_COMPLETE:
            self._on_complete_event()
            self.sock.close()
        elif disposition == EOF_SUSPEND:
            # could be a mobility event: keep session state for a rebind
            self.server.net_logger_log("session-suspended", self.session_id.hex()[:8])
            self._end_trace_span("suspended")
        else:
            self.sock.close()

    def _sock_closed(self, error: Optional[Exception]) -> None:
        if error is not None and not self.complete and self.failed is None:
            # transport died: session remains available for rebind
            self.server.net_logger_log("sublink-error", str(error))
        if self.on_close:
            self.on_close(error)

    def _fail(self, error: Exception) -> None:
        self.server.registry.close(self.session_id)
        self._tel_end("failed")
        self._end_trace_span("error")
        if self.telemetry.enabled:
            self.telemetry.flight_dump(
                "server-session-failed",
                detail={
                    "session": self.session_id.hex()[:8],
                    "error": str(error),
                },
            )
        if self.on_error:
            self.on_error(error)
        else:
            self.sock.abort()

    # -- application API -----------------------------------------------------------

    def recv(self, max_bytes: Optional[int] = None) -> List[StreamChunk]:
        """Consume received payload (session-layer framed, trailer
        excluded)."""
        budget = self._app_bytes if max_bytes is None else max_bytes
        out: List[StreamChunk] = []
        while self._app_queue and budget > 0:
            chunk = self._app_queue[0]
            if chunk.length <= budget:
                out.append(chunk)
                budget -= chunk.length
                self._app_queue.popleft()
            else:
                out.append(
                    StreamChunk(
                        budget, None if chunk.data is None else chunk.data[:budget]
                    )
                )
                self._app_queue[0] = StreamChunk(
                    chunk.length - budget,
                    None if chunk.data is None else chunk.data[budget:],
                )
                budget = 0
        self._app_bytes -= sum(c.length for c in out)
        return out

    @property
    def readable_bytes(self) -> int:
        return self._app_bytes

    def send(self, data: bytes) -> int:
        """Reverse-direction (server to client) bytes."""
        return self.sock.send(data)

    def send_virtual(self, nbytes: int) -> int:
        return self.sock.send_virtual(nbytes)

    def close(self) -> None:
        self.sock.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LslServerConnection {self.session_id.hex()[:8]} "
            f"recv={self.payload_received} complete={self.complete}>"
        )


class _PendingAccept:
    """Reads the header off a freshly accepted sublink."""

    def __init__(self, server: "LslServer", sock: SimSocket) -> None:
        self.server = server
        self.sock = sock
        self._accumulator = HeaderAccumulator()
        sock.on_readable = self._on_bytes
        sock.on_peer_fin = self._on_fin
        if sock.readable_bytes > 0:
            self._on_bytes()

    def _on_bytes(self) -> None:
        chunks = self.sock.recv()
        header = None
        tail_index = len(chunks)
        for i, chunk in enumerate(chunks):
            if chunk.data is None:
                self.sock.abort()
                self.server._pending_failed(
                    self, ProtocolError("virtual bytes before LSL header")
                )
                return
            try:
                header = self._accumulator.feed(chunk.data)
            except ProtocolError as exc:
                self.sock.abort()
                self.server._pending_failed(self, exc)
                return
            if header is not None:
                tail_index = i + 1
                break
        if header is None:
            return
        surplus: List[StreamChunk] = []
        if self._accumulator.surplus:
            surplus.append(
                StreamChunk(len(self._accumulator.surplus), self._accumulator.surplus)
            )
        surplus.extend(chunks[tail_index:])
        self.server._header_ready(self, header, surplus)

    def _on_fin(self) -> None:
        self.sock.close()
        self.server._pending_failed(
            self, ProtocolError("sublink closed before header complete")
        )


class LslServer:
    """Accept LSL sessions on a port."""

    def __init__(
        self,
        stack: TcpStack,
        port: int,
        on_session: Callable[[LslServerConnection], None],
        tcp_options: Optional[TcpOptions] = None,
        registry: Optional[SessionRegistry] = None,
        tracer=None,
    ) -> None:
        self.stack = stack
        self.port = port
        self.on_session = on_session
        #: Optional :class:`~repro.telemetry.tracing.TraceSpool` for
        #: distributed tracing (``server.session`` spans).
        self.tracer = tracer
        self.registry = registry if registry is not None else SessionRegistry()
        from repro.telemetry.protocol import protocol_observer

        self.acceptor = SessionAcceptor(
            self.registry,
            observer=protocol_observer(stack.net.telemetry, "server"),
        )
        self.sessions: List[LslServerConnection] = []
        self._pending: List[_PendingAccept] = []
        self.errors: List[Exception] = []

        self._listener = stack.socket(tcp_options or stack.default_options)
        self._listener.listen(port, self._on_accept)

    def net_logger_log(self, event: str, detail) -> None:
        self.stack.net.logger.log(f"lsl-server:{self.stack.host.name}", event, detail)

    def _on_accept(self, sock: SimSocket) -> None:
        self._pending.append(_PendingAccept(self, sock))

    def _pending_failed(self, pending: _PendingAccept, error: Exception) -> None:
        if pending in self._pending:
            self._pending.remove(pending)
        self.errors.append(error)
        self.net_logger_log("accept-failed", str(error))

    def _header_ready(
        self, pending: _PendingAccept, header: LslHeader, surplus: List[StreamChunk]
    ) -> None:
        if pending in self._pending:
            self._pending.remove(pending)
        sock = pending.sock
        decision = self.acceptor.decide(header, self.stack.net.sim.now)
        if isinstance(decision, RejectSession):
            sock.abort()
            self.errors.append(decision.error)
            return
        if isinstance(decision, AcceptRebind):
            conn: LslServerConnection = decision.record.attachment
            try:
                conn.rebind_transport(sock, header)
            except (LslError, ProtocolError) as exc:
                sock.abort()
                self.errors.append(exc)
                return
        else:  # AcceptNew | RestartSession
            if isinstance(decision, RestartSession):
                stale: Optional[LslServerConnection] = decision.stale
                if stale is not None and not stale.sock.closed:
                    stale.sock.abort()
                self.net_logger_log(
                    "session-restarted", header.session_id.hex()[:8]
                )
            conn = LslServerConnection(self, sock, header)
            decision.record.attachment = conn
            self.sessions.append(conn)
            if decision.reply:
                sock.send(decision.reply)
            self.on_session(conn)
        if surplus:
            # payload piggybacked in the same segments as the header
            conn._ingest_chunks(surplus)

    def shutdown(self) -> None:
        self._listener.close_listener()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LslServer {self.stack.host.name}:{self.port} sessions={len(self.sessions)}>"
