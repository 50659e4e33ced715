"""One event loop per service, on a dedicated thread.

:class:`AsyncLoopService` is the shared chassis of the asyncio depot
and server: it owns a bound listener socket, a private event loop
running on one daemon thread, an accept loop that survives transient
``accept()`` failures (EMFILE, ECONNABORTED, ...), and a graceful
shutdown that drains in-flight session tasks before cancelling
stragglers.

The constructor returns with the listener bound and the loop accepting,
so tests, the CLI, and the benchmarks can use a service as soon as it
exists. All cross-thread interaction goes through
``call_soon_threadsafe``; everything else runs single-threaded inside
the loop, which is what lets the session logic go without per-session
locks.
"""

from __future__ import annotations

import asyncio
import errno
import socket
import threading
from typing import Optional, Set, Tuple

#: Default listen backlog. The kernel clamps to ``net.core.somaxconn``
#: anyway, so asking high is free, and a shallow queue drops SYNs under
#: a connection storm.
LISTEN_BACKLOG = 128

#: ``errno`` values that mean the *listener itself* is gone — any other
#: ``OSError`` out of ``accept()`` (EMFILE, ENFILE, ECONNABORTED,
#: ENOBUFS, ...) is a transient, per-connection condition the accept
#: loop must survive.
_FATAL_ACCEPT_ERRNOS = frozenset(
    {errno.EBADF, errno.ENOTSOCK, errno.EINVAL}
)

#: Pause before retrying a transiently-failed ``accept()`` — long
#: enough for fds to be released under EMFILE pressure, short enough
#: to be invisible at human timescales.
_ACCEPT_RETRY_DELAY_S = 0.05


def make_listener(
    host: str,
    port: int,
    *,
    backlog: int = LISTEN_BACKLOG,
    reuse_port: bool = False,
    listen: bool = True,
) -> socket.socket:
    """Create a bound (and by default listening) TCP listener socket.

    ``reuse_port=True`` joins/creates an ``SO_REUSEPORT`` group on
    ``(host, port)`` so several workers — event loops or processes —
    can accept on the same port and let the kernel load-balance inbound
    connections (the cluster's shared-listener mode).
    ``listen=False`` yields a bound-but-not-listening socket: a parent
    process uses it to *reserve* a concrete port for a REUSEPORT group
    without itself receiving connections (only LISTEN sockets are in
    the kernel's dispatch set).
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuse_port:
        if not hasattr(socket, "SO_REUSEPORT"):
            raise OSError("SO_REUSEPORT is not available on this platform")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    if listen:
        sock.listen(backlog)
    return sock


class AsyncLoopService:
    """A TCP service on its own event loop thread (subclass me)."""

    #: Thread-name prefix; subclasses override for readable dumps.
    _thread_prefix = "alsl"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        drain_timeout: float = 5.0,
        backlog: int = LISTEN_BACKLOG,
        reuse_port: bool = False,
        listener: Optional[socket.socket] = None,
    ) -> None:
        # the kernel clamps the backlog to net.core.somaxconn. An
        # injected listener
        # (already bound + listening) supports the cluster's FD-handoff
        # mode; reuse_port joins a shared-port worker group.
        self._listener = (
            listener
            if listener is not None
            else make_listener(
                host, port, backlog=backlog, reuse_port=reuse_port
            )
        )
        self._listener.setblocking(False)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._drain = True
        self._drain_timeout = drain_timeout
        self._sessions: Set[asyncio.Task] = set()
        self._closing = False
        self._stop: Optional[asyncio.Event] = None
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run,
            name=f"{self._thread_prefix}-{self.address[1]}",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()

    # -- subclass hooks ----------------------------------------------------

    async def _handle(self, sock: socket.socket) -> None:
        """Serve one accepted (non-blocking) socket."""
        raise NotImplementedError

    def _on_accepted(self, sock: socket.socket) -> None:
        """Called in-loop right after a successful accept."""

    def _on_accept_error(self, exc: OSError) -> None:
        """Called in-loop for each survived transient accept failure."""

    # -- loop lifecycle ----------------------------------------------------

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        accept_task = self._loop.create_task(self._accept_loop())
        self._ready.set()
        await self._stop.wait()
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass
        accept_task.cancel()
        await asyncio.gather(accept_task, return_exceptions=True)
        if self._sessions:
            pending: Set[asyncio.Task] = set(self._sessions)
            if self._drain:
                # graceful: let active sessions run to completion
                _done, pending = await asyncio.wait(
                    pending, timeout=self._drain_timeout
                )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    async def _accept_loop(self) -> None:
        loop = self._loop
        while True:
            try:
                sock, _ = await loop.sock_accept(self._listener)
            except asyncio.CancelledError:
                return
            except OSError as exc:
                if self._closing or exc.errno in _FATAL_ACCEPT_ERRNOS:
                    return  # listener closed / gone
                # transient (EMFILE/ECONNABORTED/...): keep accepting
                self._on_accept_error(exc)
                await asyncio.sleep(_ACCEPT_RETRY_DELAY_S)
                continue
            sock.setblocking(False)
            self._on_accepted(sock)
            task = loop.create_task(self._handle(sock))
            self._sessions.add(task)
            task.add_done_callback(self._sessions.discard)

    # -- public lifecycle --------------------------------------------------

    @property
    def active_tasks(self) -> int:
        """Session tasks currently alive (leak check surface)."""
        return len(self._sessions)

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting and wind the loop down.

        ``drain=True`` (default) waits up to ``drain_timeout`` for
        in-flight sessions to finish before cancelling them;
        ``drain=False`` models a crash — every session task is
        cancelled immediately and its sockets close mid-transfer.
        """
        if not self._thread.is_alive():
            try:
                self._listener.close()
            except OSError:
                pass
            return
        self._drain = drain
        assert self._stop is not None
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            return  # loop already closed under us
        self._thread.join(
            timeout=(self._drain_timeout + 10.0) if timeout is None else timeout
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
