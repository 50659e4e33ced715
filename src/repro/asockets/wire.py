"""Buffered async wire helpers.

Feed :class:`~repro.lsl.core.HeaderAccumulator` from hint-sized
buffered reads — typically one ``recv`` for the whole header — and hand
any over-read payload back as ``surplus`` for the next machine in line.
Everything operates on plain non-blocking sockets through the event
loop's ``sock_*`` methods; no streams/protocols layer sits between the
wire and the sans-I/O core.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Awaitable, Tuple, TypeVar

from repro.lsl.core import HeaderAccumulator, LslHeader, ProtocolError

T = TypeVar("T")

#: Relay copy chunk (matches a typical socket buffer read).
CHUNK = 64 * 1024

#: Minimum per-read request while header bytes are outstanding (the
#: accumulator's ``hint`` is a lower bound; overshoot comes back as
#: surplus), so the variable-length route section arrives in one read
#: instead of one recv per hop.
HEADER_READAHEAD = 4096

#: Longest an accepted sublink may take to deliver its complete LSL
#: header. A peer that connects and stays silent, or stalls mid-header,
#: is closed and its session counted as failed instead of holding a
#: task and a socket forever. Established sessions carry no deadline.
HEADER_TIMEOUT_S = 30.0


async def header_phase(read: Awaitable[T]) -> T:
    """Await a header-phase read under :data:`HEADER_TIMEOUT_S`.

    Runs ``read`` in the calling task and cancels that task when the
    deadline passes — a timer per session, not the extra task per
    session ``asyncio.wait_for`` would cost.
    """
    task = asyncio.current_task()
    assert task is not None
    expired = False

    def expire() -> None:
        nonlocal expired
        expired = True
        task.cancel()

    timer = asyncio.get_running_loop().call_later(HEADER_TIMEOUT_S, expire)
    try:
        return await read
    except asyncio.CancelledError:
        if not expired:
            raise  # shutdown, or a rebind displacing this sublink
        if hasattr(task, "uncancel"):  # Python 3.11+
            task.uncancel()
        raise ProtocolError(
            f"no complete LSL header within {HEADER_TIMEOUT_S:g} s"
        ) from None
    finally:
        timer.cancel()


async def read_exact(
    loop: asyncio.AbstractEventLoop, sock: socket.socket, n: int
) -> bytes:
    """Read exactly ``n`` bytes or raise ``ProtocolError`` on EOF."""
    buf = bytearray()
    while len(buf) < n:
        piece = await loop.sock_recv(sock, n - len(buf))
        if not piece:
            raise ProtocolError(f"EOF after {len(buf)}/{n} bytes")
        buf.extend(piece)
    return bytes(buf)


async def read_header(
    loop: asyncio.AbstractEventLoop, sock: socket.socket
) -> Tuple[LslHeader, bytes]:
    """Read and parse one LSL header with bounded buffered reads.

    Returns ``(header, surplus)``; callers must consume ``surplus``
    before reading the socket again.
    """
    acc = HeaderAccumulator()
    while True:
        data = await loop.sock_recv(
            sock, min(CHUNK, max(acc.hint, HEADER_READAHEAD))
        )
        if not data:
            raise ProtocolError("EOF before LSL header complete")
        header = acc.feed(data)
        if header is not None:
            return header, acc.surplus
