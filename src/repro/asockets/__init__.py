"""The real-socket LSL stack, driven by asyncio.

The paper's artifact shape — client, ``lsd`` depot, server — over
genuine TCP sockets, driving the same sans-I/O protocol core as the
simulator (:mod:`repro.lsl.core`): handshake, session accept/rebind
arbitration, negotiated resume, framing, striping and the end-to-end
MD5 all come from the shared machines, so the two stacks emit
identical wire bytes. Each service runs one event loop on its own
thread, so concurrent-session count is bounded by file descriptors,
not threads (see ``benchmarks/bench_c10k.py``); multi-core scale comes
from worker processes (:mod:`repro.cluster`).

* :class:`AsyncDepot` — the ``lsd`` relay; zero-copy pumps
  (``sock_recv_into`` + ``memoryview`` slices through ``sock_sendall``),
  half-close aware in both directions, graceful drain on shutdown.
* :class:`AsyncLslServer` — session terminus with accept/rebind
  arbitration and negotiated resume.
* :class:`AsyncStripedServer` / :func:`async_send_striped` — striped
  multipath sessions with optional redundancy.
* :class:`AsyncLslClient` — the sending side.

**Measurement caveat** (why the paper's throughput claims come from
the simulator): CPython's GIL serializes the Python-level copy work, so
absolute throughput through a Python depot reflects interpreter cost,
not network dynamics.
"""

from repro.asockets.client import AsyncLslClient
from repro.asockets.depot import AsyncDepot, DepotCounters
from repro.asockets.runtime import AsyncLoopService
from repro.asockets.server import AsyncLslServer, SessionResult
from repro.asockets.striped import (
    AsyncStripedServer,
    StripedResult,
    StripedSendReport,
)
from repro.asockets.striped import send_striped as async_send_striped
from repro.asockets.wire import read_exact, read_header

__all__ = [
    "AsyncDepot",
    "AsyncLslClient",
    "AsyncLslServer",
    "AsyncLoopService",
    "AsyncStripedServer",
    "DepotCounters",
    "SessionResult",
    "StripedResult",
    "StripedSendReport",
    "async_send_striped",
    "read_exact",
    "read_header",
]
