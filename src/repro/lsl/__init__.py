"""The Logistical Session Layer (the paper's contribution).

A *session* is a conversation identified by a 128-bit session id and
carried over one or more **cascaded TCP connections** ("sublinks")
through intermediate **depots** along a client-specified loose source
route::

    client ──TCP──▶ depot ──TCP──▶ depot ──TCP──▶ server
             sublink 1      sublink 2      sublink 3

Each sublink is an ordinary TCP connection, so TCP's congestion
control still governs every packet; the depot is an unprivileged
user-level process (the paper's ``lsd``) holding a small, short-lived
relay buffer. Because each sublink's RTT is a fraction of the
end-to-end RTT, every sublink's window opens faster and recovers from
loss faster — the source of the throughput gain the paper measures.

Public API
----------
- :func:`repro.lsl.client.lsl_connect` — open a session over a route.
- :class:`repro.lsl.server.LslServer` — accept sessions.
- :class:`repro.lsl.depot.Depot` — run a depot (``lsd``).
- :class:`repro.lsl.core.LslHeader` — the wire header.
- :class:`repro.lsl.core.StreamDigest` — end-to-end MD5 over the
  stream (the end-to-end integrity check the paper keeps at the ends).
"""

from repro.lsl.core import (
    HEADER_MAGIC,
    BackoffPolicy,
    DepotDown,
    DigestMismatch,
    FailoverExhausted,
    FrameDecoder,
    LslError,
    LslHeader,
    ProtocolError,
    RouteError,
    RouteHop,
    SessionId,
    SessionRegistry,
    SessionUnknown,
    StreamDigest,
    encode_frame_header,
    new_session_id,
)
from repro.lsl.relay import RelayPump
from repro.lsl.depot import Depot
from repro.lsl.client import (
    FailoverTransfer,
    LslClientConnection,
    lsl_connect,
    lsl_rebind,
    virtual_digest_factory,
)
from repro.lsl.server import LslServer, LslServerConnection
from repro.lsl.striped import StripedClient, StripedLslServer
from repro.lsl.storeforward import StoreForwardDepot

__all__ = [
    "LslError",
    "ProtocolError",
    "RouteError",
    "SessionUnknown",
    "DigestMismatch",
    "DepotDown",
    "FailoverExhausted",
    "BackoffPolicy",
    "FailoverTransfer",
    "virtual_digest_factory",
    "LslHeader",
    "RouteHop",
    "HEADER_MAGIC",
    "SessionId",
    "new_session_id",
    "SessionRegistry",
    "StreamDigest",
    "RelayPump",
    "Depot",
    "lsl_connect",
    "lsl_rebind",
    "LslClientConnection",
    "LslServer",
    "LslServerConnection",
    "FrameDecoder",
    "encode_frame_header",
    "StripedClient",
    "StripedLslServer",
    "StoreForwardDepot",
]
