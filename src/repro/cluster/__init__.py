"""Multi-worker depot cluster with a pluggable external session store.

One LSL depot process holds every suspended session hostage: if the
process dies, so does the receiver state a rebind needs, and a fleet
of depots behind one address cannot resume each other's sessions. This
package externalizes that state:

* :mod:`repro.cluster.store` — the :class:`SessionStore` contract (the
  durable subset of :class:`~repro.lsl.core.SessionRegistry` plus the
  received-payload spool) and the in-memory backend;
* :mod:`repro.cluster.filestore` — a zero-dependency multi-process
  backend over lock files and atomic renames;
* :mod:`repro.cluster.resp` / :mod:`repro.cluster.miniredis` — a RESP
  (Redis protocol) backend and the stdlib-only server it talks to in
  tests and CI;
* :mod:`repro.cluster.acceptor` — store-backed accept/rebind/restart
  decisions with owner-epoch compare-and-swap takeover;
* :mod:`repro.cluster.anode` — the depot worker: relays
  intermediate-hop sessions like ``lsd`` and *terminates* last-hop
  sessions against the store, so any worker can resume any session;
* :mod:`repro.cluster.pool` — the ``--workers N`` launcher: in-process
  :class:`LocalCluster` for the memory store, subprocess
  :class:`WorkerPool` (SO_REUSEPORT or inherited-FD listener sharing)
  for external stores;
* :mod:`repro.cluster.exposition` — aggregated ``/metrics`` +
  ``/healthz`` across the whole worker fleet.
"""

from repro.cluster.store import (
    InMemoryStore,
    SessionStore,
    StoredSession,
    open_store,
)
from repro.cluster.filestore import SharedFileStore
from repro.cluster.resp import RedisProtocolStore
from repro.cluster.miniredis import MiniRedis
from repro.cluster.acceptor import (
    StoreAcceptResume,
    StoreAcceptNew,
    StoreRestart,
    StoreSessionAcceptor,
)
from repro.cluster.anode import AsyncClusterNode
from repro.cluster.pool import LocalCluster, WorkerPool

__all__ = [
    "StoredSession",
    "SessionStore",
    "InMemoryStore",
    "SharedFileStore",
    "RedisProtocolStore",
    "MiniRedis",
    "open_store",
    "StoreSessionAcceptor",
    "StoreAcceptNew",
    "StoreAcceptResume",
    "StoreRestart",
    "AsyncClusterNode",
    "LocalCluster",
    "WorkerPool",
]
