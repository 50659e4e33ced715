"""One depot worker process: ``python -m repro.cluster.worker``.

Spawned by :class:`~repro.cluster.pool.WorkerPool`, but runnable by
hand against any shared store — a worker is just an
:class:`~repro.cluster.anode.AsyncClusterNode` plus a
counter-publishing heartbeat. The listener arrives one of two ways:

* ``--reuse-port`` — bind our own ``SO_REUSEPORT`` listener on the
  given (host, port); the kernel splits accepts across siblings.
* ``--listen-fd FD`` — adopt an already-listening socket inherited
  from the parent (``pass_fds``); siblings compete on one queue.

Protocol with the parent: print ``READY <host> <port>`` on stdout once
accepting (the parent blocks on that line), then stay quiet. SIGTERM
drains and exits 0; SIGKILL is the failover case the store's
owner-epoch CAS exists for — no cleanup runs, and the session's next
rebind lands on a sibling.
"""

from __future__ import annotations

import argparse
import signal
import socket
import sys
import threading
from typing import Optional

from repro.cluster.anode import DEFAULT_CHECKPOINT_BYTES, AsyncClusterNode
from repro.cluster.store import open_store


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="Run one store-backed depot worker.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--listen-fd",
        type=int,
        default=None,
        help="adopt this inherited listening socket instead of binding",
    )
    parser.add_argument(
        "--reuse-port",
        action="store_true",
        help="bind an SO_REUSEPORT listener on --host/--port",
    )
    parser.add_argument(
        "--store",
        required=True,
        help="session store spec: memory | file:DIR | redis://host:port",
    )
    parser.add_argument("--worker-id", default="w0")
    parser.add_argument("--session-ttl", type=float, default=None)
    parser.add_argument(
        "--checkpoint-bytes", type=int, default=DEFAULT_CHECKPOINT_BYTES
    )
    parser.add_argument(
        "--publish-interval",
        type=float,
        default=0.25,
        help="seconds between counter snapshots pushed to the store",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="spool distributed-trace spans to DIR/spans-<worker-id>.jsonl "
        "(crash-durable; the fleet collector merges these)",
    )
    parser.add_argument(
        "--expose-port",
        type=int,
        default=None,
        help="serve /metrics + /healthz + /events + /spans on this port "
        "(0 = ephemeral); prints 'EXPOSE <url>' after READY",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    store = open_store(args.store)
    listener: Optional[socket.socket] = None
    if args.listen_fd is not None:
        listener = socket.socket(fileno=args.listen_fd)
    tracer = None
    if args.trace_dir is not None:
        import os

        from repro.telemetry.tracing import TraceSpool

        os.makedirs(args.trace_dir, exist_ok=True)
        tracer = TraceSpool(
            service=f"worker:{args.worker_id}",
            path=os.path.join(args.trace_dir, f"spans-{args.worker_id}.jsonl"),
        )
    node = AsyncClusterNode(
        args.host,
        args.port,
        store=store,
        worker=args.worker_id,
        session_ttl=args.session_ttl,
        checkpoint_bytes=args.checkpoint_bytes,
        reuse_port=args.reuse_port,
        listener=listener,
        tracer=tracer,
    )

    stop = threading.Event()

    def _terminate(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    print(f"READY {node.address[0]} {node.address[1]}", flush=True)
    exposer = None
    if args.expose_port is not None:
        exposer = node.expose(args.host, args.expose_port)
        print(f"EXPOSE {exposer.url}", flush=True)
    try:
        while not stop.wait(args.publish_interval):
            try:
                node.publish_counters()
            except (OSError, ValueError, TimeoutError):
                # store hiccup (fd exhaustion under load, torn lock):
                # a missed heartbeat must not kill the worker
                pass
    finally:
        # final snapshot so completed-session counts survive a drain
        try:
            node.publish_counters()
        except Exception:
            pass
        if exposer is not None:
            exposer.shutdown()
        node.shutdown()
        store.close()
        if tracer is not None:
            tracer.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
