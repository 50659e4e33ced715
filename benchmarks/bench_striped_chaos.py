"""Striped-transfer chaos bench: seeded route failure on real sockets.

Over the asyncio striped stack (:mod:`repro.asockets.striped`) this
bench measures three loopback transfers of the same payload:

1. **single** — one route, no striping (the baseline lane of the
   striped-vs-single A/B in ``docs/PERFORMANCE.md``);
2. **striped** — three parallel direct routes, no redundancy;
3. **chaos** — three routes under ``duplicate-1`` where one route runs
   through a relay that reads a few KiB and then resets the connection
   (SO_LINGER abortive close: a mid-transfer path crash, seeded and
   deterministic). The transfer must *degrade*: complete with the MD5
   trailer verified, report the dead sublink, and emit **zero**
   resume/rebind protocol events — the whole point of redundant
   striping (``docs/PROTOCOL.md`` §8).

Any chaos run that fails to complete, fails its digest, fails to
observe the crash, or emits a resume event exits non-zero.

The usual loopback caveat applies: CPython's GIL serializes the
sublink pumps, so striped wall-clock on loopback measures framing
overhead, not parallelism — the throughput claims live in the
simulator benches (``bench_extension_striping.py``).

Writes a ``BENCH_summary.json`` (same shape the pytest-benchmark
conftest emits) into ``REPRO_METRICS_DIR`` (or the working directory).

Usage::

    PYTHONPATH=src python benchmarks/bench_striped_chaos.py           # full
    PYTHONPATH=src python benchmarks/bench_striped_chaos.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import socket
import sys
import threading
import time
from pathlib import Path

from repro.asockets import AsyncStripedServer, async_send_striped

FULL = {"ab_bytes": 64 << 20, "chaos_bytes": 32 << 20, "rounds": 3}
SMOKE = {"ab_bytes": 8 << 20, "chaos_bytes": 16 << 20, "rounds": 1}

STRIPE = 64 * 1024
SNDBUF = 64 * 1024  # keeps dealing demand-paced on loopback
ROUTES = 3


class CrashingRelay:
    """Accepts one connection, reads a little, then resets it."""

    def __init__(self, read_bytes: int = 4096) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()
        self._read_bytes = read_bytes
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        got = 0
        try:
            while got < self._read_bytes:
                data = conn.recv(4096)
                if not data:
                    break
                got += len(data)
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",
            )
            conn.close()
        except OSError:
            pass

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass


def timed_transfer(payload, n_routes, redundancy, observer=None,
                   crash_route=False):
    relay = CrashingRelay() if crash_route else None
    try:
        with AsyncStripedServer("127.0.0.1") as server:
            routes = [[server.address] for _ in range(n_routes)]
            if relay is not None:
                routes[0] = [relay.address, server.address]
            t0 = time.perf_counter()
            report = asyncio.run(
                async_send_striped(
                    routes, payload,
                    stripe_bytes=STRIPE, redundancy=redundancy,
                    sndbuf=SNDBUF, observer=observer,
                )
            )
            ok = server.wait_for_sessions(1, timeout=120.0)
            wall = time.perf_counter() - t0
            result = server.results[0] if ok and server.results else None
    finally:
        if relay is not None:
            relay.close()
    return {
        "wall_s": round(wall, 4),
        "mbps": round(len(payload) * 8 / wall / 1e6, 1),
        "complete": bool(result is not None and result.payload == payload),
        "digest_ok": bool(result is not None and result.digest_ok),
        "sublink_errors": len(report.sublink_errors),
        "redundant_stripes": report.redundant_stripes,
    }


def bench(cfg):
    rng = random.Random(2001)
    ab_payload = rng.randbytes(cfg["ab_bytes"])
    chaos_payload = rng.randbytes(cfg["chaos_bytes"])

    def best(n_routes, redundancy):
        runs = [
            timed_transfer(ab_payload, n_routes, redundancy)
            for _ in range(cfg["rounds"])
        ]
        return min(runs, key=lambda r: r["wall_s"])

    single = best(1, "none")
    striped = best(ROUTES, "none")

    events = []
    chaos = timed_transfer(
        chaos_payload, ROUTES, "duplicate-1",
        observer=events.append, crash_route=True,
    )
    chaos["resume_events"] = sum(
        1 for e in events if "resume" in e.kind or "rebind" in e.kind
    )

    row = {
        "bytes": cfg["ab_bytes"],
        "single": single,
        "striped": striped,
        "chaos": chaos,
    }
    print(
        f"single {single['mbps']} Mbit/s, "
        f"striped x{ROUTES} {striped['mbps']} Mbit/s, "
        f"chaos(dup-1, 1 route crashed) "
        f"{'ok' if chaos['complete'] else 'FAILED'} "
        f"in {chaos['wall_s']}s, {chaos['sublink_errors']} sublink error(s), "
        f"{chaos['resume_events']} resume round-trip(s)"
    )
    return row


def check(row):
    problems = []
    for lane in ("single", "striped"):
        if not (row[lane]["complete"] and row[lane]["digest_ok"]):
            problems.append(f"{lane} transfer incomplete")
    chaos = row["chaos"]
    if not (chaos["complete"] and chaos["digest_ok"]):
        problems.append("chaos transfer did not degrade cleanly")
    if chaos["sublink_errors"] < 1:
        problems.append("the crashed route went unobserved")
    if chaos["resume_events"] != 0:
        problems.append(
            f"{chaos['resume_events']} resume round-trip(s); "
            "duplicate-1 must need zero"
        )
    return problems


def write_summary(row, total_wall, exitstatus) -> Path:
    outdir = Path(os.environ.get("REPRO_METRICS_DIR") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {
        "version": 1,
        "exitstatus": exitstatus,
        "scaling": {},
        "total_wall_s": round(total_wall, 3),
        "benchmarks": [
            {
                "test": "benchmarks/bench_striped_chaos.py::chaos",
                "group": "striped-chaos",
                "timing_s": {"mean": row["chaos"]["wall_s"], "rounds": 1},
                "striped_chaos": row,
            }
        ],
    }
    path = outdir / "BENCH_summary.json"
    with path.open("w") as fp:
        json.dump(summary, fp, indent=1)
        fp.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI profile: 8M A/B + 16M chaos, one round each",
    )
    args = parser.parse_args(argv)
    cfg = SMOKE if args.smoke else FULL

    t0 = time.perf_counter()
    row = bench(cfg)
    total_wall = time.perf_counter() - t0

    problems = check(row)
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    exitstatus = 1 if problems else 0
    path = write_summary(row, total_wall, exitstatus)
    print(f"summary -> {path}")
    return exitstatus


if __name__ == "__main__":
    sys.exit(main())
