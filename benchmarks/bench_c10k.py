"""C10K bench: concurrent-session capacity + relay goodput of one depot.

The paper's depot is meant to stand in the middle of many simultaneous
logistical sessions. This bench measures, for the asyncio depot
(:class:`repro.asockets.AsyncDepot`):

1. **Concurrency** — N sessions opened through one depot and *held
   open simultaneously* (header + first half of the payload sent, then
   a barrier), released together, all verified complete at the sink.
   The depot's ``active_sessions`` gauge must actually reach N (≥ 2,000
   by default, on one event loop) — this is held-open concurrency, not
   sequential throughput.
2. **Goodput** — one large relay through the depot, wall-clocked at
   the sink (loopback; the GIL caveat from the package docstring
   applies to absolute numbers).

After each phase the harness asserts no leaked session tasks and that
the depot still accepts (accept-loop death fails the bench).

Writes a ``BENCH_summary.json`` (same shape the pytest-benchmark
conftest emits) into ``REPRO_METRICS_DIR`` (or the working directory).

Usage::

    PYTHONPATH=src python benchmarks/bench_c10k.py            # full
    PYTHONPATH=src python benchmarks/bench_c10k.py --smoke    # CI, <60s
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from pathlib import Path

from repro.asockets import AsyncDepot, AsyncLslClient

FULL = {"sessions": 2000, "goodput_bytes": 64 << 20}
SMOKE = {"sessions": 500, "goodput_bytes": 8 << 20}

HOLD_PAYLOAD = 2048  # per held-open session: tiny, fd-bound not byte-bound


def raise_fd_limit() -> int:
    """Lift RLIMIT_NOFILE to its hard cap; return the effective limit."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < hard:
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
        soft = hard
    return soft


class Sink:
    """Minimal asyncio drain server: spool every session to EOF."""

    def __init__(self) -> None:
        self.sessions = 0
        self.bytes = 0
        self._server = None
        self.address = None

    async def start(self):
        async def handle(reader, writer):
            total = 0
            while True:
                piece = await reader.read(256 * 1024)
                if not piece:
                    break
                total += len(piece)
            self.sessions += 1
            self.bytes += total
            writer.close()

        # default backlog (100) drops SYNs when the depot dials a few
        # thousand downstream hops in one burst
        self._server = await asyncio.start_server(
            handle, "127.0.0.1", 0, backlog=4096
        )
        self.address = self._server.sockets[0].getsockname()

    async def stop(self):
        self._server.close()
        await self._server.wait_closed()


async def _held_session(route, gate, errors):
    half = HOLD_PAYLOAD // 2
    try:
        client = await AsyncLslClient.open(
            route, payload_length=HOLD_PAYLOAD, digest=False, sync=False
        )
        await client.sendall(b"h" * half)
        await gate.wait()
        await client.sendall(b"h" * (HOLD_PAYLOAD - half))
        await client.finish()
        client.close()
    except Exception as exc:  # noqa: BLE001 - tallied, fails the bench
        errors.append(f"{type(exc).__name__}: {exc}")


async def _probe_accepts(route) -> bool:
    """One quick session proves the depot's accept loop is alive."""
    try:
        client = await asyncio.wait_for(
            AsyncLslClient.open(
                route, payload_length=5, digest=False, sync=False
            ),
            timeout=10,
        )
        await client.sendall(b"probe")
        await client.finish()
        client.close()
        return True
    except Exception:  # noqa: BLE001
        return False


async def run_concurrency(depot, sessions: int) -> dict:
    sink = Sink()
    await sink.start()
    route = [depot.address, sink.address]
    gate = asyncio.Event()
    errors: list = []
    t0 = time.perf_counter()
    tasks = [
        asyncio.create_task(_held_session(route, gate, errors))
        for _ in range(sessions)
    ]
    peak = 0
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        peak = max(peak, depot.counters.active_sessions)
        if peak >= sessions or all(t.done() for t in tasks):
            break
        await asyncio.sleep(0.02)
    open_wall = time.perf_counter() - t0
    gate.set()
    await asyncio.gather(*tasks, return_exceptions=True)
    drain_deadline = time.monotonic() + 60
    while sink.sessions < sessions and time.monotonic() < drain_deadline:
        await asyncio.sleep(0.02)
    total_wall = time.perf_counter() - t0
    completed_at_sink = sink.sessions
    leak_deadline = time.monotonic() + 15
    while depot.counters.active_sessions > 0 and time.monotonic() < leak_deadline:
        await asyncio.sleep(0.02)
    snap = depot.counters.snapshot()
    # probe last — it is a fresh session and must not pollute the
    # leak/completion accounting above
    accepts = await _probe_accepts(route)
    await sink.stop()
    return {
        "target": sessions,
        "peak_active": peak,
        "completed_at_sink": completed_at_sink,
        "client_errors": len(errors),
        "first_errors": errors[:3],
        "open_wall_s": round(open_wall, 3),
        "total_wall_s": round(total_wall, 3),
        "leaked_active": snap["active_sessions"],
        "accept_loop_alive": accepts,
        "depot": snap,
    }


async def run_goodput(depot, nbytes: int) -> dict:
    sink = Sink()
    await sink.start()
    route = [depot.address, sink.address]
    chunk = b"g" * (1 << 20)
    t0 = time.perf_counter()
    client = await AsyncLslClient.open(
        route, payload_length=nbytes, digest=False, sync=False
    )
    sent = 0
    while sent < nbytes:
        piece = chunk[: min(len(chunk), nbytes - sent)]
        await client.sendall(piece)
        sent += len(piece)
    await client.finish()
    client.close()
    deadline = time.monotonic() + 300
    while sink.bytes < nbytes and time.monotonic() < deadline:
        await asyncio.sleep(0.005)
    wall = time.perf_counter() - t0
    await sink.stop()
    complete = sink.bytes >= nbytes
    return {
        "nbytes": nbytes,
        "wall_s": round(wall, 4),
        "goodput_mbps": round(nbytes * 8 / wall / 1e6, 1) if wall else 0.0,
        "complete": complete,
    }


def bench(cfg: dict) -> dict:
    depot = AsyncDepot()
    try:
        conc = asyncio.run(run_concurrency(depot, cfg["sessions"]))
    finally:
        depot.shutdown()
    conc["leaked_tasks"] = depot.active_tasks

    depot = AsyncDepot()
    try:
        goodput = asyncio.run(run_goodput(depot, cfg["goodput_bytes"]))
    finally:
        depot.shutdown()

    return {"concurrency": conc, "goodput": goodput}


def verdicts(row) -> list:
    problems = []
    conc = row["concurrency"]
    if not conc["accept_loop_alive"]:
        problems.append("accept loop died under load")
    if conc["leaked_active"] > 0:
        problems.append(f"{conc['leaked_active']} sessions leaked")
    if conc["leaked_tasks"]:
        problems.append(f"{conc['leaked_tasks']} tasks leaked")
    if conc["depot"]["sessions_failed"]:
        problems.append(
            f"depot counted {conc['depot']['sessions_failed']} "
            "failed sessions"
        )
    if conc["client_errors"]:
        problems.append(
            f"{conc['client_errors']} client errors "
            f"(first: {conc['first_errors']})"
        )
    if conc["completed_at_sink"] < conc["target"]:
        problems.append(
            f"only {conc['completed_at_sink']}/{conc['target']} "
            "sessions completed at the sink"
        )
    if conc["peak_active"] < conc["target"]:
        problems.append(
            f"peak concurrency {conc['peak_active']} < "
            f"required {conc['target']}"
        )
    if not row["goodput"]["complete"]:
        problems.append("goodput transfer incomplete")
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
                "test": "benchmarks/bench_c10k.py::c10k",
                "group": "c10k",
                "timing_s": {
                    "mean": row["concurrency"]["total_wall_s"],
                    "rounds": 1,
                },
                "c10k": row,
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
        help="CI profile: 500 held-open asyncio sessions, <60s total",
    )
    args = parser.parse_args(argv)
    cfg = SMOKE if args.smoke else FULL
    limit = raise_fd_limit()
    need = cfg["sessions"] * 4 + 256
    if limit < need:
        print(
            f"warning: fd limit {limit} < {need}; "
            "concurrency may fall short",
            file=sys.stderr,
        )

    t0 = time.perf_counter()
    row = bench(cfg)
    total_wall = time.perf_counter() - t0

    conc, gp = row["concurrency"], row["goodput"]
    print(
        f"{conc['peak_active']}/{conc['target']} "
        f"concurrent sessions (opened in {conc['open_wall_s']}s, "
        f"all drained in {conc['total_wall_s']}s), "
        f"goodput {gp['goodput_mbps']} Mbit/s over "
        f"{gp['nbytes'] >> 20} MiB"
    )

    problems = verdicts(row)
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    status = 1 if problems else 0
    path = write_summary(row, total_wall, status)
    print(f"summary written to {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
