"""Cluster scale-out bench: held-open session capacity per fleet size.

A depot worker's held-open session capacity is bounded by per-process
resources — one fd per terminal session. Spreading sessions across worker *processes* multiplies that
budget, which is the cluster's capacity story on any core count (the
goodput story additionally needs real cores; on a 1-CPU runner the GIL
serializes payload work, so goodput is reported but not asserted on).

Method: the bench lowers its own ``RLIMIT_NOFILE`` soft limit before
spawning each :class:`~repro.cluster.pool.WorkerPool` — the workers
inherit the small budget — then restores its own limit and opens
held-open terminal sessions (header + half the payload, no EOF)
against the fleet until an establishment fails or the attempt budget
runs out. Capacity = sessions held open simultaneously. Fleet sizes
1, 2 and 4 run identically; the verdict requires 4 workers to hold
**at least 2x** the sessions of 1 worker.

Writes a ``BENCH_summary.json`` (same shape the pytest-benchmark
conftest emits) into ``REPRO_METRICS_DIR`` (or the working directory).

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster_scaleout.py          # full
    PYTHONPATH=src python benchmarks/bench_cluster_scaleout.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

from repro.asockets import AsyncLslClient
from repro.cluster import WorkerPool

FULL = {
    "worker_fd_limit": 256,
    "max_attempts": 1600,
    "goodput_bytes": 32 << 20,
    "fleets": (1, 2, 4),
    "open_timeout_s": 3.0,
}
SMOKE = {
    "worker_fd_limit": 128,
    "max_attempts": 600,
    "goodput_bytes": 4 << 20,
    "fleets": (1, 2, 4),
    "open_timeout_s": 3.0,
}

HOLD_PAYLOAD = 2048


class _FdBudget:
    """Temporarily lower RLIMIT_NOFILE so spawned workers inherit it."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._saved = resource.getrlimit(resource.RLIMIT_NOFILE)

    def __enter__(self) -> "_FdBudget":
        soft, hard = self._saved
        resource.setrlimit(
            resource.RLIMIT_NOFILE, (min(self.limit, hard), hard)
        )
        return self

    def __exit__(self, *exc) -> None:
        # the bench itself needs fds for hundreds of client sockets
        soft, hard = self._saved
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))


#: Sessions abandoned (closed without finish) per worker before the
#: release phase. At the capacity cliff the workers have zero spare
#: fds, and completing a session transiently needs a few for store
#: writes — the margin hands that headroom back before completions
#: start.
ABORT_MARGIN_PER_WORKER = 24
RELEASE_BATCH = 16


def _fleet_completed(pool: WorkerPool) -> int:
    return sum(
        snap.get("sessions_completed", 0)
        for snap in pool.worker_counters().values()
    )


async def hold_sessions(pool: WorkerPool, cfg: dict) -> dict:
    """Open held-open sessions until establishment fails; release all."""
    half = HOLD_PAYLOAD // 2
    clients = []
    first_error = ""
    t0 = time.perf_counter()
    try:
        for _ in range(cfg["max_attempts"]):
            client = AsyncLslClient(
                [pool.address],
                payload_length=HOLD_PAYLOAD,
                digest=False,
                timeout=cfg["open_timeout_s"],
            )
            try:
                await client.connect()
                await client.sendall(b"h" * half)
            except Exception as exc:  # noqa: BLE001 - capacity edge
                client.close()
                first_error = f"{type(exc).__name__}: {exc}"
                break
            clients.append(client)
        capacity = len(clients)
        open_wall = time.perf_counter() - t0
        margin = ABORT_MARGIN_PER_WORKER * len(pool.workers)
        if capacity <= 2 * margin:
            margin = 0
        for client in clients[:margin]:
            client.close()  # suspend, not complete: frees worker fds
        await asyncio.sleep(0.5)
        keep = clients[margin:]
        released = 0
        for start in range(0, len(keep), RELEASE_BATCH):
            for client in keep[start : start + RELEASE_BATCH]:
                try:
                    await client.sendall(b"h" * (HOLD_PAYLOAD - half))
                    await client.finish()
                    released += 1
                except Exception:  # noqa: BLE001 - tallied via counters
                    pass
                client.close()
            # pace the batches so concurrent completions stay inside
            # the fd headroom the margin created
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if _fleet_completed(pool) >= released:
                    break
                await asyncio.sleep(0.05)
    finally:
        for client in clients:
            client.close()

    deadline = time.monotonic() + 60
    completed = 0
    while time.monotonic() < deadline:
        completed = _fleet_completed(pool)
        if completed >= released:
            break
        time.sleep(0.05)
    return {
        "capacity": capacity,
        "aborted_margin": margin,
        "released": released,
        "completed": completed,
        "open_wall_s": round(open_wall, 3),
        "first_error": first_error,
    }


def run_goodput(pool: WorkerPool, nbytes: int) -> dict:
    chunk = b"g" * (1 << 20)

    async def send() -> None:
        async with AsyncLslClient(
            [pool.address], payload_length=nbytes, digest=False
        ) as client:
            sent = 0
            while sent < nbytes:
                piece = chunk[: min(len(chunk), nbytes - sent)]
                await client.sendall(piece)
                sent += len(piece)
            await client.finish()

    t0 = time.perf_counter()
    asyncio.run(send())
    wall = time.perf_counter() - t0
    return {
        "nbytes": nbytes,
        "wall_s": round(wall, 4),
        "goodput_mbps": round(nbytes * 8 / wall / 1e6, 1) if wall else 0.0,
    }


def bench_fleet(workers: int, cfg: dict) -> dict:
    with tempfile.TemporaryDirectory(prefix="lsl-scaleout-") as tmp:
        with _FdBudget(cfg["worker_fd_limit"]):
            pool = WorkerPool(
                workers,
                store_spec=f"file:{tmp}/store",
                publish_interval=0.1,
            )
        try:
            held = asyncio.run(hold_sessions(pool, cfg))
            goodput = run_goodput(pool, cfg["goodput_bytes"])
            alive = pool.workers_alive()
        finally:
            pool.shutdown()
    return {
        "workers": workers,
        "worker_fd_limit": cfg["worker_fd_limit"],
        "held": held,
        "goodput": goodput,
        "workers_alive_at_end": sum(1 for ok in alive.values() if ok),
    }


def verdicts(results: list, cfg: dict) -> list:
    problems = []
    by_workers = {row["workers"]: row for row in results}
    for row in results:
        held = row["held"]
        if held["capacity"] == 0:
            problems.append(f"{row['workers']}w: zero sessions held")
        if held["completed"] < held["released"]:
            problems.append(
                f"{row['workers']}w: only {held['completed']}/"
                f"{held['released']} released sessions completed"
            )
        if row["workers_alive_at_end"] < row["workers"]:
            problems.append(
                f"{row['workers']}w: worker died during the bench"
            )
    if 1 in by_workers and 4 in by_workers:
        one = by_workers[1]["held"]["capacity"]
        four = by_workers[4]["held"]["capacity"]
        if four < 2 * one:
            problems.append(
                f"scale-out too weak: 4 workers held {four} sessions, "
                f"need >= 2x the single worker's {one}"
            )
    return problems


def write_summary(results, scaling, total_wall, exitstatus) -> Path:
    outdir = Path(os.environ.get("REPRO_METRICS_DIR") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {
        "version": 1,
        "exitstatus": exitstatus,
        "scaling": scaling,
        "total_wall_s": round(total_wall, 3),
        "benchmarks": [
            {
                "test": (
                    "benchmarks/bench_cluster_scaleout.py::"
                    f"{row['workers']}workers"
                ),
                "group": "cluster-scaleout",
                "timing_s": {
                    "mean": row["held"]["open_wall_s"],
                    "rounds": 1,
                },
                "cluster": row,
            }
            for row in results
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
        help="CI profile: smaller fd budget and attempt cap",
    )
    args = parser.parse_args(argv)
    cfg = SMOKE if args.smoke else FULL

    t0 = time.perf_counter()
    results = [bench_fleet(n, cfg) for n in cfg["fleets"]]
    total_wall = time.perf_counter() - t0

    for row in results:
        held, gp = row["held"], row["goodput"]
        print(
            f"{row['workers']}w (fd limit "
            f"{row['worker_fd_limit']}/worker): held {held['capacity']} "
            f"sessions (opened in {held['open_wall_s']}s, "
            f"{held['completed']} completed), goodput "
            f"{gp['goodput_mbps']} Mbit/s"
        )
    by_workers = {row["workers"]: row["held"]["capacity"] for row in results}
    scaling = {}
    if by_workers.get(1):
        scaling = {
            f"x{n}": round(by_workers[n] / by_workers[1], 2)
            for n in sorted(by_workers)
        }
        print(f"capacity scaling vs 1 worker: {scaling}")

    problems = verdicts(results, cfg)
    exitstatus = 1 if problems else 0
    path = write_summary(results, scaling, total_wall, exitstatus)
    print(f"wrote {path}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return exitstatus


if __name__ == "__main__":
    sys.exit(main())
