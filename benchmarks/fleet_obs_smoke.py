"""Fleet observability smoke: traced transfers + SIGKILL + collect.

End-to-end drill of the distributed-tracing plane against a real
4-worker cluster (subprocess workers, shared file store):

1. boot a :class:`~repro.cluster.pool.WorkerPool` with per-worker
   trace spools (``--trace-dir``) and per-worker exposition
   (``--expose-port``);
2. run traced transfers, including one whose owning worker is
   SIGKILLed mid-payload and resumed cross-worker under the *same*
   trace id;
3. scrape every worker's ``/metrics`` + ``/spans`` live (process
   gauges must be present on each);
4. run ``repro-lsl collect`` over the spools, then verify the merged
   Perfetto trace validates, the crash session is ONE trace spanning
   >= 3 OS processes, and ``fleet_report.json`` passes its schema
   with non-null goodput percentiles.

Exits non-zero on any failed check. Writes ``BENCH_summary.json``
into ``REPRO_METRICS_DIR`` (or the working directory).

Usage::

    PYTHONPATH=src python benchmarks/fleet_obs_smoke.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import tempfile
import time
import urllib.request
from contextlib import closing
from pathlib import Path

from repro.asockets import AsyncLslClient
from repro.cluster import WorkerPool
from repro.experiments.runner import main as cli_main
from repro.lsl.core import real_digest_factory
from repro.telemetry.exposition import parse_prometheus_text
from repro.telemetry.tracing import TraceSpool

PAYLOAD = random.Random(2029).randbytes(400_000)
CUT = 200_000
CHECKPOINT = 32_768
CLEAN_SESSIONS = 3


def _wait(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read().decode()


async def _traced_transfer(address, spool: TraceSpool) -> None:
    async with AsyncLslClient(
        [address],
        payload_length=len(PAYLOAD),
        digest_factory=real_digest_factory(PAYLOAD),
        tracer=spool,
    ) as client:
        await client.sendall(PAYLOAD)
        await client.finish()


def run(workdir: Path) -> dict:
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    out_dir = workdir / "fleet"
    client_spool = TraceSpool(
        "client", path=spans_dir / "spans-client.jsonl"
    )
    checks: dict = {"workers": 4}
    # one client loop for the whole drill: the crashed session stays
    # open on it while the owning worker is killed
    loop = asyncio.new_event_loop()
    drive = loop.run_until_complete

    with closing(loop), WorkerPool(
        4,
        store_spec=f"file:{workdir / 'store'}",
        checkpoint_bytes=CHECKPOINT,
        trace_dir=str(spans_dir),
        expose_workers=True,
    ) as pool:
        # -- live scrape: every worker serves /metrics with process
        # gauges and /spans with its own spool ----------------------
        urls = pool.worker_expose_urls()
        assert len(urls) == 4, f"expected 4 exposed workers, got {urls}"
        for worker, url in sorted(urls.items()):
            families = parse_prometheus_text(_scrape(f"{url}/metrics"))
            for gauge in ("lsl_process_rss_bytes", "lsl_process_open_fds",
                          "lsl_process_uptime_seconds"):
                assert gauge in families, f"{worker} missing {gauge}"
            spans = json.loads(_scrape(f"{url}/spans"))
            assert spans["service"] == f"worker:{worker}", spans
        checks["workers_scraped"] = len(urls)

        # -- clean traced transfers --------------------------------
        for i in range(CLEAN_SESSIONS):
            drive(_traced_transfer(pool.address, client_spool))

        # -- the crash: SIGKILL the owner mid-payload, resume on the
        # same trace id via a surviving worker ---------------------
        sid = bytes(range(16))
        crashed = drive(AsyncLslClient.open(
            [pool.address],
            payload_length=len(PAYLOAD),
            session_id=sid,
            tracer=client_spool,
        ))
        crash_trace = crashed.trace_id
        drive(crashed.sendall(PAYLOAD[:CUT]))
        assert _wait(
            lambda: (pool.store.load(sid) or None) is not None
            and pool.store.load(sid).bytes_received >= CHECKPOINT
        ), "no checkpoint reached the store"
        owner_idx = int(pool.store.load(sid).owner[1:])
        pool.kill(owner_idx)
        crashed.close()
        resumed = drive(AsyncLslClient.open(
            [pool.address],
            payload_length=len(PAYLOAD),
            session_id=sid,
            rebind=True,
            resume_query=True,
            digest_factory=real_digest_factory(PAYLOAD),
            tracer=client_spool,
            trace_id=crash_trace,
        ))
        granted = resumed.granted_offset
        assert CHECKPOINT <= granted <= CUT, granted
        drive(resumed.sendall(PAYLOAD[granted:]))
        drive(resumed.finish())
        resumed.close()
        assert _wait(lambda: pool.store.load(sid).closed), "resume never closed"

        def fleet(name):
            return sum(
                snap.get(name, 0) for snap in pool.worker_counters().values()
            )

        assert _wait(
            lambda: fleet("sessions_completed") == CLEAN_SESSIONS + 1
        ), pool.worker_counters()
        assert fleet("takeovers") == 1, pool.worker_counters()
        checks["sessions"] = CLEAN_SESSIONS + 1
        checks["takeovers"] = 1
    client_spool.close()

    # -- collect + validate ----------------------------------------
    rc = cli_main(["collect", str(spans_dir), "--out", str(out_dir)])
    assert rc == 0, f"repro-lsl collect exited {rc}"

    report = json.loads((out_dir / "fleet_report.json").read_text())
    gp = report["goodput"]
    assert gp["count"] >= CLEAN_SESSIONS + 1, gp
    assert gp["p50_mbps"] is not None and gp["p99_mbps"] is not None, gp
    crash_sessions = [
        s for s in report["sessions"] if s["trace"] == crash_trace.hex()
    ]
    assert len(crash_sessions) == 1, "crash must be ONE merged trace"
    assert crash_sessions[0]["processes"] >= 3, crash_sessions
    assert crash_sessions[0]["status"] == "ok", crash_sessions
    counts = report["counts"]
    assert counts["takeovers"] == 1, counts
    assert counts["unfinished_spans"] >= 1, counts  # the dead worker's span

    checks["crash_trace_processes"] = crash_sessions[0]["processes"]
    checks["goodput_p50_mbps"] = gp["p50_mbps"]
    checks["goodput_p99_mbps"] = gp["p99_mbps"]
    checks["unfinished_spans"] = counts["unfinished_spans"]
    return checks


def _write_summary(checks: dict) -> Path:
    outdir = Path(os.environ.get("REPRO_METRICS_DIR") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "BENCH_summary.json"
    with path.open("w") as fp:
        json.dump({"fleet_obs_smoke": checks}, fp, indent=1)
    return path


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    ).parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        checks = run(Path(workdir))
    path = _write_summary(checks)
    print(
        f"fleet obs smoke ok: {checks['sessions']} traced sessions, "
        f"crash trace spanned {checks['crash_trace_processes']} processes, "
        f"goodput p50 {checks['goodput_p50_mbps']:.1f} Mbit/s"
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
