"""A crash-triggered cross-worker resume is ONE distributed trace.

The acceptance scenario for the tracing tentpole: a traced client is
mid-payload when the owning worker is SIGKILLed; the client rebinds
with the *same trace id*, a surviving worker grants the resume from
the store, and the transfer completes. Collecting every process's
crash-durable spool must then yield a single trace that spans at
least three OS processes — including the dead worker's unfinished
span — and a fleet report that scores the takeover.
"""

import json
import random
import time
from pathlib import Path

from repro.cluster import WorkerPool
from repro.lsl.core import real_digest_factory
from repro.telemetry.chrometrace import validate_trace_file
from repro.telemetry.collect import collect_dir, write_fleet_artifacts
from repro.telemetry.diagnose.schema import validate_flow_report_file
from repro.telemetry.tracing import TraceSpool
from tests.helpers import SyncClient

FLEET_SCHEMA = (
    Path(__file__).resolve().parents[2]
    / "docs" / "schemas" / "fleet_report.schema.json"
)

SID = bytes(range(16))
PAYLOAD = random.Random(2027).randbytes(600_000)
CUT = 300_000
CHECKPOINT = 32_768


def _wait(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def test_sigkill_resume_is_one_trace_across_three_processes(tmp_path):
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    client_spool = TraceSpool(
        "client", path=spans_dir / "spans-client.jsonl"
    )
    with WorkerPool(
        2,
        store_spec=f"file:{tmp_path / 'store'}",
        checkpoint_bytes=CHECKPOINT,
        trace_dir=str(spans_dir),
    ) as pool:
        client = SyncClient(
            [pool.address],
            payload_length=len(PAYLOAD),
            session_id=SID,
            tracer=client_spool,
        )
        trace_id = client.trace_id
        assert trace_id is not None
        client.sendall(PAYLOAD[:CUT])
        assert _wait(
            lambda: (pool.store.load(SID) or None) is not None
            and pool.store.load(SID).bytes_received >= CHECKPOINT
        ), "no checkpoint reached the store"
        owner_idx = int(pool.store.load(SID).owner[1:])
        pool.kill(owner_idx)  # SIGKILL: the owner's spool keeps its "b"
        client.close()
        with SyncClient(
            [pool.address],
            payload_length=len(PAYLOAD),
            session_id=SID,
            rebind=True,
            resume_query=True,
            digest_factory=real_digest_factory(PAYLOAD),
            tracer=client_spool,
            trace_id=trace_id,  # resume rides the SAME trace
        ) as resumed:
            granted = resumed.granted_offset
            assert CHECKPOINT <= granted <= CUT
            resumed.sendall(PAYLOAD[granted:])
            resumed.finish()
        assert resumed.trace_id == trace_id
        assert _wait(lambda: pool.store.load(SID).closed)

        def fleet(name):
            return sum(
                snap.get(name, 0)
                for snap in pool.worker_counters().values()
            )

        assert _wait(lambda: fleet("sessions_completed") == 1)
        assert fleet("takeovers") == 1
    client_spool.close()  # pool shutdown closed the workers' spools

    records = collect_dir(spans_dir)
    paths = write_fleet_artifacts(records, tmp_path / "fleet")
    assert validate_trace_file(paths["trace"]) == []
    assert validate_flow_report_file(paths["report"], FLEET_SCHEMA) == []

    report = json.loads(paths["report"].read_text())
    (session,) = report["sessions"]  # ONE trace end to end
    assert session["trace"] == trace_id.hex()
    assert session["processes"] >= 3  # client + both workers
    assert session["status"] == "ok"
    assert session["goodput_mbps"] is not None
    assert session["resumes"] == 1
    counts = report["counts"]
    assert counts["takeovers"] == 1
    assert counts["rebinds"] >= 1
    assert counts["unfinished_spans"] >= 1  # the SIGKILLed worker's span

    # the merged Perfetto trace shows the same story: >= 3 trace
    # processes contribute "X" events, one of them unfinished
    trace = json.loads(paths["trace"].read_text())
    xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len({e["pid"] for e in xs}) >= 3
    assert any(e["args"].get("unfinished") for e in xs)
    assert any(
        e["ph"] == "i" and e["name"] == "server.resume-grant"
        and e["args"].get("takeover")
        for e in trace["traceEvents"]
    )
