"""Unit tests for the fleet collector: merge, skew, trace, report."""

import json
from pathlib import Path

from repro.experiments.runner import main as cli_main
from repro.telemetry.chrometrace import validate_trace_file
from repro.telemetry.collect import (
    collect_dir,
    estimate_clock_offsets,
    fleet_report,
    fleet_trace,
    merge_records,
    write_fleet_artifacts,
)
from repro.telemetry.diagnose.schema import validate_flow_report_file
from repro.telemetry.tracing import TraceSpool

FLEET_SCHEMA = (
    Path(__file__).resolve().parents[2]
    / "docs" / "schemas" / "fleet_report.schema.json"
)

T1 = "ab" * 16
T2 = "cd" * 16


def _rec(rt, pid, ts, name, span, parent=0, svc="client", trace=T1,
         start=None, **attrs):
    rec = {"rt": rt, "seq": 0, "svc": svc, "pid": pid, "ts": ts,
           "name": name, "trace": trace, "span": span, "parent": parent,
           "attrs": attrs}
    if start is not None:
        rec["start"] = start
    return rec


def _fixture_records():
    """One ok session across client + skewed depot + killed worker."""
    return [
        _rec("b", 100, 10.0, "client.session", 1,
             route=["h1:5000", "h2:6000"]),
        _rec("e", 100, 10.05, "client.handshake", 2, parent=1, start=10.01),
        _rec("e", 100, 12.0, "client.session", 1, start=10.0,
             status="ok", bytes=1_000_000, route=["h1:5000", "h2:6000"]),
        # depot clock runs 1000s ahead of the client's
        _rec("e", 200, 1011.9, "depot.relay", 11, parent=1, svc="lsd",
             start=1010.03, status="ok"),
        # worker SIGKILLed mid-session: begin with no end
        _rec("b", 300, 10.06, "server.session", 21, parent=11,
             svc="worker:w0"),
        _rec("i", 301, 11.5, "server.resume-grant", 0, parent=22,
             svc="worker:w1", granted=500, takeover=True),
    ]


def test_merge_pairs_ends_and_keeps_orphans():
    spans = merge_records(_fixture_records())
    by_name = {s.name: s for s in spans}
    assert not by_name["client.session"].unfinished
    assert by_name["client.session"].start == 10.0
    assert by_name["server.session"].unfinished
    assert by_name["server.resume-grant"].instant
    # orphan begin is clamped to the newest timestamp seen anywhere
    assert by_name["server.session"].end >= by_name["server.session"].start


def test_merge_skips_malformed_records():
    records = _fixture_records() + [
        {"rt": "e"},  # no identity
        {"rt": "b", "pid": "x", "ts": "y", "span": 1},
        "not even a dict record",  # type: ignore[list-item]
    ]
    good = [r for r in records if isinstance(r, dict)]
    assert len(merge_records(good)) == len(merge_records(_fixture_records()))


def test_clock_offsets_anchor_on_handshake_midpoint():
    spans = merge_records(_fixture_records())
    offsets = estimate_clock_offsets(spans)
    assert offsets[("client", 100)] == 0.0
    # depot first-span start 1010.03 vs handshake midpoint 10.03
    assert abs(offsets[("lsd", 200)] - 1000.0) < 1e-6
    # same-clock worker: offset is jitter-sized, not skew-sized
    assert abs(offsets[("worker:w0", 300)]) < 0.25


def test_fleet_trace_valid_and_rebased(tmp_path):
    paths = write_fleet_artifacts(_fixture_records(), tmp_path)
    assert validate_trace_file(paths["trace"]) == []
    trace = json.loads(paths["trace"].read_text())
    xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert min(e["ts"] for e in xs) == 0.0  # rebased, never negative
    # skew-corrected: the depot relay lands inside the client session
    named = {e["name"]: e for e in xs}
    client = named["client.session"]
    relay = named["depot.relay"]
    assert client["ts"] <= relay["ts"] <= client["ts"] + client["dur"]
    assert relay["pid"] != client["pid"]  # distinct trace processes
    assert named["server.session"]["args"]["unfinished"] is True


def test_fleet_report_scores_slos(tmp_path):
    paths = write_fleet_artifacts(_fixture_records(), tmp_path)
    assert validate_flow_report_file(paths["report"], FLEET_SCHEMA) == []
    report = json.loads(paths["report"].read_text())
    assert report["goodput"]["count"] == 1
    assert report["goodput"]["p50_mbps"] == report["goodput"]["p99_mbps"] == 4.0
    counts = report["counts"]
    assert counts["traces"] == 1
    assert counts["sessions_ok"] == 1
    assert counts["resumes"] == 1
    assert counts["takeovers"] == 1
    assert counts["unfinished_spans"] == 1
    (session,) = report["sessions"]
    assert session["processes"] == 4  # client, depot, two workers
    assert session["route"] == ["h1:5000", "h2:6000"]
    (route,) = report["routes"]
    assert route == {"route": "h1:5000 -> h2:6000", "ok": 1, "error": 0}


def test_report_counts_error_sessions_per_route():
    records = _fixture_records() + [
        _rec("e", 100, 21.0, "client.session", 31, trace=T2, start=20.0,
             status="error", bytes=10, route=["h1:5000", "h2:6000"]),
    ]
    report = fleet_report(merge_records(records))
    assert report["counts"]["sessions_error"] == 1
    assert report["goodput"]["count"] == 1  # errors don't score goodput
    (route,) = report["routes"]
    assert route["ok"] == 1 and route["error"] == 1


def test_collect_dir_reads_spools(tmp_path):
    for svc in ("client", "worker"):
        spool = TraceSpool(svc, path=tmp_path / f"spans-{svc}.jsonl")
        span = spool.begin("x", bytes(16))
        spool.end(span)
        spool.close()
    records = collect_dir(tmp_path)
    assert len(records) == 4  # two begins + two ends
    assert {r["svc"] for r in records} == {"client", "worker"}


def test_rebinding_client_scored_from_last_attempt():
    """Two client.session spans (pre-crash + resume) in one trace:
    duration spans both attempts, status comes from the last."""
    records = [
        _rec("e", 100, 11.0, "client.session", 1, start=10.0,
             status="error", bytes=300),
        _rec("e", 100, 14.0, "client.session", 2, start=12.0,
             status="ok", bytes=700, rebind=True,
             route=["h1:5000"]),
    ]
    report = fleet_report(merge_records(records))
    (session,) = report["sessions"]
    assert session["status"] == "ok"
    assert session["duration_s"] == 4.0  # 10.0 -> 14.0
    assert report["counts"]["rebinds"] == 1


def test_cli_collect_end_to_end(tmp_path, capsys):
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    (spans_dir / "spans-all.jsonl").write_text(
        "\n".join(json.dumps(r) for r in _fixture_records()) + "\n"
    )
    out = tmp_path / "fleet"
    rc = cli_main(["collect", str(spans_dir), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "1 trace(s) across 4 process(es)" in captured.out
    assert (out / "fleet_trace.json").exists()
    assert (out / "fleet_report.json").exists()


def test_cli_collect_empty_sources(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert cli_main(["collect", str(empty), "--out", str(tmp_path)]) == 1
    assert "no span records" in capsys.readouterr().err


def test_fleet_trace_empty_is_valid():
    trace = fleet_trace([])
    assert trace["traceEvents"] == []
