"""Self-tests for the benchmark's own code.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import gc
import json
import threading

import pytest

from perfbench import lanes, probe, run
from perfbench.lanes import Lane, Rep
from perfbench.spans import Tracer
from perfbench.stats import beyond, host_corrected, self_times, tail


# -- the p99 rule ------------------------------------------------------------

def test_p99_reported_only_with_ten_samples_beyond_it():
    assert beyond(1000, 0.99) == 10
    assert tail([float(i) for i in range(1000)], 0.99) == (989.0, 0.99)
    assert beyond(999, 0.99) == 9
    value, pct = tail([float(i) for i in range(999)], 0.99)
    assert pct < 0.99
    assert value == 988.0  # 10 samples (989..998) lie beyond it


def test_short_samples_fall_back_to_the_highest_resolved_percentile():
    values = [float(i) for i in range(1, 41)]
    assert tail(values, 0.99) == (30.0, 0.75)
    value, pct = tail([float(i) for i in range(1, 23)], 0.99)
    assert value == 12.0 and beyond(22, pct) == 10
    # too few samples for any percentile above the median
    assert tail([float(i) for i in range(1, 16)], 0.99) == (8.0, 0.5)
    assert tail([3.0, 1.0, 2.0], 0.99) == (2.0, 0.5)


def test_end_to_end_prints_the_sample_count_and_p99_status():
    lines = []
    reps = [Rep(ops=1, failed=0, nbytes=10, wall_s=0.5, cpu_s=0.5,
                latencies_s=[0.5]) for _ in range(20)]
    metrics = run.end_to_end(reps, 20, 0, [(2.0, 1.0)], lines.append)
    assert any("latency samples: 20" in line and "p50.0" in line
               for line in lines)
    assert metrics["p99_ms"] == 500.0
    assert metrics["delivered_ratio"] == 1.0
    assert metrics["setup_s"] == 1.0  # the host-corrected sample


# -- self time on nested spans -----------------------------------------------

def test_self_time_subtracts_merged_children():
    spans = [
        ("core.stripe_assemble", 0.0, 10.0, None),  # feed_bytes
        ("core.stripe_assemble", 2.0, 5.0, 0),      # nested feed
        ("core.digest", 3.0, 4.0, 1),               # update inside feed
        ("core.digest", 6.0, 8.0, 0),
        ("core.digest", 7.0, 9.0, 0),               # overlaps the previous
    ]
    assert self_times(spans) == [4.0, 2.0, 1.0, 2.0, 2.0]


def test_self_time_clips_children_to_the_parent():
    spans = [("asockets.sendall", 1.0, 3.0, None),
             ("core.digest", 2.0, 5.0, 0)]
    assert self_times(spans)[0] == 1.0


class _Assembler:
    def feed(self, data):
        _Digest().update(data)
        return len(data)

    def feed_bytes(self, data):
        return self.feed(data) + self.feed(data)


class _Digest:
    def update(self, data):
        sum(range(2000))


def test_tracer_nests_wrapped_calls_and_restores_them():
    originals = (_Assembler.feed, _Assembler.feed_bytes, _Digest.update)
    tracer = Tracer()
    tracer.wrap(_Assembler, "feed", "asm")
    tracer.wrap(_Assembler, "feed_bytes", "asm")
    tracer.wrap(_Digest, "update", "digest",
                on_call=lambda _self, data: tracer.count("bytes", len(data)))
    assert _Assembler().feed_bytes(b"abc") == 6
    tracer.uninstall()
    assert (_Assembler.feed, _Assembler.feed_bytes, _Digest.update) == originals

    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["asm", "asm", "digest", "asm", "digest"]
    assert parents == [None, 0, 1, 0, 3]
    summ = tracer.summary()
    # asm self time + digest time == the outer call, nothing counted twice
    outer = tracer.spans[0][2] - tracer.spans[0][1]
    assert summ["asm"]["self_s"] + summ["digest"]["total_s"] == pytest.approx(
        outer, rel=1e-9)
    assert summ["asm"]["self_s"] < summ["asm"]["total_s"]
    assert tracer.counts == {"bytes": 6}


def test_tracer_parents_follow_asyncio_tasks():
    import asyncio

    class Client:
        async def connect(self):
            await asyncio.sleep(0.01)
            _Digest().update(b"x")

    tracer = Tracer()
    tracer.wrap(Client, "connect", "connect")
    tracer.wrap(_Digest, "update", "digest")
    try:
        async def both():
            await asyncio.gather(Client().connect(), Client().connect())
        asyncio.run(both())
    finally:
        tracer.uninstall()
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    for span in tracer.spans:
        if span[0] == "digest":
            assert by_index[span[3]][0] == "connect"
    assert sorted(s[3] for s in tracer.spans if s[0] == "digest") == [0, 1]


# -- host correction ----------------------------------------------------------

def test_host_correction_formula():
    # probes at the reference speed leave the rep unchanged
    assert host_corrected(0.4, 0.1, 0.1, 0.1) == pytest.approx(0.4)
    # a host running at half speed (probes twice as long) halves the rep
    assert host_corrected(0.8, 0.2, 0.2, 0.1) == pytest.approx(0.4)
    # before and after probes are averaged
    assert host_corrected(1.0, 0.1, 0.3, 0.2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        host_corrected(1.0, 0.0, 0.1, 0.1)


# -- the guard before each probe ----------------------------------------------

def test_probe_guard_collects_garbage_and_refuses_live_threads(monkeypatch):
    calls = []
    real_collect = gc.collect
    monkeypatch.setattr(probe.gc, "collect",
                        lambda: calls.append("gc") or real_collect())
    release = threading.Event()
    worker = threading.Thread(target=release.wait, name="service-loop")
    worker.start()
    try:
        with pytest.raises(RuntimeError, match="service-loop"):
            probe.timed_probe()
    finally:
        release.set()
        worker.join(timeout=5)
    assert not worker.is_alive()
    assert calls == []
    assert probe.timed_probe() > 0
    assert calls == ["gc"]


def test_probe_guard_waits_for_in_flight_work_to_finish(monkeypatch):
    monkeypatch.setattr(probe, "probe_work", lambda: None)
    pending = ["relay", "relay", "relay"]

    def busy():
        return [pending.pop()] if pending else []

    assert probe.timed_probe(busy, wait_s=1.0) >= 0
    assert pending == []
    with pytest.raises(RuntimeError, match="in flight"):
        probe.timed_probe(lambda: ["session task"], wait_s=0.01)


def test_sim_rep_probes_before_and_after(monkeypatch):
    seen = []
    monkeypatch.setattr(lanes, "timed_probe",
                        lambda *guard: seen.append("probe") or 0.1)
    lane = lanes.SimLane(0)
    lane.setup()
    first = lane.rep()
    second = lane.rep()
    # the probe after one rep is the probe before the next
    assert seen == ["probe"] * 3
    assert first.failed == second.failed == 0
    assert first.corrected_s == pytest.approx(
        first.wall_s * probe.PROBE_REF_S / 0.1)


# -- failing reps count and fail the command -----------------------------------

class _FlakyLane(Lane):
    name = "flaky"

    def setup(self):
        self.n = 0

    def rep(self):
        self.n += 1
        bad = self.n == 3
        return Rep(ops=1, failed=int(bad), nbytes=0 if bad else 100,
                   wall_s=0.01, cpu_s=0.01, latencies_s=[0.01])


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_injected_failing_rep_counts_and_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setitem(run.LANES, "flaky", _FlakyLane)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    code = run.main(["--workload", "flaky", "--seed", "1",
                     "--seconds", "0.05", "--trace", "0"])
    out = _last_json(capsys)
    assert code == 1
    assert out["correct"] is False and out["failed"] == 1
    ratio = out["metrics"]["delivered_ratio"]["value"]
    assert ratio == (out["attempted"] - 1) / out["attempted"] < 1.0


def test_failing_warm_up_is_reported_without_timing_more(monkeypatch,
                                                         capsys):
    class Broken(_FlakyLane):
        def rep(self):
            return Rep(ops=1, failed=1, nbytes=0, wall_s=0.01, cpu_s=0.01,
                       latencies_s=[])

    monkeypatch.setitem(run.LANES, "flaky", Broken)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    for trace in ("0", "1"):
        code = run.main(["--workload", "flaky", "--seconds", "5",
                         "--trace", trace])
        out = _last_json(capsys)
        assert code == 1
        assert (out["attempted"], out["failed"]) == (1, 1)


def test_sim_duration_mismatch_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(lanes, "SIM_PIN", (2.0, 3.0))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    code = run.main(["--workload", "sim_case1", "--seed", "0",
                     "--seconds", "0.1", "--trace", "0"])
    out = _last_json(capsys)
    assert code == 1
    assert out["failed"] == out["attempted"]
    assert out["metrics"]["delivered_ratio"]["value"] == 0.0
