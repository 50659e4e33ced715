"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim_case1 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` spends half the time untraced, then installs span
wrappers around the layers' public functions and reports the per-layer
metrics plus the tracing overhead; spans are written to
``.perfbench_out/``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 only when every op was verified.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from perfbench.lanes import LANES, STORE_OPS, Lane, Rep  # noqa: E402
from perfbench.probe import PROBE_REF_S, timed_probe  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.stats import host_corrected, median, tail  # noqa: E402

#: Set-up is timed this many times per run (once here, the rest in
#: fresh interpreters, so each sample includes the imports).
SETUP_SAMPLES = 5

MB = 1e6
GiB = float(1 << 30)

END_TO_END = (
    ("setup_s", "s"),
    ("goodput_MBps", "MB/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("cpu_s_per_GiB", "s/GiB"),
    ("delivered_ratio", "ratio"),
    ("peak_rss_MB", "MB"),
)

PER_LAYER = (
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.compactions", "count"),
    ("tcp.retransmits", "count"),
    ("host.probe_ms", "ms"),
    ("core.digest_s", "s"),
    ("core.digest_MBps", "MB/s"),
    ("core.header_us", "us"),
    ("core.stripe_deal_s", "s"),
    ("core.stripe_assemble_s", "s"),
    ("core.parity_blocks", "count"),
    ("core.redundant_stripes", "count"),
    ("core.sublink_skew", "ratio"),
    ("asockets.connect_ms.p50", "ms"),
    ("asockets.connect_ms.p99", "ms"),
    ("asockets.sendall_self_s", "s"),
    ("asockets.finish_ms", "ms"),
    ("asockets.drain_ms", "ms"),
    ("asockets.failures", "count"),
    ("asockets.sessions_retained", "count"),
    ("cluster.decide_ms", "ms"),
) + tuple((f"cluster.store_ms.{op}", "ms") for op in STORE_OPS) + (
    ("cluster.store_ops_per_session", "count"),
    ("trace.untraced_goodput_MBps", "MB/s"),
    ("trace.traced_goodput_MBps", "MB/s"),
)


def timed_setup(lane: Lane) -> Tuple[float, float]:
    """``(raw, host-corrected)`` seconds of ``lane.setup()``.

    Importing and building is interpreter work, so it is corrected by
    probes around it like a rep. Nothing runs before set-up, and the
    services it starts have no session yet, so the probes need no
    busy check."""
    before = timed_probe(lambda: [])
    t0 = time.perf_counter()
    lane.setup()
    raw = time.perf_counter() - t0
    return raw, host_corrected(raw, before, timed_probe(lambda: []),
                               PROBE_REF_S)


def setup_in_child(workload: str, seed: int) -> Tuple[float, float]:
    """Time one set-up (imports included) in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    raw, corrected = out.stdout.strip().splitlines()[-1].split()
    return float(raw), float(corrected)


def run_reps(lane: Lane, seconds: float, min_ops: int = 0) -> List[Rep]:
    """Reps until ``seconds`` have passed (and ``min_ops`` ops ran), or
    until a rep fails: the run is then wrong anyway, and a hanging
    program would otherwise cost a timeout per op."""
    reps: List[Rep] = []
    deadline = time.perf_counter() + seconds
    ops = 0
    while time.perf_counter() < deadline or ops < min_ops:
        rep = lane.rep()
        reps.append(rep)
        ops += rep.ops
        if rep.failed:
            break
    return reps


def goodput_MBps(reps: List[Rep]) -> float:
    nbytes = sum(r.nbytes for r in reps)
    secs = sum(r.corrected_s if r.corrected_s is not None else r.wall_s
               for r in reps)
    return nbytes / secs / MB if secs > 0 else 0.0


def end_to_end(reps: List[Rep], attempted: int, failed: int,
               setup_samples: List[Tuple[float, float]],
               say: Callable[[str], None]) -> Dict[str, float]:
    latencies = [x for r in reps for x in r.latencies_s]
    nbytes = sum(r.nbytes for r in reps)
    cpu = sum(r.corrected_cpu_s if r.corrected_cpu_s is not None
              else r.cpu_s for r in reps)
    p99, pct = tail(latencies, 0.99) if latencies else (0.0, 1.0)
    if pct == 0.99:
        which = "p99"
    elif len(latencies) >= 20:
        which = (f"p{pct * 100:.1f}, the highest percentile with 10 "
                 "samples beyond it")
    else:
        which = "p50: too few samples for any higher percentile"
    say(f"latency samples: {len(latencies)}; p99_ms reports {which}")
    if reps and reps[0].corrected_s is not None:
        raw_lat = [x * r.wall_s / r.corrected_s
                   for r in reps for x in r.latencies_s]
        raw_secs = sum(r.wall_s for r in reps)
        say("host-corrected lane, raw values: "
            f"goodput_MBps {nbytes / raw_secs / MB:.4f}, "
            f"p50_ms {median(raw_lat) * 1e3:.3f}, "
            f"p99_ms {tail(raw_lat, 0.99)[0] * 1e3:.3f}, "
            f"cpu_s_per_GiB {sum(r.cpu_s for r in reps) / (nbytes / GiB):.4f}"
            if nbytes else "host-corrected lane: nothing verified")
        say(f"probe median {median([r.probe_s for r in reps]) * 1e3:.3f} ms")
    say("setup samples, raw -> host-corrected (s): " + ", ".join(
        f"{raw:.4f} -> {cor:.4f}" for raw, cor in setup_samples))
    return {
        "setup_s": median([cor for _raw, cor in setup_samples]),
        "goodput_MBps": goodput_MBps(reps),
        "p50_ms": median(latencies) * 1e3 if latencies else 0.0,
        "p99_ms": p99 * 1e3,
        "cpu_s_per_GiB": cpu / (nbytes / GiB) if nbytes else 0.0,
        "delivered_ratio": (attempted - failed) / attempted,
        "peak_rss_MB": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
    }


def per_layer(lane: Lane, tracer: Tracer, reps: List[Rep],
              untraced_MBps: float) -> Dict[str, float]:
    summ = tracer.summary()
    ops = max(1, sum(r.ops - r.failed for r in reps))

    def stat(name: str, key: str) -> float:
        return summ[name][key] if name in summ else 0.0

    def durations(name: str) -> List[float]:
        return summ[name]["durations"] if name in summ else []

    def count(key: str) -> float:
        values = [r.counts[key] for r in reps if key in r.counts]
        return median(values) if values else 0.0

    def med_ms(values: List[float]) -> float:
        return median(values) * 1e3 if values else 0.0

    digest_s = stat("core.digest", "total_s")
    run_s = stat("sim.run", "total_s") / ops
    events = count("sim.events")
    connects = durations("asockets.connect")
    probes = [r.probe_s for r in reps if r.probe_s is not None]
    out = {
        "sim.run_s": run_s,
        "sim.events": events,
        "sim.ns_per_event": run_s / events * 1e9 if events else 0.0,
        "sim.compactions": count("sim.compactions"),
        "tcp.retransmits": count("tcp.retransmits"),
        "host.probe_ms": med_ms(probes),
        "core.digest_s": digest_s / ops,
        "core.digest_MBps": (tracer.counts.get("core.digest_bytes", 0) / MB
                             / digest_s if digest_s else 0.0),
        "core.header_us": stat("core.header", "self_s") / ops * 1e6,
        "core.stripe_deal_s": stat("core.stripe_deal", "self_s") / ops,
        "core.stripe_assemble_s": stat("core.stripe_assemble", "self_s") / ops,
        "core.parity_blocks": tracer.counts.get("core.parity_blocks", 0) / ops,
        "core.redundant_stripes": count("core.redundant_stripes"),
        "core.sublink_skew": count("core.sublink_skew"),
        "asockets.connect_ms.p50": med_ms(connects),
        "asockets.connect_ms.p99": (tail(connects, 0.99)[0] * 1e3
                                    if connects else 0.0),
        "asockets.sendall_self_s": stat("asockets.sendall", "self_s") / ops,
        "asockets.finish_ms": med_ms(durations("asockets.finish")),
        "asockets.drain_ms": med_ms(getattr(lane, "drains_s", [])),
        "asockets.failures": max(
            [r.counts.get("asockets.failures", 0) for r in reps] or [0]),
        "asockets.sessions_retained": count("asockets.sessions_retained"),
        "cluster.decide_ms": med_ms(durations("cluster.decide")),
    }
    store_calls = 0
    for op in STORE_OPS:
        out[f"cluster.store_ms.{op}"] = (
            stat(f"cluster.store.{op}", "total_s") / ops * 1e3)
        store_calls += int(stat(f"cluster.store.{op}", "calls"))
    out["cluster.store_ops_per_session"] = store_calls / ops
    out["trace.untraced_goodput_MBps"] = untraced_MBps
    out["trace.traced_goodput_MBps"] = goodput_MBps(reps)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LANES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    lane = LANES[args.workload](args.seed)
    try:
        setup_main = timed_setup(lane)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        lane.teardown()
        print(*map(repr, setup_main))
        return 0

    def say(line: str) -> None:
        print(f"[{args.workload}] {line}", flush=True)

    lane.set_payload()
    tracer = Tracer() if args.trace else None
    untraced: List[Rep] = []
    reps: List[Rep] = []
    try:
        warm = lane.rep()
        if warm.failed:
            pass  # the run is wrong already: report it, time nothing
        elif args.trace:
            untraced = run_reps(lane, args.seconds / 2)
            lane.tracer = tracer
            lane.trace_targets()
            if hasattr(lane, "drains_s"):
                lane.drains_s.clear()
            reps = run_reps(lane, args.seconds / 2)
        else:
            reps = run_reps(lane, args.seconds,
                            min_ops=getattr(lane, "MIN_OPS", 0))
    finally:
        if tracer is not None:
            tracer.uninstall()
        lane.teardown()

    every = [warm] + untraced + reps
    attempted = sum(r.ops for r in every)
    failed = sum(r.failed for r in every)
    if tracer is not None:
        metrics = per_layer(lane, tracer, reps, goodput_MBps(untraced))
        units = dict(PER_LAYER)
        outdir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir,
                            f"{args.workload}-seed{args.seed}-spans.jsonl")
        tracer.write(path)
        say(f"{len(tracer.spans)} spans written to {path}")
    else:
        samples = [setup_main] + [setup_in_child(args.workload, args.seed)
                                  for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(reps, attempted, failed, samples, say)
        units = dict(END_TO_END)
    say(f"ops attempted {attempted}, failed {failed}")
    for name, value in metrics.items():
        say(f"{name} = {value:.6g} {units[name]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
