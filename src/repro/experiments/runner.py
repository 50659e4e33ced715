"""Command-line interface: ``repro-lsl``.

Examples::

    repro-lsl list                      # available figures + scenarios
    repro-lsl fig05                     # reproduce one figure
    repro-lsl fig28 --iterations 2 --max-size 16M
    repro-lsl transfer case1 --size 16M --mode both --seeds 5
    repro-lsl failover depot-failure --size 16M --crash-at 1.0
    repro-lsl plan case1 --size 64M     # what would the planner pick?
    repro-lsl workload case1 --rate 1.0 --sessions 10
    repro-lsl trace case1 --size 4M --out traces/   # capture for offline analysis
    repro-lsl collect traces/spans --out traces/fleet   # merge a fleet trace
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.stats import mean
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.scenarios import SCENARIOS
from repro.experiments.transfer import (
    run_direct_transfer,
    run_failover_transfer,
    run_lsl_transfer,
)
from repro.faults import DepotFault, FaultPlan
from repro.logistics.monitor import NetworkMonitor
from repro.logistics.planner import DepotPlanner
from repro.util.units import fmt_bytes, parse_size


def _positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer.

    Rejecting zero at parse time matters because a ``0`` that reaches a
    ``value or default`` truthiness check downstream is silently
    replaced by the default instead of being honored or refused — the
    same bug class as the old ``--seed 0`` regression.
    """
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive (got {value})")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive (got {value})")
    return value


def _apply_scaling(args: argparse.Namespace) -> None:
    # `is None` checks throughout: zero/empty values must be honored
    # (or rejected loudly by the parser), never silently dropped
    if getattr(args, "iterations", None) is not None:
        os.environ["REPRO_ITERATIONS"] = str(args.iterations)
    if getattr(args, "max_size", None) is not None:
        os.environ["REPRO_MAX_SIZE"] = args.max_size
    if getattr(args, "seed", None) is not None:  # seed 0 is a valid seed
        os.environ["REPRO_SEED"] = str(args.seed)


def _apply_telemetry(args: argparse.Namespace) -> None:
    """``--telemetry-out DIR``: every transfer in the command records
    metrics + a Chrome trace (open in https://ui.perfetto.dev) to DIR."""
    outdir = getattr(args, "telemetry_out", None)
    if outdir:
        os.environ["REPRO_TELEMETRY_OUT"] = outdir


def _add_telemetry_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--telemetry-out", type=str, default=None, metavar="DIR",
        help="write per-transfer metrics JSON and Chrome trace-event "
        "files (Perfetto/chrome://tracing) into DIR",
    )


def cmd_list(_: argparse.Namespace) -> int:
    print("figures:")
    for name in ALL_FIGURES:
        print(f"  {name}")
    print("scenarios:")
    for name, factory in SCENARIOS.items():
        print(f"  {name}: {factory().description}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    _apply_scaling(args)
    _apply_telemetry(args)
    fn = ALL_FIGURES[args.figure]
    result = fn()
    print(result)
    return 0


def cmd_transfer(args: argparse.Namespace) -> int:
    _apply_telemetry(args)
    if args.routes is not None:
        return _cmd_transfer_striped(args)
    if args.transport == "sockets":
        return _cmd_transfer_sockets(args)
    scenario = SCENARIOS[args.scenario]()
    size = parse_size(args.size)
    seeds = range(args.seeds)
    rows = []
    if args.mode in ("direct", "both"):
        tp = [
            run_direct_transfer(
                scenario, size, seed=s, payload=args.payload
            ).throughput_mbps
            for s in seeds
        ]
        rows.append(("direct", mean(tp)))
    if args.mode in ("lsl", "both"):
        tp = [
            run_lsl_transfer(
                scenario, size, seed=s, payload=args.payload
            ).throughput_mbps
            for s in seeds
        ]
        rows.append(("lsl", mean(tp)))
    print(f"{scenario.name} @ {fmt_bytes(size)} ({args.seeds} runs):")
    for mode, mbps in rows:
        print(f"  {mode:>6}: {mbps:.2f} Mbit/s")
    if len(rows) == 2 and rows[0][1] > 0:
        print(f"  gain: {100.0 * (rows[1][1] / rows[0][1] - 1.0):+.0f}%")
    return 0


def _cmd_transfer_striped(args: argparse.Namespace) -> int:
    """``transfer --routes N``: stripe across N sublinks at once.

    Sim transport deals stripes across the scenario's failover ladder
    (``--replan`` adds the online re-planner); sockets transport runs
    the real multipath stack on loopback, the first ``--depots`` routes
    each through their own ``lsd``.
    """
    size = parse_size(args.size)
    if args.transport == "sockets":
        from repro.experiments.socketsrun import run_socket_striped

        r = run_socket_striped(
            size,
            routes=args.routes,
            depots=min(args.depots, args.routes),
            redundancy=args.redundancy,
        )
        verdict = "complete" if r.completed else f"FAILED ({r.error})"
        digest = {True: "ok", False: "MISMATCH", None: "-"}[r.digest_ok]
        print(
            f"sockets striped @ {fmt_bytes(size)} over "
            f"{args.routes} route(s), redundancy {args.redundancy}: {verdict}"
        )
        print(
            f"  goodput {r.throughput_mbps:.2f} Mbit/s, digest {digest}, "
            f"per-sublink {[fmt_bytes(b) for b in r.per_sublink_bytes]}, "
            f"{r.redundant_stripes} redundant stripe(s)"
        )
        return 0 if r.completed and r.digest_ok is not False else 1

    from repro.experiments.striped import run_striped_transfer

    scenario = SCENARIOS[args.scenario]()
    seeds = range(args.seeds)
    results = [
        run_striped_transfer(
            scenario,
            size,
            n_routes=args.routes,
            redundancy=args.redundancy,
            replan=args.replan,
            seed=s,
        )
        for s in seeds
    ]
    ok = all(r.completed and r.digest_ok for r in results)
    print(
        f"{scenario.name} striped @ {fmt_bytes(size)} over {args.routes} "
        f"route(s), redundancy {args.redundancy} ({args.seeds} runs):"
    )
    print(
        f"  goodput {mean([r.throughput_mbps for r in results]):.2f} "
        f"Mbit/s, complete+digest ok: {ok}"
    )
    r0 = results[0]
    print(
        f"  per-sublink {[fmt_bytes(b) for b in r0.per_sublink_bytes]}, "
        f"{r0.redundant_stripes} redundant stripe(s), "
        f"{r0.migrations} migration(s), "
        f"{r0.resume_queries} resume round-trip(s)"
    )
    return 0 if ok else 1


def _cmd_transfer_sockets(args: argparse.Namespace) -> int:
    """``transfer --transport sockets``: loopback, real TCP.

    The scenario's simulated topology cannot be imposed on the kernel's
    loopback path, so only the depot *count* carries over; the point of
    this mode is exercising the actual artifact (client, ``lsd`` chain,
    server) rather than reproducing a figure.
    """
    from repro.experiments.socketsrun import run_socket_transfer

    size = parse_size(args.size)
    results = [
        run_socket_transfer(size, depots=args.depots)
        for _ in range(args.seeds)
    ]
    ok = all(r.completed and r.digest_ok for r in results)
    print(
        f"sockets @ {fmt_bytes(size)} via "
        f"{args.depots} depot(s) ({args.seeds} runs):"
    )
    print(
        f"  goodput {mean([r.throughput_mbps for r in results]):.2f} Mbit/s, "
        f"complete+digest ok: {ok}"
    )
    return 0 if ok else 1


def cmd_failover(args: argparse.Namespace) -> int:
    _apply_telemetry(args)
    import math

    if args.transport == "sockets":
        if args.routes is not None:
            print(
                "error: --routes with real sockets lives under "
                "'transfer --transport sockets --routes N'",
                file=sys.stderr,
            )
            return 2
        return _cmd_failover_sockets(args)
    scenario = SCENARIOS[args.scenario]()
    size = parse_size(args.size)
    if size <= 0:
        print("error: --size must be positive", file=sys.stderr)
        return 2
    plan = None
    if args.restart_after is not None and args.crash_at is None:
        print("error: --restart-after requires --crash-at", file=sys.stderr)
        return 2
    if args.crash_at is not None:
        if not scenario.depots:
            print(f"error: scenario {scenario.name} has no depot to crash",
                  file=sys.stderr)
            return 2
        outage = args.restart_after if args.restart_after is not None else math.inf
        try:
            plan = FaultPlan.of(
                DepotFault(scenario.depots[0], args.crash_at, outage)
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.routes is not None:
        return _cmd_failover_striped(args, scenario, size, plan)
    r = run_failover_transfer(scenario, size, fault_plan=plan, seed=args.seed)
    verdict = "complete" if r.completed else f"FAILED ({r.error})"
    digest = {True: "ok", False: "MISMATCH", None: "-"}[r.digest_ok]
    print(f"{scenario.name} @ {fmt_bytes(size)}: {verdict}")
    print(
        f"  goodput {r.throughput_mbps:.2f} Mbit/s over {r.duration_s:.2f}s, "
        f"{r.attempts} attempt(s), {r.failovers} failover(s), digest {digest}"
    )
    return 0 if r.completed and r.digest_ok is not False else 1


def _cmd_failover_striped(args, scenario, size, plan) -> int:
    """``failover --routes N``: survive the crash by striping instead
    of serial rebinding — with ``--redundancy duplicate-1`` the session
    completes with zero negotiated-resume round-trips."""
    from repro.experiments.striped import run_striped_transfer

    r = run_striped_transfer(
        scenario,
        size,
        n_routes=args.routes,
        redundancy=args.redundancy,
        fault_plan=plan,
        seed=args.seed,
    )
    verdict = "complete" if r.completed else f"FAILED ({r.error})"
    digest = {True: "ok", False: "MISMATCH", None: "-"}[r.digest_ok]
    print(
        f"{scenario.name} striped @ {fmt_bytes(size)} over {args.routes} "
        f"route(s), redundancy {args.redundancy}: {verdict}"
    )
    print(
        f"  goodput {r.throughput_mbps:.2f} Mbit/s over {r.duration_s:.2f}s, "
        f"digest {digest}, {r.redundant_stripes} redundant stripe(s), "
        f"{r.redeals} re-deal(s), {r.resume_queries} resume round-trip(s)"
    )
    return 0 if r.completed and r.digest_ok is not False else 1


def _cmd_failover_sockets(args: argparse.Namespace) -> int:
    """``failover --transport sockets``: crash a real depot mid-relay.

    The primary ``lsd`` is killed (live relays reset) once the server
    has received ``--crash-frac`` of the payload; the client rebinds
    through a backup depot with a negotiated resume. ``--crash-at`` /
    ``--restart-after`` are simulator-clock knobs and do not apply.
    """
    from repro.experiments.socketsrun import run_socket_failover

    if args.crash_at is not None or args.restart_after is not None:
        print(
            "error: --crash-at/--restart-after are simulator knobs; "
            "with --transport sockets use --crash-frac",
            file=sys.stderr,
        )
        return 2
    size = parse_size(args.size)
    r = run_socket_failover(size, crash_after_fraction=args.crash_frac)
    verdict = "complete" if r.completed else f"FAILED ({r.error})"
    digest = {True: "ok", False: "MISMATCH", None: "-"}[r.digest_ok]
    print(f"sockets @ {fmt_bytes(size)}: {verdict}")
    print(
        f"  goodput {r.throughput_mbps:.2f} Mbit/s over {r.duration_s:.2f}s, "
        f"{r.attempts} attempt(s), {r.failovers} failover(s), digest {digest}"
    )
    return 0 if r.completed and r.digest_ok is not False else 1


def cmd_workload(args: argparse.Namespace) -> int:
    _apply_telemetry(args)
    import random

    from repro.experiments.workload import (
        PoissonWorkload,
        run_workload,
        summarize_workload,
    )

    scenario = SCENARIOS[args.scenario]()
    wl = PoissonWorkload(
        rate_per_s=args.rate,
        mean_bytes=parse_size(args.mean_size),
        max_bytes=parse_size(args.max_size),
    )
    specs = wl.generate(args.sessions, random.Random(args.seed))
    outcomes = run_workload(scenario, specs, seed=args.seed)
    summary = summarize_workload(outcomes)
    print(
        f"{scenario.name}: {summary['completed']}/{summary['sessions']} "
        f"sessions complete, mean {summary['mean_mbps']:.2f} Mbit/s, "
        f"Jain fairness {summary['fairness']:.2f}, digests ok: "
        f"{summary['all_digests_ok']}"
    )
    for o in outcomes:
        status = (
            f"done in {o.duration_s:.2f}s ({o.throughput_mbps:.2f} Mbit/s)"
            if o.completed
            else "INCOMPLETE"
        )
        print(f"  t={o.spec.start_s:7.2f}s  {fmt_bytes(o.spec.nbytes):>6}  {status}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    _apply_telemetry(args)
    from repro.analysis.traceio import save_traces

    scenario = SCENARIOS[args.scenario]()
    size = parse_size(args.size)
    traces = []
    for seed in range(args.seeds):
        d = run_direct_transfer(scenario, size, seed=seed)
        l = run_lsl_transfer(scenario, size, seed=seed)
        d.client_trace.label = f"direct-s{seed}"
        l.client_trace.label = f"sublink1-s{seed}"
        traces.append(d.client_trace)
        traces.append(l.client_trace)
        for i, t in enumerate(l.sublink_traces):
            t.label = f"sublink{i + 2}-s{seed}"
            traces.append(t)
    paths = save_traces(traces, args.out)
    print(f"wrote {len(paths)} sender traces to {args.out}/")
    for p in paths:
        print(f"  {p.name}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.telemetry.diagnose import (
        diagnose_directory,
        render_text,
        write_flow_report,
    )
    from repro.telemetry.diagnose.schema import validate_flow_report_file

    if not os.path.isdir(args.telemetry_dir):
        print(f"error: {args.telemetry_dir} is not a directory", file=sys.stderr)
        return 2
    report = diagnose_directory(args.telemetry_dir)
    if not report["runs"]:
        print(
            f"error: no *.trace.json artifacts in {args.telemetry_dir} "
            "(run a transfer with --telemetry-out first)",
            file=sys.stderr,
        )
        return 1
    out = args.out or os.path.join(args.telemetry_dir, "flow_report.json")
    write_flow_report(report, out)
    print(render_text(report), end="")
    print(f"\nwrote {out}")
    problems = validate_flow_report_file(out)
    if problems:
        for p in problems:
            print(f"schema: {p}", file=sys.stderr)
        return 1
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    """Merge per-process trace spools into one fleet trace + SLO report.

    Sources are JSONL spill directories (positional, survive SIGKILL)
    and/or live exposition endpoints (``--url``, scraped over HTTP).
    Writes ``fleet_trace.json`` (open in https://ui.perfetto.dev) and
    ``fleet_report.json`` (schema:
    ``docs/schemas/fleet_report.schema.json``) and validates both.
    """
    from repro.telemetry.chrometrace import validate_trace_file
    from repro.telemetry.collect import (
        collect_dir,
        collect_urls,
        write_fleet_artifacts,
    )
    from repro.telemetry.diagnose.schema import validate_flow_report_file

    records = []
    health = None
    for directory in args.span_dirs:
        if not os.path.isdir(directory):
            print(f"error: {directory} is not a directory", file=sys.stderr)
            return 2
        records.extend(collect_dir(directory))
    if args.urls:
        scraped, health = collect_urls(args.urls, timeout=args.timeout)
        records.extend(scraped)
        for h in health:
            if not h["reachable"]:
                print(f"warning: {h['url']} unreachable", file=sys.stderr)
    if not records:
        print(
            "error: no span records found (run with --trace-dir / "
            "--expose-port first, then point collect at the spill "
            "directory or the /spans endpoints)",
            file=sys.stderr,
        )
        return 1
    paths = write_fleet_artifacts(records, args.out, health)
    with open(paths["report"]) as fp:
        report = json.load(fp)
    counts = report["counts"]
    gp = report["goodput"]
    print(
        f"{counts['traces']} trace(s) across "
        f"{len(report['processes'])} process(es): "
        f"{counts['sessions_ok']} ok, {counts['sessions_error']} error, "
        f"{counts['resumes']} resume(s), {counts['takeovers']} takeover(s)"
    )
    if gp["count"]:
        print(
            f"goodput over {gp['count']} session(s): "
            f"p50 {gp['p50_mbps']:.2f} / p99 {gp['p99_mbps']:.2f} / "
            f"mean {gp['mean_mbps']:.2f} Mbit/s"
        )
    print(f"wrote {paths['trace']}")
    print(f"wrote {paths['report']}")
    rc = 0
    trace_problems = validate_trace_file(paths["trace"])
    for problem in trace_problems:
        print(f"trace: {problem}", file=sys.stderr)
        rc = 1
    schema = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))),
        "docs", "schemas", "fleet_report.schema.json",
    )
    if os.path.exists(schema):
        for problem in validate_flow_report_file(paths["report"], schema):
            print(f"schema: {problem}", file=sys.stderr)
            rc = 1
    return rc


def cmd_lsd(args: argparse.Namespace) -> int:
    """Run a live real-socket depot daemon with exposition.

    Serves LSL relaying on ``--port`` and Prometheus-text ``/metrics``
    + ``/healthz`` + ``/events`` on ``--expose-port``. With
    ``--telemetry-dir``, protocol events additionally spill to
    ``lsd-events.jsonl`` there and ``SIGUSR1`` snapshots the counters
    and event ring into the directory without stopping the daemon.

    ``--workers N`` / ``--session-store SPEC`` switch to cluster mode:
    N store-backed depot workers behind one port (``memory`` stores
    stay in-process, ``file:``/``redis://`` spawn worker subprocesses)
    with one aggregated exposition endpoint for the fleet.
    """
    import signal
    import threading

    from repro.telemetry.obs import JsonEventLog, install_sigusr1_dump
    from repro.telemetry.tracing import TraceSpool

    events_path = None
    if args.telemetry_dir:
        os.makedirs(args.telemetry_dir, exist_ok=True)
        events_path = os.path.join(args.telemetry_dir, "lsd-events.jsonl")
    event_log = JsonEventLog(capacity=args.event_capacity, path=events_path)
    tracer = None
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)

    cluster_mode = (
        args.workers > 1
        or args.session_store is not None
        or args.session_ttl is not None
    )
    if cluster_mode:
        spec = args.session_store or "memory"
        if spec == "memory":
            from repro.cluster import LocalCluster

            service = LocalCluster(
                args.workers,
                args.host,
                args.port,
                session_ttl=args.session_ttl,
                observer=event_log.protocol_observer("cluster"),
                trace_dir=args.trace_dir,
            )
        else:
            from repro.cluster import WorkerPool

            service = WorkerPool(
                args.workers,
                args.host,
                args.port,
                store_spec=spec,
                session_ttl=args.session_ttl,
                trace_dir=args.trace_dir,
            )
        snapshot = service.worker_counters
        banner = (
            f"lsd cluster ({args.workers} workers, "
            f"store {spec}, {service.strategy}) listening on "
            f"{service.address[0]}:{service.address[1]}"
        )
    else:
        from repro.asockets import AsyncDepot

        if args.trace_dir:
            tracer = TraceSpool(
                service="lsd",
                path=os.path.join(args.trace_dir, "spans-lsd.jsonl"),
            )
        service = AsyncDepot(
            args.host, args.port,
            observer=event_log.protocol_observer("depot"),
            tracer=tracer,
        )
        snapshot = service.counters.snapshot
        banner = (
            "lsd listening on "
            f"{service.address[0]}:{service.address[1]}"
        )
    exposer = service.expose(args.host, args.expose_port, event_log=event_log)
    uninstall = None
    if args.telemetry_dir:
        uninstall = install_sigusr1_dump(
            snapshot, args.telemetry_dir, event_log
        )
    print(banner, flush=True)
    print(f"exposition at {exposer.url}/metrics", flush=True)
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    try:
        while not stop.wait(0.2):
            pass
    finally:
        if uninstall is not None:
            uninstall()
        exposer.shutdown()
        service.shutdown()
        event_log.close()
        if tracer is not None:
            tracer.close()
    print("lsd stopped", flush=True)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    scenario = SCENARIOS[args.scenario]()
    env = scenario.build(seed=0)
    monitor = NetworkMonitor(env.net)
    planner = DepotPlanner(monitor, list(scenario.depots))
    size = parse_size(args.size) if args.size else None
    plans = planner.enumerate_routes(scenario.client, scenario.server, size)
    best = planner.plan(scenario.client, scenario.server, size)
    print(f"candidate routes {scenario.client} -> {scenario.server}:")
    for plan in plans:
        marker = " <= chosen" if plan.hops == best.hops else ""
        extra = (
            f", predicted transfer {plan.predicted_transfer_s:.2f}s"
            if plan.predicted_transfer_s is not None
            else ""
        )
        print(f"  {plan.describe()}{extra}{marker}")
    return 0


def _add_socket_flags(p: argparse.ArgumentParser) -> None:
    """``--transport``: run over real loopback sockets instead of the
    simulator."""
    p.add_argument(
        "--transport", choices=("sim", "sockets"), default="sim",
        help="'sim' runs the discrete-event simulator (default); "
        "'sockets' runs the real client/lsd/server stack on loopback",
    )


def _redundancy_mode(text: str) -> str:
    """Argparse type: a redundancy spec the striping core accepts."""
    from repro.lsl.core import parse_redundancy

    try:
        parse_redundancy(text)
    except Exception as exc:  # noqa: BLE001 - argparse renders message
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _add_striped_flags(
    p: argparse.ArgumentParser, replan: bool = False
) -> None:
    """``--routes N --redundancy MODE``: stripe across several routes."""
    p.add_argument(
        "--routes", type=_positive_int, default=None, metavar="N",
        help="stripe the payload across N concurrent sublinks "
        "(default: one route, no striping)",
    )
    p.add_argument(
        "--redundancy", type=_redundancy_mode, default="none", metavar="MODE",
        help="striped redundancy: 'none', 'duplicate-K' (each stripe "
        "on K+1 distinct sublinks), or 'parity' (XOR block per group)",
    )
    if replan:
        p.add_argument(
            "--replan", action="store_true",
            help="run the online re-planner: probe candidate legs, "
            "re-rank on every sample, migrate sublinks whose route "
            "falls out of the top N",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lsl",
        description="Reproduce the Logistical Session Layer evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list figures and scenarios").set_defaults(
        fn=cmd_list
    )

    p_fig = sub.add_parser("figure", help="reproduce one figure")
    p_fig.add_argument("figure", choices=sorted(ALL_FIGURES))
    p_fig.add_argument("--iterations", type=_positive_int)
    p_fig.add_argument("--max-size", type=str)
    p_fig.add_argument("--seed", type=int)
    _add_telemetry_flag(p_fig)
    p_fig.set_defaults(fn=cmd_figure)

    p_tr = sub.add_parser("transfer", help="run one measured transfer")
    p_tr.add_argument("scenario", choices=sorted(SCENARIOS))
    p_tr.add_argument("--size", default="16M")
    p_tr.add_argument("--mode", choices=("direct", "lsl", "both"), default="both")
    p_tr.add_argument("--seeds", type=_positive_int, default=3)
    p_tr.add_argument(
        "--payload", choices=("virtual", "real"), default="virtual",
        help="'virtual' moves lengths + running checksums only (bytes-"
        "free, scales to arbitrary sizes); 'real' materializes pattern "
        "bytes end to end and verifies the MD5 over actual content",
    )
    _add_socket_flags(p_tr)
    p_tr.add_argument(
        "--depots", type=_positive_int, default=1, metavar="N",
        help="depot chain length for --transport sockets",
    )
    _add_striped_flags(p_tr, replan=True)
    _add_telemetry_flag(p_tr)
    p_tr.set_defaults(fn=cmd_transfer)

    p_fo = sub.add_parser(
        "failover",
        help="fault-tolerant transfer, optionally crashing the primary depot",
    )
    p_fo.add_argument("scenario", choices=sorted(SCENARIOS))
    p_fo.add_argument("--size", default="16M")
    p_fo.add_argument(
        "--crash-at", type=float, default=None, metavar="SECONDS",
        help="crash the first route depot at this sim time",
    )
    p_fo.add_argument(
        "--restart-after", type=float, default=None, metavar="SECONDS",
        help="bring the crashed depot back after this outage",
    )
    p_fo.add_argument("--seed", type=int, default=0)
    _add_socket_flags(p_fo)
    p_fo.add_argument(
        "--crash-frac", type=_positive_float, default=0.25, metavar="FRAC",
        help="with --transport sockets: crash the primary depot once "
        "this fraction of the payload has arrived at the server",
    )
    _add_striped_flags(p_fo)
    _add_telemetry_flag(p_fo)
    p_fo.set_defaults(fn=cmd_failover)

    p_dg = sub.add_parser(
        "diagnose",
        help="explain transfers captured with --telemetry-out: "
        "per-sublink time-in-state, bottleneck, cascade advantage",
    )
    p_dg.add_argument("telemetry_dir", metavar="TELEMETRY-DIR")
    p_dg.add_argument(
        "--out", default=None, metavar="FILE",
        help="machine-readable report path "
        "(default: TELEMETRY-DIR/flow_report.json)",
    )
    p_dg.set_defaults(fn=cmd_diagnose)

    p_lsd = sub.add_parser(
        "lsd",
        help="run a live real-socket depot with /metrics + /healthz",
    )
    p_lsd.add_argument("--host", default="127.0.0.1")
    p_lsd.add_argument("--port", type=int, default=0)
    p_lsd.add_argument(
        "--expose-port", type=int, default=0, metavar="PORT",
        help="HTTP port for /metrics, /healthz, /events (0 = ephemeral)",
    )
    p_lsd.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="spill protocol events to DIR/lsd-events.jsonl; SIGUSR1 "
        "dumps counters + event ring there",
    )
    p_lsd.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="spill distributed-trace spans to DIR (one crash-durable "
        "JSONL per process); merge later with 'repro-lsl collect DIR'",
    )
    p_lsd.add_argument(
        "--event-capacity", type=int, default=1024, metavar="N",
        help="size of the in-memory event ring",
    )
    p_lsd.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="cluster mode: N store-backed depot workers sharing the "
        "listen port (kernel SO_REUSEPORT dispatch, FD-handoff "
        "fallback) with aggregated per-worker /metrics",
    )
    p_lsd.add_argument(
        "--session-store", default=None, metavar="SPEC",
        help="externalize terminal-session state so any worker can "
        "resume any session: 'memory' (in-process), 'file:DIR' "
        "(shared directory, multi-process), or 'redis://host:port'",
    )
    p_lsd.add_argument(
        "--session-ttl", type=_positive_float, default=None,
        metavar="SECONDS",
        help="expire suspended sessions never rebound within this "
        "idle window (default: keep forever)",
    )
    p_lsd.set_defaults(fn=cmd_lsd)

    p_col = sub.add_parser(
        "collect",
        help="merge per-process trace spools into one Perfetto fleet "
        "trace + fleet_report.json with goodput SLO scoring",
    )
    p_col.add_argument(
        "span_dirs", nargs="*", metavar="SPAN-DIR",
        help="directories of *.jsonl span spills (from --trace-dir)",
    )
    p_col.add_argument(
        "--url", dest="urls", action="append", default=[], metavar="URL",
        help="live exposition endpoint to scrape (/spans + /healthz); "
        "repeatable",
    )
    p_col.add_argument(
        "--out", default="fleet", metavar="DIR",
        help="output directory for fleet_trace.json + fleet_report.json",
    )
    p_col.add_argument(
        "--timeout", type=_positive_float, default=2.0, metavar="SECONDS",
        help="per-request HTTP timeout for --url scrapes",
    )
    p_col.set_defaults(fn=cmd_collect)

    p_plan = sub.add_parser("plan", help="show the depot planner's choice")
    p_plan.add_argument("scenario", choices=sorted(SCENARIOS))
    p_plan.add_argument("--size", type=str, default=None)
    p_plan.set_defaults(fn=cmd_plan)

    p_wl = sub.add_parser("workload", help="Poisson session workload")
    p_wl.add_argument("scenario", choices=sorted(SCENARIOS))
    p_wl.add_argument("--rate", type=_positive_float, default=1.0)
    p_wl.add_argument("--sessions", type=int, default=8)
    p_wl.add_argument("--mean-size", default="512K")
    p_wl.add_argument("--max-size", default="4M")
    p_wl.add_argument("--seed", type=int, default=0)
    _add_telemetry_flag(p_wl)
    p_wl.set_defaults(fn=cmd_workload)

    p_tc = sub.add_parser(
        "trace", help="capture sender traces for offline analysis"
    )
    p_tc.add_argument("scenario", choices=sorted(SCENARIOS))
    p_tc.add_argument("--size", default="4M")
    p_tc.add_argument("--seeds", type=_positive_int, default=1)
    p_tc.add_argument("--out", default="traces")
    _add_telemetry_flag(p_tc)
    p_tc.set_defaults(fn=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # allow "repro-lsl fig05" as shorthand for "repro-lsl figure fig05"
    if argv and argv[0] in ALL_FIGURES:
        argv = ["figure", *argv]
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
