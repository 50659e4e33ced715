"""Differential: span topology parity between the sim and asyncio.

The same cascaded transfer (client -> one depot -> terminal server)
must produce the *same trace*, whichever driver carried it: identical
span names, identical parent edges, identical statuses, one shared
trace id — only span/trace identifiers and timestamps may differ.
This pins the tentpole contract that tracing is a property of the
protocol, not of any one I/O driver.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.asockets import AsyncDepot, AsyncLslClient, AsyncLslServer
from repro.lsl.client import lsl_connect
from repro.lsl.core import real_digest_factory
from repro.lsl.depot import Depot
from repro.lsl.server import LslServer
from repro.net.topology import Network
from repro.tcp.sockets import TcpStack
from repro.telemetry.tracing import TraceSpool

PAYLOAD = random.Random(2028).randbytes(50_000)

#: The canonical cascade topology: (name, parent span's name, status).
#: dial/handshake spans carry no status attr — closing them at all
#: means they succeeded (failure ends them with status="error").
EXPECTED = [
    ("client.dial", "client.session", None),
    ("client.handshake", "client.session", None),
    ("client.session", None, "ok"),
    ("depot.dial", "depot.relay", None),
    ("depot.relay", "client.session", "ok"),
    ("server.session", "depot.relay", "ok"),
]


def _normalize(spools):
    """Reduce span records to a driver-independent topology.

    Returns the sorted (name, parent-name, status) triples after
    asserting every record shares one trace id and every span ended.
    """
    records = [r for sp in spools for r in sp.tail()]
    assert all(sp.open_span_count() == 0 for sp in spools)
    ends = [r for r in records if r["rt"] == "e"]
    assert len({r["trace"] for r in ends}) == 1  # one trace id end to end
    name_of = {r["span"]: r["name"] for r in ends}
    return sorted(
        (r["name"], name_of.get(r["parent"]), r["attrs"].get("status"))
        for r in ends
    )


def _wait(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _spool_trio():
    return TraceSpool("client"), TraceSpool("depot"), TraceSpool("server")


def run_sim():
    net = Network(seed=7)
    for host in ("client", "d", "s"):
        net.add_host(host)
    net.add_link("client", "d", 1e9, 0.2)
    net.add_link("d", "s", 1e9, 0.2)
    net.finalize()
    stacks = {h: TcpStack(net.host(h)) for h in ("client", "d", "s")}
    spools = tuple(
        TraceSpool(svc, time_fn=lambda: net.sim.now)
        for svc in ("client", "depot", "server")
    )
    Depot(stacks["d"], 4000, tracer=spools[1])
    done = []

    def on_session(conn):
        conn.on_complete = done.append

    server = LslServer(
        stacks["s"], 5000, on_session=on_session, tracer=spools[2]
    )
    state = {"sent": 0}

    def pump():
        while state["sent"] < len(PAYLOAD):
            n = conn.send(PAYLOAD[state["sent"]:])
            if n == 0:
                return
            state["sent"] += n
        conn.finish()

    conn = lsl_connect(
        stacks["client"],
        [("d", 4000), ("s", 5000)],
        payload_length=len(PAYLOAD),
        on_connected=pump,
        tracer=spools[0],
    )
    conn.on_writable = pump
    net.sim.run(until=60.0)
    assert done and done[0].digest_ok is True, (done, server.errors)
    return _normalize(spools)


def run_asyncio():
    cs, ds, ss = _spool_trio()
    with AsyncLslServer(tracer=ss) as server:
        with AsyncDepot(tracer=ds) as depot:

            async def _run():
                client = await AsyncLslClient.open(
                    [depot.address, server.address],
                    payload_length=len(PAYLOAD),
                    digest_factory=real_digest_factory(PAYLOAD),
                    tracer=cs,
                )
                await client.sendall(PAYLOAD)
                await client.finish()
                client.close()

            asyncio.run(_run())
            assert server.wait_for_sessions(1)
            assert server.results[0].digest_ok is True
            assert _wait(lambda: ds.open_span_count() == 0)
            assert _wait(lambda: ss.open_span_count() == 0)
    return _normalize((cs, ds, ss))


def test_sim_topology_matches_canonical():
    assert run_sim() == EXPECTED


def test_asyncio_topology_matches_canonical():
    assert run_asyncio() == EXPECTED
