"""Differential: striped transfers across both drivers.

The striping logic lives once, in the sans-I/O machines of
:mod:`repro.lsl.core.striping`; the simulator and asyncio-socket
drivers are thin adapters over them. So for the same payload
and redundancy mode, every driver must deliver a **byte-identical**
reassembled payload with the end-to-end MD5 verified — and under a
mid-transfer path loss with ``duplicate-1`` redundancy, every driver
must complete with **zero** negotiated-resume round-trips, where the
single-path failover baseline needs at least one.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.experiments import run_failover_transfer, run_striped_transfer
from repro.experiments.scenarios import SCENARIOS
from repro.faults import DepotFault, FaultPlan
from repro.lsl.striped import StripedClient, StripedLslServer
from repro.net.topology import Network
from repro.tcp.sockets import TcpStack

MIB = 1 << 20
PAYLOAD = random.Random(2001).randbytes(1_500_000)
REDUNDANCIES = ("none", "duplicate-1", "parity")


# -- one striped transfer per driver -----------------------------------------


def sim_striped(payload: bytes, redundancy: str) -> tuple[bytes, bool]:
    net = Network(seed=3)
    for h in ("client", "server"):
        net.add_host(h)
    net.add_link("client", "server", 50e6, 15.0)
    net.finalize()
    stacks = {h: TcpStack(net.host(h)) for h in ("client", "server")}
    done = {}
    delivered = bytearray()

    def on_session(sess):
        sess.on_data = lambda chunk: delivered.extend(chunk.data)
        sess.on_complete = lambda s: done.update(ok=s.digest_ok)
        sess.on_error = lambda e: done.setdefault("err", e)

    StripedLslServer(stacks["server"], 5000, on_session)
    StripedClient(
        stacks["client"],
        [[("server", 5000)]] * 3,  # parallel-TCP style: 3 direct routes
        payload_length=len(payload),
        data=payload,
        stripe_bytes=128 * 1024,
        redundancy=redundancy,
    )
    net.sim.run(until=300.0)
    assert "err" not in done, done
    assert done.get("ok") is True
    return bytes(delivered), True


def async_striped(payload: bytes, redundancy: str) -> tuple[bytes, bool]:
    from repro.asockets.striped import AsyncStripedServer, send_striped

    with AsyncStripedServer("127.0.0.1") as server:
        routes = [[server.address]] * 3

        async def _run():
            await send_striped(
                routes, payload, redundancy=redundancy, sndbuf=64 * 1024
            )

        asyncio.run(_run())
        assert server.wait_for_sessions(1, timeout=30.0)
        result = server.results[0]
    return result.payload, bool(result.digest_ok)


@pytest.mark.parametrize("redundancy", REDUNDANCIES)
def test_all_drivers_deliver_byte_identical_payload(redundancy):
    sim_bytes, sim_md5 = sim_striped(PAYLOAD, redundancy)
    aio_bytes, aio_md5 = async_striped(PAYLOAD, redundancy)
    assert sim_md5 and aio_md5
    assert sim_bytes == PAYLOAD
    assert aio_bytes == PAYLOAD  # hence byte-identical


# -- zero-resume degradation vs the failover baseline ------------------------


def test_sim_duplicate1_depot_kill_needs_zero_resume_roundtrips():
    """The acceptance comparison on the simulator: same mid-transfer
    depot crash; duplicate-1 striping completes with zero resume
    round-trips, serial failover needs at least one."""
    sc = SCENARIOS["depot-failure"]()
    striped = run_striped_transfer(
        sc, 8 * MIB, n_routes=3, redundancy="duplicate-1",
        fault_plan=FaultPlan.of(DepotFault(sc.depots[0], 0.5)),
        deadline_s=120.0,
    )
    assert striped.completed and striped.digest_ok
    assert striped.resume_queries == 0
    assert "resume-granted" not in striped.event_counts

    baseline = run_failover_transfer(
        sc, 8 * MIB,
        fault_plan=FaultPlan.of(DepotFault(sc.depots[0], 0.5)),
        deadline_s=120.0,
    )
    assert baseline.completed and baseline.digest_ok
    assert baseline.failovers >= 1  # >= 1 RESUME_QUERY round-trip


def test_asyncio_duplicate1_sublink_crash_needs_zero_resume_roundtrips():
    """Same claim on real sockets: one route dies mid-transfer (RST
    from a crashing relay); the duplicate-covered session degrades and
    completes — no rebind, no resume query, payload intact."""
    from repro.asockets.striped import AsyncStripedServer, send_striped
    from tests.sockets.test_striped_sockets import _CrashingRelay

    events = []
    payload = random.Random(5).randbytes(16 * MIB)
    with AsyncStripedServer("127.0.0.1") as server:
        relay = _CrashingRelay()
        routes = [
            [relay.address, server.address],  # dies mid-transfer
            [server.address],
            [server.address],
        ]
        report = asyncio.run(
            send_striped(
                routes, payload, redundancy="duplicate-1",
                sndbuf=64 * 1024, observer=events.append,
            )
        )
        assert server.wait_for_sessions(1, timeout=30.0)
        result = server.results[0]
    assert report.sublink_errors, "the crashed route must be observed"
    assert result.payload == payload and result.digest_ok
    assert not any("resume" in e.kind or "rebind" in e.kind for e in events)
