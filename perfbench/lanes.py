"""The four benchmark lanes.

Each lane builds its scenario or services once in :meth:`Lane.setup`,
then runs identical reps. A rep returns a :class:`Rep` with the ops it
attempted (transfers, or sessions on ``session_churn``), how many
failed verification, the verified payload bytes and per-op latencies.
Every ``repro`` import happens inside ``setup`` so that importing the
layers counts toward ``setup_s``.

Lanes whose time goes mostly to the interpreter (``sim_case1``,
``striped_parity``, ``session_churn``) are host-corrected: a probe is
timed right before and right after every rep and the rep's wall and
CPU times are scaled by ``PROBE_REF_S / mean(before, after)``. The
probe after one rep is the probe before the next. ``cascade_bulk``,
whose time goes to MD5 and kernel copies on both cores, reports raw
times: dividing it by the probe widened its spread.
"""

from __future__ import annotations

import asyncio
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.probe import PROBE_REF_S, live_threads, timed_probe
from perfbench.stats import host_corrected

#: Give up on any one op after this long; a hang is a failed op.
OP_TIMEOUT_S = 20.0


@dataclass
class Rep:
    ops: int
    failed: int
    nbytes: int
    wall_s: float
    cpu_s: float
    #: Per-op latencies; host-corrected on corrected lanes.
    latencies_s: List[float]
    #: Host-corrected lanes only: corrected wall and CPU time, and the
    #: mean of the probes around the rep.
    corrected_s: Optional[float] = None
    corrected_cpu_s: Optional[float] = None
    probe_s: Optional[float] = None
    #: Exact per-rep counts a lane exposes to the traced run.
    counts: Dict[str, float] = field(default_factory=dict)


class Lane:
    name = ""
    #: Scale rep times by the host probe (see the module docstring).
    CORRECTED = False
    #: Seconds to wait for :meth:`busy` to clear before each probe.
    IDLE_WAIT_S = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Set by the traced run before :meth:`trace_targets`.
        self.tracer: Any = None
        self._last_probe: Optional[float] = None

    def setup(self) -> None:
        raise NotImplementedError

    def set_payload(self) -> None:
        """Make the seeded input (outside the set-up timing)."""

    def rep(self) -> Rep:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def trace_targets(self) -> None:
        """Install the traced run's wrappers on ``self.tracer``."""

    def busy(self) -> List[str]:
        """Program work in flight; a probe runs only when this is empty."""
        return live_threads()

    def _measure(self, fn: Callable[[], Any], **fields: Any) -> Tuple[Any, Rep]:
        """Run ``fn`` as one timed rep; ``fields`` fill the rest of the
        returned :class:`Rep`, whose latencies the caller sets."""
        before = None
        if self.CORRECTED:
            before = self._last_probe
            if before is None:
                before = timed_probe(self.busy, self.IDLE_WAIT_S)
        t0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        rep = Rep(wall_s=wall, cpu_s=cpu, latencies_s=[], **fields)
        if before is not None:
            after = timed_probe(self.busy, self.IDLE_WAIT_S)
            self._last_probe = after
            rep.corrected_s = host_corrected(wall, before, after, PROBE_REF_S)
            rep.corrected_cpu_s = host_corrected(cpu, before, after,
                                                 PROBE_REF_S)
            rep.probe_s = (before + after) / 2.0
        return result, rep


def _op_failed(exc: BaseException) -> BaseException:
    """Report a failed op on stderr; the caller counts it."""
    traceback.print_exception(exc, file=sys.stderr)
    return exc


def _payload(seed: int, nbytes: int) -> bytes:
    return random.Random(seed).randbytes(nbytes)


# ---------------------------------------------------------------------------
# sim_case1


#: Simulated durations (LSL, direct) of the 4 MiB Case-1 pair at seed 0.
SIM_PIN_SEED = 0
SIM_PIN = (2.052984676832804, 3.639145120000006)


class SimLane(Lane):
    """Seeded Case-1 (UCSB to UIUC via Denver) LSL + direct pair, 4 MiB,
    virtual payload."""

    name = "sim_case1"
    NBYTES = 4 << 20
    CORRECTED = True

    def setup(self) -> None:
        from repro.experiments.scenarios import case1_uiuc_via_denver
        from repro.experiments import transfer

        self._transfer = transfer
        self.scenario = case1_uiuc_via_denver()
        self.expected: Optional[tuple] = (
            SIM_PIN if self.seed == SIM_PIN_SEED else None
        )

    def _pair(self):
        t = self._transfer
        lsl_env = self.scenario.build(self.seed)
        lsl = t.run_lsl_transfer(self.scenario, self.NBYTES, seed=self.seed,
                                 env=lsl_env)
        direct_env = self.scenario.build(self.seed)
        direct = t.run_direct_transfer(self.scenario, self.NBYTES,
                                       seed=self.seed, env=direct_env)
        return lsl, direct, (lsl_env.net.sim, direct_env.net.sim)

    def rep(self) -> Rep:
        (lsl, direct, sims), rep = self._measure(
            self._pair, ops=1, failed=0, nbytes=2 * self.NBYTES)
        rep.latencies_s = [rep.corrected_s]
        got = (lsl.duration_s, direct.duration_s)
        if self.expected is None:
            self.expected = got
        if not (lsl.completed and direct.completed
                and lsl.digest_ok is True and got == self.expected):
            rep.failed, rep.nbytes = 1, 0
        rep.counts = {
            "sim.events": sum(s.events_processed for s in sims),
            "sim.compactions": sum(s.compactions for s in sims),
            "tcp.retransmits": lsl.retransmits + direct.retransmits,
        }
        return rep

    def trace_targets(self) -> None:
        from repro.sim.kernel import Simulator
        from repro.lsl.core.digest import StreamDigest

        self.tracer.wrap(Simulator, "run", "sim.run")
        _wrap_digest(self.tracer, StreamDigest)


# ---------------------------------------------------------------------------
# shared socket-lane plumbing


def _wrap_digest(tracer, StreamDigest) -> None:
    tracer.wrap(StreamDigest, "update", "core.digest",
                on_call=lambda _self, data: tracer.count(
                    "core.digest_bytes", len(data)))


def _wrap_socket_layers(tracer) -> None:
    """Wrappers shared by every real-socket lane."""
    from repro.asockets.client import AsyncLslClient
    from repro.lsl.core.digest import StreamDigest
    from repro.lsl.core.wire import HeaderAccumulator, LslHeader

    _wrap_digest(tracer, StreamDigest)
    tracer.wrap(HeaderAccumulator, "feed", "core.header")
    tracer.wrap(LslHeader, "encode", "core.header")
    tracer.wrap(LslHeader, "decode", "core.header")
    tracer.wrap(AsyncLslClient, "connect", "asockets.connect")
    tracer.wrap(AsyncLslClient, "sendall", "asockets.sendall")
    tracer.wrap(AsyncLslClient, "finish", "asockets.finish")


# The servers under test keep each finished session's delivered payload
# for their whole lifetime (AsyncLslServer through the closed record in
# its session registry, AsyncStripedServer in its session map). Left
# alone, peak RSS would grow with the number of reps, so a faster
# program would read as a memory regression. The lanes release that
# state after verifying each rep and report ``asockets.sessions_retained``
# (finished sessions still held, per op), which drops to 0 once the
# servers release it themselves.


class _SocketLane(Lane):
    """Client event loop on the main thread; services on their own loop
    threads. Receivers report verified results through ``_arrived``."""

    #: Services may still be closing the last rep's sessions.
    IDLE_WAIT_S = 2.0

    def _start_loop(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._waiting: Dict[bytes, asyncio.Future] = {}
        self.drains_s: List[float] = []
        #: Services shut down in reverse order at teardown.
        self.services: List[Any] = []
        #: Services whose session tasks must be gone before a probe.
        self.loops: List[Any] = []

    def busy(self) -> List[str]:
        return [repr(s) for s in self.loops if s.active_tasks]

    def _arrived(self, result) -> None:
        """Receiver callback, on a service thread."""
        at = time.perf_counter()
        self.loop.call_soon_threadsafe(self._resolve, result, at)

    def _resolve(self, result, at: float) -> None:
        fut = self._waiting.pop(result.session_id, None)
        if fut is not None and not fut.done():
            fut.set_result((result, at))

    def _expect(self, session_id: bytes) -> asyncio.Future:
        fut = self.loop.create_future()
        self._waiting[session_id] = fut
        return fut

    async def _await_result(self, fut, finished_at: float):
        result, at = await asyncio.wait_for(fut, OP_TIMEOUT_S)
        self.drains_s.append(max(0.0, at - finished_at))
        return result

    def _run(self, coro_fn):
        """Run one op on the client loop; an exception is a failed op."""
        try:
            return self.loop.run_until_complete(coro_fn())
        except Exception as exc:
            return _op_failed(exc)

    def _failures(self) -> int:
        """Failed relays at the depots plus sessions the server refused."""
        return sum(d.counters.sessions_failed for d in self.depots) + len(
            self.server.errors)

    @staticmethod
    def _verified(result, payload: bytes) -> bool:
        return result.digest_ok is True and result.payload == payload

    def teardown(self) -> None:
        for service in reversed(self.services):
            service.shutdown()
        self.loop.close()


# ---------------------------------------------------------------------------
# cascade_bulk


class CascadeLane(_SocketLane):
    """asyncio client -> 2 AsyncDepots -> AsyncLslServer, 32 MiB real
    payload with MD5, one transfer in flight."""

    name = "cascade_bulk"
    NBYTES = 32 << 20
    PIECE = 1 << 20

    def setup(self) -> None:
        from repro.asockets.client import AsyncLslClient
        from repro.asockets.depot import AsyncDepot
        from repro.asockets.server import AsyncLslServer

        self._client_cls = AsyncLslClient
        self._start_loop()
        self.depots = [AsyncDepot(), AsyncDepot()]
        self.server = AsyncLslServer(on_session=self._arrived)
        self.services = self.loops = self.depots + [self.server]
        self.route = [d.address for d in self.depots] + [self.server.address]
        self.rng = random.Random(self.seed)

    def set_payload(self) -> None:
        self.payload = _payload(self.seed, self.NBYTES)

    async def _transfer(self):
        payload = memoryview(self.payload)
        client = self._client_cls(self.route, payload_length=self.NBYTES,
                                  rng=self.rng)
        fut = self._expect(client.header.session_id)
        try:
            await client.connect()
            for off in range(0, self.NBYTES, self.PIECE):
                await client.sendall(payload[off:off + self.PIECE])
            await client.finish()
            finished = time.perf_counter()
        finally:
            client.close()
        return await self._await_result(fut, finished)

    def rep(self) -> Rep:
        result, rep = self._measure(lambda: self._run(self._transfer),
                                    ops=1, failed=0, nbytes=self.NBYTES)
        rep.latencies_s = [rep.wall_s]
        rep.counts = {"asockets.failures": self._failures()}
        if isinstance(result, Exception):
            rep.failed, rep.nbytes = 1, 0
            return rep
        if not self._verified(result, self.payload):
            rep.failed, rep.nbytes = 1, 0
        self.server.results.remove(result)
        record = self.server.registry.get(result.session_id)
        rep.counts["asockets.sessions_retained"] = int(
            getattr(record, "attachment", None) is not None)
        self.server.registry.forget(result.session_id)
        return rep

    def trace_targets(self) -> None:
        _wrap_socket_layers(self.tracer)


# ---------------------------------------------------------------------------
# striped_parity


class StripedLane(_SocketLane):
    """``send_striped`` over 2 sublinks, each through its own AsyncDepot,
    parity redundancy, 8 MiB real payload."""

    name = "striped_parity"
    NBYTES = 8 << 20
    SUBLINKS = 2
    CORRECTED = True

    def setup(self) -> None:
        from repro.asockets.depot import AsyncDepot
        from repro.asockets.striped import AsyncStripedServer, send_striped
        from repro.lsl.session import new_session_id

        self._send = send_striped
        self._new_id = new_session_id
        self._start_loop()
        self.depots = [AsyncDepot() for _ in range(self.SUBLINKS)]
        self.server = AsyncStripedServer(on_session=self._arrived)
        self.services = self.loops = self.depots + [self.server]
        self.routes = [[d.address, self.server.address] for d in self.depots]
        self.rng = random.Random(self.seed)

    def set_payload(self) -> None:
        self.payload = _payload(self.seed, self.NBYTES)

    async def _transfer(self):
        sid = self._new_id(self.rng)
        fut = self._expect(sid)
        report = await self._send(self.routes, self.payload, session_id=sid,
                                  redundancy="parity")
        return report, await self._await_result(fut, time.perf_counter())

    def rep(self) -> Rep:
        out, rep = self._measure(lambda: self._run(self._transfer),
                                 ops=1, failed=0, nbytes=self.NBYTES)
        rep.latencies_s = [rep.corrected_s]
        failures = self._failures()
        rep.counts = {"asockets.failures": failures}
        if isinstance(out, Exception):
            rep.failed, rep.nbytes = 1, 0
            return rep
        report, result = out
        if not self._verified(result, self.payload):
            rep.failed, rep.nbytes = 1, 0
        self.server.results.remove(result)
        retained = self.server._striped.pop(result.session_id, None)
        per = report.per_sublink_bytes
        rep.counts.update({
            "asockets.failures": failures + len(report.sublink_errors),
            "asockets.sessions_retained": int(retained is not None),
            "core.redundant_stripes": report.redundant_stripes,
            # 1.0 when the sublinks carried equal shares, N when one of
            # N carried everything
            "core.sublink_skew": max(per) * len(per) / max(1, sum(per)),
        })
        return rep

    def trace_targets(self) -> None:
        from repro.lsl.core.striping import (
            KIND_PARITY, StripeAssembler, StripeScheduler)

        tracer = self.tracer
        _wrap_socket_layers(tracer)

        def dealt(assignment) -> None:
            if assignment is not None and assignment.kind == KIND_PARITY:
                tracer.count("core.parity_blocks")

        tracer.wrap(StripeScheduler, "next_assignment", "core.stripe_deal",
                    on_result=dealt)
        tracer.wrap(StripeAssembler, "feed", "core.stripe_assemble")
        tracer.wrap(StripeAssembler, "feed_bytes", "core.stripe_assemble")


# ---------------------------------------------------------------------------
# session_churn


#: The session-store calls timed on ``session_churn``.
STORE_OPS = ("create", "load", "claim", "append_payload", "finish")


class ChurnLane(_SocketLane):
    """64 KiB sessions, closed loop with 2 in flight from one event loop,
    through one AsyncDepot to a 2-worker asyncio LocalCluster on a
    MiniRedis RESP store."""

    name = "session_churn"
    NBYTES = 64 << 10
    IN_FLIGHT = 2
    CORRECTED = True
    #: Sessions per rep; reps repeat until the run's time is up.
    BATCH = 100
    #: Minimum sessions per run: at least 10 lie beyond the p99.
    MIN_OPS = 1000

    def setup(self) -> None:
        from repro.asockets.client import AsyncLslClient
        from repro.asockets.depot import AsyncDepot
        from repro.cluster.miniredis import MiniRedis
        from repro.cluster.pool import LocalCluster
        from repro.cluster.resp import RedisProtocolStore

        self._client_cls = AsyncLslClient
        self._start_loop()
        self.redis = MiniRedis()
        store = RedisProtocolStore(*self.redis.address)
        self.cluster = LocalCluster(2, driver="asyncio", store=store)
        for node in self.cluster.nodes:
            node.on_session = self._arrived
        self.depot = AsyncDepot()
        self.services = [self.redis, self.cluster, self.depot]
        self.loops = [self.depot] + self.cluster.nodes
        self.route = [self.depot.address, self.cluster.address]
        self.rng = random.Random(self.seed)

    def set_payload(self) -> None:
        self.payload = _payload(self.seed, self.NBYTES)

    async def _session(self) -> float:
        t0 = time.perf_counter()
        client = self._client_cls(self.route, payload_length=self.NBYTES,
                                  rng=self.rng)
        fut = self._expect(client.header.session_id)
        try:
            await client.connect()
            await client.sendall(self.payload)
            await client.finish()
            finished = time.perf_counter()
        finally:
            client.close()
        result = await self._await_result(fut, finished)
        latency = time.perf_counter() - t0
        for node in self.cluster.nodes:
            if result in node.results:
                node.results.remove(result)
        if not self._verified(result, self.payload):
            raise ValueError("session payload or digest mismatch")
        return latency

    async def _batch(self) -> List[float]:
        """Latencies of the sessions that verified; the batch stops at
        the first failure and the sessions it did not run count as
        failed."""
        latencies: List[float] = []
        todo = iter(range(self.BATCH))
        failed = []

        async def worker() -> None:
            for _ in todo:
                if failed:
                    return
                try:
                    latencies.append(await self._session())
                except Exception as exc:
                    failed.append(_op_failed(exc))

        await asyncio.gather(*(worker() for _ in range(self.IN_FLIGHT)))
        return latencies

    def rep(self) -> Rep:
        latencies, rep = self._measure(
            lambda: self.loop.run_until_complete(self._batch()),
            ops=self.BATCH, failed=0, nbytes=0)
        factor = rep.corrected_s / rep.wall_s
        rep.latencies_s = [x * factor for x in latencies]
        rep.failed = self.BATCH - len(latencies)
        rep.nbytes = len(latencies) * self.NBYTES
        rep.counts = {"asockets.failures":
                      self.depot.counters.sessions_failed}
        return rep

    def trace_targets(self) -> None:
        from repro.cluster.acceptor import StoreSessionAcceptor
        from repro.cluster.resp import RedisProtocolStore

        tracer = self.tracer
        _wrap_socket_layers(tracer)
        tracer.wrap(StoreSessionAcceptor, "decide", "cluster.decide")
        for op in STORE_OPS:
            tracer.wrap(RedisProtocolStore, op, f"cluster.store.{op}")


LANES = {lane.name: lane for lane in (SimLane, CascadeLane, StripedLane,
                                       ChurnLane)}
