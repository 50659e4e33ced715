"""Differential tests: simulator stack vs real-socket (asyncio) stack.

Both stacks drive the same sans-I/O core, so for the same scenario —
route, payload, digest, resume-after-kill — they must put the same
bytes on the wire. These tests capture actual transmitted streams from
each stack (raw byte sinks on both sides, never a reconstruction) and
compare them:

* session headers, byte for byte (direct and depot-advanced);
* the payload + MD5 trailer stream layout;
* framed streams decode to the same logical content via the shared
  :class:`~repro.lsl.core.FrameDecoder`;
* negotiated resume grants the same offset for the same kill point.

Real-socket listeners bind loopback aliases (127.0.0.x) so the
simulator can use hosts with the *same names and ports*, making the
route sections — and therefore the headers — comparable byte for byte.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from repro.asockets import AsyncDepot, AsyncLslServer
from repro.lsl.client import lsl_connect
from repro.lsl.core import Chunk, FrameDecoder, real_digest_factory
from repro.lsl.depot import Depot
from repro.net.topology import Network
from repro.tcp.sockets import TcpStack
from tests.helpers import SyncClient

SESSION_ID = bytes(range(16))
PAYLOAD = random.Random(2026).randbytes(120_000)


# -- capture helpers -------------------------------------------------------


class RealSink:
    """Accept one connection on a loopback alias; read it to EOF.

    ``reply`` (e.g. a canned SESSION_ACK [+ granted offset]) is written
    back immediately after accept, letting sync clients establish
    against the capture sink.
    """

    def __init__(self, host: str = "127.0.0.1", reply: bytes = b"") -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()
        self.reply = reply
        self.data = b""
        self._done = threading.Event()
        threading.Thread(target=self._run, daemon=True).start()

    def _run(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        if self.reply:
            sock.sendall(self.reply)
        buf = bytearray()
        while True:
            try:
                piece = sock.recv(65536)
            except OSError:
                break
            if not piece:
                break
            buf.extend(piece)
        self.data = bytes(buf)
        sock.close()
        self._listener.close()
        self._done.set()

    def wait(self, timeout: float = 30.0) -> bytes:
        assert self._done.wait(timeout), "sink never saw EOF"
        return self.data


class SimSink:
    """Sim-side equivalent: accept one sublink, spool real bytes to EOF."""

    def __init__(self, stack: TcpStack, port: int, reply: bytes = b"") -> None:
        self.data = bytearray()
        self.reply = reply
        stack.socket().listen(port, self._on_accept)

    def _on_accept(self, sock) -> None:
        if self.reply:
            sock.send(self.reply)

        def drain() -> None:
            for chunk in sock.recv():
                assert chunk.data is not None, "virtual bytes in capture"
                self.data.extend(chunk.data)

        sock.on_readable = drain
        sock.on_peer_fin = lambda: (drain(), sock.close())


def capture_real_stream(route_tail_hosts, payload, framed=False):
    """Run the real client (optionally through real depots) into a sink.

    ``route_tail_hosts`` is a list of loopback aliases: one per depot,
    plus the final sink host. Returns (route, stream_at_sink).
    """
    sink = RealSink(route_tail_hosts[-1])
    depots = [AsyncDepot(host=h) for h in route_tail_hosts[:-1]]
    route = [d.address for d in depots] + [sink.address]
    client = SyncClient(
        route,
        payload_length=len(payload),
        sync=False,  # a raw sink never acks
        session_id=SESSION_ID,
        framed=framed,
    )
    client.sendall(payload)
    client.finish()
    data = sink.wait()
    client.close()
    for d in depots:
        d.shutdown()
    return route, data


def capture_sim_stream(route, payload, relay_buffer_bytes=None):
    """Replay the same route in the simulator; capture at the last hop.

    Hosts are named after the loopback aliases in ``route`` so the
    encoded route section is identical to the real run's.
    """
    net = Network(seed=7)
    net.add_host("client")
    hosts = []
    for host, _port in route:
        if host not in hosts:
            net.add_host(host)
            hosts.append(host)
    prev = "client"
    for h in hosts:
        net.add_link(prev, h, 1e9, 0.2)
        prev = h
    net.finalize()
    stacks = {h: TcpStack(net.host(h)) for h in ["client"] + hosts}
    depot_kwargs = {}
    if relay_buffer_bytes is not None:
        depot_kwargs["relay_buffer_bytes"] = relay_buffer_bytes
    for host, port in route[:-1]:
        Depot(stacks[host], port, **depot_kwargs)
    sink = SimSink(stacks[route[-1][0]], route[-1][1])

    sent = 0

    def pump() -> None:
        nonlocal sent
        while sent < len(payload):
            n = conn.send(payload[sent:])
            if n == 0:
                return
            sent += n
        conn.finish()

    conn = lsl_connect(
        stacks["client"],
        route,
        payload_length=len(payload),
        sync=False,
        session_id=SESSION_ID,
        on_connected=pump,
    )
    conn.on_writable = pump
    net.sim.run(until=60.0)
    return bytes(sink.data)


# -- header + stream identity ---------------------------------------------


def test_direct_stream_identical():
    route, real = capture_real_stream(["127.0.0.1"], PAYLOAD)
    sim = capture_sim_stream(route, PAYLOAD)
    assert sim == real  # header + payload + MD5 trailer, byte for byte


def test_depot_advanced_stream_identical():
    # one lsd in the chain: the sink sees the hop-advanced header
    route, real = capture_real_stream(["127.0.0.2", "127.0.0.1"], PAYLOAD)
    sim = capture_sim_stream(route, PAYLOAD)
    assert sim == real


def test_relay_output_identical_under_tight_buffer():
    """Byte-identity of the relayed stream when the depot's relay
    buffer is far smaller than the payload: ``RelayPump.push()`` then
    accepts partial chunks every cycle, exercising its memoryview
    re-slicing of chunk heads. Whatever the pump's internal cut points,
    the bytes leaving the depot must match the real stack's."""
    route, real = capture_real_stream(["127.0.0.2", "127.0.0.1"], PAYLOAD)
    sim = capture_sim_stream(route, PAYLOAD, relay_buffer_bytes=8 * 1024)
    assert sim == real


def test_trailer_is_the_payload_md5_in_both_stacks():
    import hashlib

    route, real = capture_real_stream(["127.0.0.1"], PAYLOAD)
    sim = capture_sim_stream(route, PAYLOAD)
    md5 = hashlib.md5(PAYLOAD).digest()
    assert real.endswith(md5) and sim.endswith(md5)


# -- framing ---------------------------------------------------------------


def test_framed_stream_decodes_to_same_logical_content():
    from repro.lsl.core import HeaderAccumulator

    _route, real = capture_real_stream(["127.0.0.1"], PAYLOAD, framed=True)
    acc = HeaderAccumulator()
    header = acc.feed(real)
    assert header is not None and header.framed

    frames = []
    decoder = FrameDecoder(lambda off, chunk: frames.append((off, chunk.data)))
    decoder.feed([Chunk.real(acc.surplus)])
    # frames cover the payload contiguously, in order
    pos = 0
    body = b""
    for off, data in frames[:-1]:
        assert off == pos
        body += data
        pos += len(data)
    assert body == PAYLOAD
    # trailer frame sits at offset == declared length and carries the MD5
    import hashlib

    t_off, t_data = frames[-1]
    assert t_off == len(PAYLOAD)
    assert t_data == hashlib.md5(PAYLOAD).digest()
    assert not decoder.mid_frame


def test_framed_end_to_end_through_real_server():
    with AsyncLslServer() as server:
        with SyncClient(
            [server.address], payload_length=len(PAYLOAD), framed=True
        ) as c:
            c.sendall(PAYLOAD)
            c.finish()
        assert server.wait_for_sessions(1)
    assert not server.errors
    (result,) = server.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True


# -- negotiated resume -----------------------------------------------------


def _wait_received(server, session_id, count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = server.registry.get(session_id)
        if record is not None and isinstance(record.attachment, object):
            live = record.attachment
            if (
                live is not None
                and getattr(live, "receiver", None) is not None
                and live.receiver.payload_received >= count
            ):
                return True
        time.sleep(0.01)
    return False


def test_resume_after_kill_over_real_sockets():
    cut = 48_000
    with AsyncLslServer() as server:
        c1 = SyncClient(
            [server.address],
            payload_length=len(PAYLOAD),
            session_id=SESSION_ID,
        )
        c1.sendall(PAYLOAD[:cut])
        c1.close()  # die without finish(): FIN mid-payload -> suspend
        assert _wait_received(server, SESSION_ID, cut)

        c2 = SyncClient(
            [server.address],
            payload_length=len(PAYLOAD),
            session_id=SESSION_ID,
            rebind=True,
            resume_query=True,
            digest_factory=real_digest_factory(PAYLOAD),
        )
        # the server's contiguously-received count is authoritative —
        # exactly the same grant rule the simulator's failover path uses
        assert c2.granted_offset == cut
        c2.sendall(PAYLOAD[c2.granted_offset :])
        c2.finish()
        assert server.wait_for_sessions(1)
        c2.close()
    assert not server.errors
    (result,) = server.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True
    assert result.rebinds == 1


def test_resume_rebind_wire_and_grant_match_simulator():
    """Same rebind scenario through both stacks against acking capture
    sinks: the transmitted rebind header is byte-identical, and both
    handshakes extract the same granted offset from the same reply."""
    import struct

    from repro.lsl.client import lsl_rebind
    from repro.lsl.core import SESSION_ACK, virtual_digest_factory

    granted = 48_000
    reply = SESSION_ACK + struct.pack(">Q", granted)

    # real stack: rebind against a canned-reply sink. The route must
    # name the sink's actual (host, port), so run the real side first
    # and mirror its port into the simulator.
    sink_r = RealSink(reply=reply)
    client = SyncClient(
        [sink_r.address],
        payload_length=len(PAYLOAD),
        session_id=SESSION_ID,
        rebind=True,
        resume_query=True,
        digest_factory=real_digest_factory(PAYLOAD),
    )
    assert client.granted_offset == granted
    assert client.bytes_sent == granted  # resumes exactly at the grant
    client.close()
    real_header = sink_r.wait()

    # simulator: same session, same route names, same canned reply
    host, port = sink_r.address
    net = Network(seed=3)
    net.add_host("client")
    net.add_host(host)
    net.add_link("client", host, 1e9, 0.2)
    net.finalize()
    stacks = {h: TcpStack(net.host(h)) for h in ("client", host)}
    sink_s = SimSink(stacks[host], port, reply=reply)
    conn = lsl_rebind(
        stacks["client"],
        [(host, port)],
        session_id=SESSION_ID,
        resume_offset=0,
        payload_length=len(PAYLOAD),
        resume_query=True,
        digest_factory=virtual_digest_factory,
    )
    net.sim.run(until=5.0)
    conn.abort()
    net.sim.run(until=6.0)

    assert conn.granted_offset == granted
    assert conn.bytes_sent == granted
    assert bytes(sink_s.data) == real_header
