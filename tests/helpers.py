"""Shared test plumbing: canned networks and transfer drivers."""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple

from repro.asockets import AsyncLslClient
from repro.net.loss import LossModel
from repro.net.topology import Network
from repro.tcp.options import TcpOptions
from repro.tcp.sockets import SimSocket, TcpStack


def two_host_net(
    seed: int = 1,
    bandwidth_bps: float = 10e6,
    delay_ms: float = 10.0,
    loss: Optional[LossModel] = None,
    queue_bytes: Optional[int] = None,
    options: Optional[TcpOptions] = None,
) -> Tuple[Network, TcpStack, TcpStack]:
    """A two-host network with TCP stacks on ``a`` and ``b``."""
    net = Network(seed=seed)
    net.add_host("a")
    net.add_host("b")
    kwargs = dict(bandwidth_bps=bandwidth_bps, delay_ms=delay_ms, loss=loss)
    if queue_bytes is not None:
        kwargs["queue_bytes"] = queue_bytes
    net.add_link("a", "b", **kwargs)
    net.finalize()
    return net, TcpStack(net.host("a"), options), TcpStack(net.host("b"), options)


class SinkServer:
    """Accepts one connection and counts/collects everything received."""

    def __init__(self, stack: TcpStack, port: int = 5000, keep_data: bool = False):
        self.received = 0
        self.chunks = []
        self.keep_data = keep_data
        self.peer_fin = False
        self.closed = False
        self.error: Optional[Exception] = None
        self.sock: Optional[SimSocket] = None
        listener = stack.socket()
        listener.listen(port, self._accept)
        self.listener = listener

    def _accept(self, sock: SimSocket) -> None:
        self.sock = sock
        sock.on_readable = self._drain
        sock.on_peer_fin = self._fin
        sock.on_close = self._close

    def _drain(self) -> None:
        for chunk in self.sock.recv():
            self.received += chunk.length
            if self.keep_data:
                self.chunks.append(chunk)

    def _fin(self) -> None:
        self._drain()
        self.peer_fin = True
        self.sock.close()

    def _close(self, error) -> None:
        self.closed = True
        self.error = error

    @property
    def data(self) -> bytes:
        return b"".join(c.data for c in self.chunks if c.data is not None)


class PumpClient:
    """Connects and pushes a fixed amount of (virtual) data, then closes."""

    def __init__(
        self,
        stack: TcpStack,
        address: Tuple[str, int],
        nbytes: int = 0,
        data: Optional[bytes] = None,
        trace=None,
    ):
        self.closed = False
        self.error: Optional[Exception] = None
        self.sock = stack.socket()
        self._virtual_pending = nbytes
        self._data_pending = data if data is not None else b""
        self.sock.on_writable = self._pump
        self.sock.on_close = self._close
        self.sock.connect(address, on_connected=self._pump, trace=trace)

    def _pump(self) -> None:
        if self._data_pending:
            sent = self.sock.send(self._data_pending)
            self._data_pending = self._data_pending[sent:]
            if self._data_pending:
                return
        if self._virtual_pending > 0:
            self._virtual_pending -= self.sock.send_virtual(self._virtual_pending)
        if self._virtual_pending == 0 and not self._data_pending:
            if not self.closed and self.sock.conn is not None:
                try:
                    self.sock.close()
                except Exception:
                    pass
            self.sock.on_writable = None

    def _close(self, error) -> None:
        self.closed = True
        self.error = error


def run_transfer(
    nbytes: int = 100_000,
    data: Optional[bytes] = None,
    seed: int = 1,
    until: float = 300.0,
    keep_data: bool = False,
    **net_kwargs,
) -> Tuple[Network, PumpClient, SinkServer]:
    """End-to-end transfer a->b; returns after the simulation runs."""
    net, sa, sb = two_host_net(seed=seed, **net_kwargs)
    server = SinkServer(sb, keep_data=keep_data)
    client = PumpClient(
        sa, ("b", 5000), nbytes=nbytes if data is None else 0, data=data
    )
    net.sim.run(until=until)
    return net, client, server


class SyncClient:
    """Blocking shorthand over :class:`~repro.asockets.AsyncLslClient`.

    Connects in the constructor and runs every call on one private
    event loop, so sync test code can interleave sends, sleeps and
    assertions mid-session::

        with SyncClient(route, payload_length=len(data)) as client:
            client.sendall(data)
            client.finish()
    """

    def __init__(self, route, **kwargs) -> None:
        self._client = AsyncLslClient(route, **kwargs)
        self._loop = asyncio.new_event_loop()
        try:
            self._run(self._client.connect())
        except BaseException:
            self._loop.close()
            raise

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def sendall(self, data: bytes) -> None:
        self._run(self._client.sendall(data))

    def finish(self) -> None:
        self._run(self._client.finish())

    def recv(self, n: int = 65536) -> bytes:
        return self._run(self._client.recv(n))

    def close(self) -> None:
        self._client.close()
        if not self._loop.is_closed():
            self._loop.close()

    def __getattr__(self, name):
        # header, granted_offset, bytes_sent, trace_id, ...
        return getattr(self._client, name)

    def __enter__(self) -> "SyncClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
