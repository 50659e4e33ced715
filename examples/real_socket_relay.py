#!/usr/bin/env python
"""The real artifact: ``lsd`` over genuine TCP sockets on localhost.

Starts two depot daemons and an LSL server (each on its own event
loop), then pushes a file-sized payload through the two-depot cascade
with end-to-end MD5 verification — the same wire format the simulator
uses.

Throughput numbers printed here reflect CPython's GIL, not network
dynamics; that is exactly why the paper's *performance* figures are
reproduced on the simulator (see DESIGN.md). This demo shows the
architecture is real: unprivileged user-level processes, voluntary
use, standard TCP underneath.

Run:  python examples/real_socket_relay.py
"""

import asyncio
import os
import time

from repro.asockets import AsyncDepot, AsyncLslClient, AsyncLslServer
from repro.util.units import fmt_bytes, fmt_rate

SIZE = 8 << 20


async def send(route, payload: bytes) -> None:
    async with AsyncLslClient(route, payload_length=len(payload)) as conn:
        print(f"session {conn.header.session_id.hex()[:8]}… established "
              f"(synchronous, acked through the whole cascade)")
        await conn.sendall(payload)
        await conn.finish()


def main() -> None:
    payload = os.urandom(SIZE)
    with AsyncLslServer() as server, AsyncDepot() as d1, AsyncDepot() as d2:
        route = [d1.address, d2.address, server.address]
        pretty = " -> ".join(f"{h}:{p}" for h, p in route)
        print(f"cascade: client -> {pretty}")
        print(f"payload: {fmt_bytes(SIZE)} of random bytes + MD5 trailer\n")

        t0 = time.perf_counter()
        asyncio.run(send(route, payload))
        ok = server.wait_for_sessions(1, timeout=60)
        elapsed = time.perf_counter() - t0

        assert ok, "server did not complete the session"
        result = server.results[0]
        print(f"server received {fmt_bytes(len(result.payload))}, "
              f"digest verified: {result.digest_ok}")
        print(f"payload intact: {result.payload == payload}")
        print(f"depot 1 relayed {fmt_bytes(d1.counters.bytes_relayed)}; "
              f"depot 2 relayed {fmt_bytes(d2.counters.bytes_relayed)}")
        print(f"\nwall time {elapsed:.2f}s "
              f"({fmt_rate(SIZE * 8 / elapsed)} through two Python relays "
              f"— GIL-bound, see module docstring)")


if __name__ == "__main__":
    main()
