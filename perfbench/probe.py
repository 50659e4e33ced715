"""Host-speed probe for the lanes whose time goes to the interpreter.

Pure Python and independent of ``repro``: heap push/pop plus
small-object churn, the same kind of work the discrete-event kernel
does per event. Its wall time tracks how fast the interpreter runs on
the host at the moment, which swings by tens of percent, for minutes
at a time, on shared VMs.
"""

from __future__ import annotations

import gc
import heapq
import threading
import time
from typing import Callable, List

#: Events the probe's event loop runs (about 0.06 s of work).
PROBE_EVENTS = 30000

#: Nodes the events are spread over: enough that, like the simulator's
#: connections, queues and packets, they do not all stay in cache.
PROBE_NODES = 4096

#: Median probe time on the reference host (2-vCPU Firecracker VM,
#: Python 3.11.7). Corrected timings read as if the host ran at this
#: speed; ``host.probe_ms`` lets a reader undo the correction.
PROBE_REF_S = 0.0600


class _Node:
    __slots__ = ("delivered", "queue")

    def __init__(self) -> None:
        self.delivered = 0
        self.queue: list = []

    def deliver(self, when: float, packet: dict) -> None:
        self.delivered += 1
        queue = self.queue
        queue.append(packet)
        if len(queue) > 24:
            del queue[:12]


def probe_work(n: int = PROBE_EVENTS) -> int:
    """A miniature discrete-event loop: a heap of (time, seq, callback,
    packet) entries, a bound-method call on one of many nodes and a
    small dict per event.

    Its mix of heap operations, attribute access, calls, small
    allocations and scattered memory access is the simulator's, so
    host slow-downs hit both alike. A probe whose data stayed in cache
    tracked the simulator less well.
    """
    nodes = [_Node() for _ in range(PROBE_NODES)]
    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    for i in range(2048):
        push(heap, (i * 0.001, i, nodes[(i * 2654435761) % PROBE_NODES]
                    .deliver, {"len": i}))
    seq = 2048
    for _ in range(n):
        when, _, deliver, packet = pop(heap)
        deliver(when, packet)
        seq += 1
        push(heap, (when + 0.001 * ((seq * 7919) % 13 + 1), seq,
                    nodes[(seq * 2654435761) % PROBE_NODES].deliver,
                    {"len": seq}))
    return sum(node.delivered for node in nodes)


def live_threads() -> List[str]:
    """Names of every thread but the caller's."""
    return [t.name for t in threading.enumerate()
            if t is not threading.current_thread()]


def quiesce(busy: Callable[[], List[str]] = live_threads,
            wait_s: float = 0.0) -> None:
    """Wait until ``busy()`` reports no program work, then collect garbage.

    Runs before every probe, outside its timing, so that neither work
    the program still has in flight nor pending collection leaks into
    the probe. The simulator lane allows no thread but its own; the
    socket lanes wait up to ``wait_s`` for every service to have no
    session task left. Work still in flight after that is an error.
    """
    deadline = time.perf_counter() + wait_s
    while True:
        found = busy()
        if not found:
            break
        if time.perf_counter() >= deadline:
            raise RuntimeError(f"program work in flight during probe: {found}")
        time.sleep(0.001)
    gc.collect()


def timed_probe(busy: Callable[[], List[str]] = live_threads,
                wait_s: float = 0.0) -> float:
    """Quiesce, then return the wall time of one probe in seconds."""
    quiesce(busy, wait_s)
    # the probe makes no reference cycles; with the collector parked
    # its time does not depend on how many objects the process holds
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()
