"""WorkerPool: subprocess workers sharing a port and an external store."""

import os
import time

import pytest

from repro.cluster import MiniRedis, WorkerPool
from repro.cluster.pool import pick_strategy
from tests.helpers import SyncClient

PAYLOAD = os.urandom(200_000)


def _wait_counter(pool, name, minimum, timeout=10.0):
    deadline = time.monotonic() + timeout
    total = 0
    while time.monotonic() < deadline:
        total = sum(
            snap.get(name, 0) for snap in pool.worker_counters().values()
        )
        if total >= minimum:
            return total
        time.sleep(0.05)
    return total


def _transfer(pool):
    with SyncClient(
        [pool.address], payload_length=len(PAYLOAD)
    ) as client:
        client.sendall(PAYLOAD)
        client.finish()


def test_pick_strategy():
    assert pick_strategy("handoff") == "handoff"
    assert pick_strategy("auto") in ("reuseport", "handoff")
    with pytest.raises(ValueError):
        pick_strategy("magic")


def test_memory_spec_rejected(tmp_path):
    with pytest.raises(ValueError):
        WorkerPool(2, store_spec="memory")


def test_reuseport_pool_serves_and_grows(tmp_path):
    if not hasattr(__import__("socket"), "SO_REUSEPORT"):
        pytest.skip("SO_REUSEPORT unavailable")
    with WorkerPool(
        2, store_spec=f"file:{tmp_path / 'store'}", strategy="reuseport"
    ) as pool:
        assert pool.strategy == "reuseport"
        assert all(pool.workers_alive().values())
        _transfer(pool)
        assert _wait_counter(pool, "sessions_completed", 1) == 1
        assert _wait_counter(pool, "sessions_failed", 0) == 0
        # scale out while serving
        pool.add_worker()
        assert len(pool.workers) == 3
        assert pool.workers_alive()["w2"] is True
        _transfer(pool)
        assert _wait_counter(pool, "sessions_completed", 2) == 2


def test_handoff_pool_serves(tmp_path):
    with WorkerPool(
        2, store_spec=f"file:{tmp_path / 'store'}", strategy="handoff"
    ) as pool:
        assert pool.strategy == "handoff"
        _transfer(pool)
        assert _wait_counter(pool, "sessions_completed", 1) == 1


def test_redis_pool_serves():
    with MiniRedis() as server:
        spec = f"redis://{server.address[0]}:{server.address[1]}"
        with WorkerPool(2, store_spec=spec) as pool:
            _transfer(pool)
            assert _wait_counter(pool, "sessions_completed", 1) == 1


def test_kill_marks_worker_down_but_pool_serves(tmp_path):
    with WorkerPool(2, store_spec=f"file:{tmp_path / 'store'}") as pool:
        pool.kill(0)
        alive = pool.workers_alive()
        assert alive["w0"] is False
        assert alive["w1"] is True
        _transfer(pool)
        assert _wait_counter(pool, "sessions_completed", 1) == 1
