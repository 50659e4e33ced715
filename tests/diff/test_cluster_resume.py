"""Differential: cross-worker failover resume vs a single-worker run.

The scenario the cluster exists for: a client is mid-payload when the
worker that owns its session dies (SIGKILL for subprocess pools — no
cleanup, no flush). The client rebinds to the *same* address, lands on
a surviving worker, negotiates the resume offset from the store's
durable spool, and finishes. Delivery must be byte-identical to a
single-worker run of the same payload, with the end-to-end MD5 trailer
verified over re-fed spool + live bytes — for every store backend.
"""

import random
import time

import pytest

from repro.lsl.core import real_digest_factory
from repro.cluster import LocalCluster, MiniRedis, WorkerPool
from tests.helpers import SyncClient

SID = bytes(range(16))
PAYLOAD = random.Random(2027).randbytes(600_000)
CUT = 300_000
CHECKPOINT = 32_768


def _wait(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _single_worker_delivery():
    """Baseline: the same payload through one worker, no failover."""
    with LocalCluster(1) as cluster:
        with SyncClient(
            [cluster.address],
            payload_length=len(PAYLOAD),
            digest_factory=real_digest_factory(PAYLOAD),
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
        assert cluster.wait_for_sessions(1)
        (result,) = cluster.results()
    assert result.digest_ok is True
    return result.payload


def _send_partial(address, store):
    """Open a session, push CUT bytes, wait for a durable checkpoint.

    Returns with the sublink still open — the kill that follows is a
    genuine mid-payload crash, not a tidy suspend.
    """
    client = SyncClient(
        [address], payload_length=len(PAYLOAD), session_id=SID
    )
    client.sendall(PAYLOAD[:CUT])
    assert _wait(
        lambda: (store.load(SID) or None) is not None
        and store.load(SID).bytes_received >= CHECKPOINT
    ), "no checkpoint reached the store"
    return client


def _resume_and_finish(address):
    """Rebind against the fleet address and complete the payload."""
    with SyncClient(
        [address],
        payload_length=len(PAYLOAD),
        session_id=SID,
        rebind=True,
        resume_query=True,
        digest_factory=real_digest_factory(PAYLOAD),
    ) as client:
        granted = client.granted_offset
        assert CHECKPOINT <= granted <= CUT
        client.sendall(PAYLOAD[granted:])
        client.finish()
    return granted


def test_cross_worker_resume_memory_store():
    baseline = _single_worker_delivery()
    with LocalCluster(2, checkpoint_bytes=CHECKPOINT) as cluster:
        client = _send_partial(cluster.address, cluster.store)
        owner_idx = int(cluster.store.load(SID).owner[1:])
        cluster.kill(owner_idx)  # aborts the live sublink mid-payload
        client.close()
        _resume_and_finish(cluster.address)
        survivor = cluster.nodes[1 - owner_idx]
        assert survivor.wait_for_sessions(1)
        (result,) = survivor.results
        counters = cluster.worker_counters()
    assert result.payload == PAYLOAD
    assert result.payload == baseline  # byte-identical to single-worker
    assert result.digest_ok is True
    assert result.rebinds == 1
    assert counters[survivor.worker]["takeovers"] == 1


@pytest.mark.parametrize("backend", ["file", "redis"])
def test_cross_worker_resume_external_store(backend, tmp_path):
    baseline = _single_worker_delivery()
    assert baseline == PAYLOAD
    if backend == "file":
        miniredis = None
        spec = f"file:{tmp_path / 'store'}"
    else:
        miniredis = MiniRedis()
        spec = f"redis://{miniredis.address[0]}:{miniredis.address[1]}"
    try:
        with WorkerPool(
            2, store_spec=spec, checkpoint_bytes=CHECKPOINT
        ) as pool:
            client = _send_partial(pool.address, pool.store)
            owner_idx = int(pool.store.load(SID).owner[1:])
            pool.kill(owner_idx)  # SIGKILL: no flush, no goodbye
            client.close()
            granted = _resume_and_finish(pool.address)
            record = pool.store.load(SID)
            # completion is observable from outside the worker: the
            # record closed at the takeover epoch, and the survivor's
            # published counters verified the MD5 over the full payload
            assert _wait(lambda: pool.store.load(SID).closed)
            assert record is not None and granted <= CUT

            def fleet(name):
                return sum(
                    snap.get(name, 0)
                    for snap in pool.worker_counters().values()
                )

            assert _wait(lambda: fleet("sessions_completed") == 1)
            assert fleet("sessions_failed") == 0
            assert fleet("takeovers") == 1
    finally:
        if miniredis is not None:
            miniredis.shutdown()
