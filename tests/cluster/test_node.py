"""AsyncClusterNode / LocalCluster end-to-end behavior.

Real loopback sockets throughout: these are the tests that pin the
resume-anywhere story — suspend on one worker, rebind on another,
byte-identical delivery with the MD5 trailer verified over re-fed
spool + live bytes.
"""

import random
import time

import pytest

from repro.asockets import AsyncLslServer
from repro.cluster import AsyncClusterNode, InMemoryStore, LocalCluster
from repro.lsl.core import real_digest_factory
from tests.helpers import SyncClient

SID = bytes(range(16))
PAYLOAD = random.Random(2026).randbytes(300_000)


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _wait_spooled(store, sid, minimum, timeout=5.0):
    def spooled():
        record = store.load(sid)
        return record is not None and record.bytes_received >= minimum

    return _wait(spooled, timeout)


@pytest.fixture(params=["asyncio"])
def driver(request):
    """The node driver (``LocalCluster(driver=...)``); asyncio is the
    only one."""
    return request.param


def _make_node(driver, **kwargs):
    return AsyncClusterNode(**kwargs)


# -- single node -----------------------------------------------------------


def test_terminal_transfer(driver):
    store = InMemoryStore()
    with _make_node(driver, store=store, worker="w0") as node:
        with SyncClient(
            [node.address], payload_length=len(PAYLOAD), session_id=SID
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
        assert node.wait_for_sessions(1)
    (result,) = node.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True
    assert node.counters.sessions_completed == 1
    record = store.load(SID)
    assert record.closed is True
    assert store.payload(SID) == b""  # spool dropped on finish


def test_terminal_reply_reaches_client(driver):
    with _make_node(
        driver, store=InMemoryStore(), worker="w0", reply=b"stored!"
    ) as node:
        with SyncClient(
            [node.address], payload_length=len(PAYLOAD)
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
            assert client.recv() == b"stored!"


def test_framed_terminal_transfer(driver):
    with _make_node(driver, store=InMemoryStore(), worker="w0") as node:
        with SyncClient(
            [node.address], payload_length=len(PAYLOAD), framed=True
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
        assert node.wait_for_sessions(1)
    (result,) = node.results
    assert result.payload == PAYLOAD and result.digest_ok is True


def test_intermediate_hop_still_relays(driver):
    # a cluster node is a full depot: non-last-hop sessions relay
    # through the inherited machinery instead of terminating
    with AsyncLslServer() as server:
        with _make_node(
            driver, store=InMemoryStore(), worker="w0"
        ) as node:
            with SyncClient(
                [node.address, server.address], payload_length=len(PAYLOAD)
            ) as client:
                client.sendall(PAYLOAD)
                client.finish()
            assert server.wait_for_sessions(1)
            assert _wait(lambda: node.counters.sessions_completed == 1)
    (result,) = server.results
    assert result.payload == PAYLOAD and result.digest_ok is True


def test_same_node_suspend_resume(driver):
    cut = 120_000
    store = InMemoryStore()
    with _make_node(driver, store=store, worker="w0") as node:
        with SyncClient(
            [node.address], payload_length=len(PAYLOAD), session_id=SID
        ) as client:
            client.sendall(PAYLOAD[:cut])
            # close without finish(): FIN mid-payload -> suspend
        assert _wait_spooled(store, SID, cut)
        assert _wait(lambda: node.counters.sessions_suspended == 1)
        with SyncClient(
            [node.address],
            payload_length=len(PAYLOAD),
            session_id=SID,
            rebind=True,
            resume_query=True,
            digest_factory=real_digest_factory(PAYLOAD),
        ) as client:
            assert client.granted_offset == cut
            client.sendall(PAYLOAD[cut:])
            client.finish()
        assert node.wait_for_sessions(1)
    (result,) = node.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True
    assert result.rebinds == 1
    assert node.counters.takeovers == 0  # same worker: not a takeover


def test_session_ttl_expires_suspended_session(driver):
    store = InMemoryStore()
    with _make_node(
        driver, store=store, worker="w0", session_ttl=0.2
    ) as node:
        with SyncClient(
            [node.address], payload_length=len(PAYLOAD), session_id=SID
        ) as client:
            client.sendall(PAYLOAD[:50_000])
        assert _wait(lambda: store.load(SID) is None, timeout=5.0)
        assert _wait(lambda: node.counters.sessions_expired >= 1)
        # an expired session cannot be rebound
        with pytest.raises(Exception):
            SyncClient(
                [node.address],
                payload_length=len(PAYLOAD),
                session_id=SID,
                rebind=True,
                resume_query=True,
                digest_factory=real_digest_factory(PAYLOAD),
            )


# -- multi-worker ----------------------------------------------------------


def test_cross_worker_takeover_resume(driver):
    cut = 150_000
    with LocalCluster(2, driver=driver) as cluster:
        with SyncClient(
            [cluster.address], payload_length=len(PAYLOAD), session_id=SID
        ) as client:
            client.sendall(PAYLOAD[:cut])
        assert _wait_spooled(cluster.store, SID, cut)
        owner = cluster.store.load(SID).owner
        owner_idx = int(owner[1:])
        cluster.kill(owner_idx)  # crash the owning worker
        with SyncClient(
            [cluster.address],
            payload_length=len(PAYLOAD),
            session_id=SID,
            rebind=True,
            resume_query=True,
            digest_factory=real_digest_factory(PAYLOAD),
        ) as client:
            assert client.granted_offset == cut
            client.sendall(PAYLOAD[cut:])
            client.finish()
        survivor = cluster.nodes[1 - owner_idx]
        assert survivor.wait_for_sessions(1)
        (result,) = survivor.results
        assert result.payload == PAYLOAD
        assert result.digest_ok is True
        assert result.rebinds == 1
        assert survivor.counters.takeovers == 1
        counters = cluster.worker_counters()
        assert counters[survivor.worker]["takeovers"] == 1


def test_cluster_aggregated_exposition():
    import json
    import urllib.request

    with LocalCluster(2) as cluster:
        with SyncClient(
            [cluster.address], payload_length=len(PAYLOAD)
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
        assert cluster.wait_for_sessions(1)
        with cluster.expose() as exposer:
            with urllib.request.urlopen(exposer.url + "/metrics") as resp:
                text = resp.read().decode()
            assert 'lsl_cluster_sessions_completed_total{worker="all"} 1' in text
            assert 'lsl_cluster_worker_up{worker="w0"} 1' in text
            assert 'lsl_cluster_worker_up{worker="w1"} 1' in text
            assert "lsl_cluster_store_sessions 0" in text
            with urllib.request.urlopen(exposer.url + "/healthz") as resp:
                health = json.loads(resp.read().decode())
            assert health["status"] == "ok"
            assert health["workers_up"] == 2


def test_memory_store_rejects_nothing_but_validates_args():
    with pytest.raises(ValueError):
        LocalCluster(0)
    with pytest.raises(ValueError):
        AsyncClusterNode(
            store=InMemoryStore(), worker="w0", session_ttl=-1.0
        )
    with pytest.raises(ValueError):
        AsyncClusterNode(
            store=InMemoryStore(), worker="w0", checkpoint_bytes=0
        )
    with pytest.raises(ValueError):
        LocalCluster(1, driver="trio")
