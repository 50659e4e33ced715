"""StoreSessionAcceptor: accept/rebind/restart against a shared store."""

import struct

import pytest

from repro.lsl.core import (
    SESSION_ACK,
    LslHeader,
    RejectSession,
    RouteHop,
)
from repro.cluster import (
    InMemoryStore,
    StoreAcceptNew,
    StoreAcceptResume,
    StoreRestart,
    StoreSessionAcceptor,
)

SID = b"\x01" * 16


def make_header(**kw):
    defaults = dict(
        session_id=SID,
        route=(RouteHop("srv", 5000),),
        hop_index=0,
        payload_length=100,
    )
    defaults.update(kw)
    return LslHeader(**defaults)


@pytest.fixture()
def store():
    return InMemoryStore()


def test_fresh_sync_session_acked(store):
    acceptor = StoreSessionAcceptor(store, "w0")
    decision = acceptor.decide(make_header(sync=True), now=1.0)
    assert isinstance(decision, StoreAcceptNew)
    assert decision.reply == SESSION_ACK
    assert decision.record.owner == "w0"
    assert decision.record.epoch == 1
    assert store.load(SID).created_at == 1.0


def test_fresh_async_session_empty_reply(store):
    decision = StoreSessionAcceptor(store, "w0").decide(
        make_header(sync=False), now=0.0
    )
    assert isinstance(decision, StoreAcceptNew)
    assert decision.reply == b""


def test_intermediate_hop_rejected(store):
    header = make_header(
        route=(RouteHop("srv", 5000), RouteHop("x", 1)), hop_index=0
    )
    decision = StoreSessionAcceptor(store, "w0").decide(header, now=0.0)
    assert isinstance(decision, RejectSession)
    assert store.load(SID) is None


def test_rebind_unknown_session_rejected(store):
    decision = StoreSessionAcceptor(store, "w0").decide(
        make_header(rebind=True), now=0.0
    )
    assert isinstance(decision, RejectSession)


def test_rebind_same_worker_not_a_takeover(store):
    acceptor = StoreSessionAcceptor(store, "w0")
    acceptor.decide(make_header(), now=0.0)
    decision = acceptor.decide(
        make_header(rebind=True, resume_offset=0), now=1.0
    )
    assert isinstance(decision, StoreAcceptResume)
    assert decision.takeover is False
    assert decision.record.rebinds == 1
    assert decision.record.epoch == 2


def test_rebind_other_worker_is_takeover(store):
    StoreSessionAcceptor(store, "w0").decide(make_header(), now=0.0)
    decision = StoreSessionAcceptor(store, "w1").decide(
        make_header(rebind=True, resume_offset=0), now=1.0
    )
    assert isinstance(decision, StoreAcceptResume)
    assert decision.takeover is True
    assert decision.record.owner == "w1"
    # the old owner's write token is dead
    assert store.append_payload(SID, "w0", 1, b"x", 1.1) is None


def test_rebind_offset_mismatch_rejected(store):
    acceptor = StoreSessionAcceptor(store, "w0")
    first = acceptor.decide(make_header(), now=0.0)
    store.append_payload(SID, "w0", first.record.epoch, b"12345", 0.1)
    decision = acceptor.decide(
        make_header(rebind=True, resume_offset=3), now=1.0
    )
    assert isinstance(decision, RejectSession)


def test_resume_query_grants_spooled_prefix(store):
    acceptor = StoreSessionAcceptor(store, "w0")
    first = acceptor.decide(make_header(sync=True), now=0.0)
    store.append_payload(SID, "w0", first.record.epoch, b"12345", 0.1)
    decision = StoreSessionAcceptor(store, "w1").decide(
        make_header(sync=True, rebind=True, resume_query=True), now=1.0
    )
    assert isinstance(decision, StoreAcceptResume)
    assert decision.prefix_length == 5
    assert decision.reply[: len(SESSION_ACK)] == SESSION_ACK
    (granted,) = struct.unpack(">Q", decision.reply[len(SESSION_ACK) :])
    assert granted == 5


def test_restart_truncates_spool(store):
    # fresh connect reusing a live id (lost SESSION_ACK): the stored
    # digest prefix from the first incarnation must be wiped
    acceptor = StoreSessionAcceptor(store, "w0")
    first = acceptor.decide(make_header(sync=True), now=0.0)
    store.append_payload(SID, "w0", first.record.epoch, b"stale", 0.1)
    decision = StoreSessionAcceptor(store, "w1").decide(
        make_header(sync=True), now=1.0
    )
    assert isinstance(decision, StoreRestart)
    assert decision.record.bytes_received == 0
    assert decision.record.owner == "w1"
    assert store.payload(SID) == b""


def test_closed_session_refuses_reuse_and_rebind(store):
    acceptor = StoreSessionAcceptor(store, "w0")
    first = acceptor.decide(make_header(), now=0.0)
    store.finish(SID, "w0", first.record.epoch, 0.5)
    fresh = acceptor.decide(make_header(), now=1.0)
    assert isinstance(fresh, RejectSession)
    rebind = acceptor.decide(make_header(rebind=True), now=1.0)
    assert isinstance(rebind, RejectSession)
