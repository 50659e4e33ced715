"""ClientHandshake: establishment sequencing in isolation."""

import pytest

from repro.lsl.core import (
    SESSION_ACK,
    ClientHandshake,
    LslHeader,
    ProtocolError,
    RouteHop,
)


def make_header(**kw):
    defaults = dict(
        session_id=bytes(range(16)),
        route=(RouteHop("a", 1), RouteHop("b", 2)),
        payload_length=100,
    )
    defaults.update(kw)
    return LslHeader(**defaults)


def test_initial_bytes_are_the_encoded_header():
    h = make_header()
    hs = ClientHandshake(h)
    assert hs.initial_bytes() == h.encode()


def test_async_establishes_immediately():
    hs = ClientHandshake(make_header(sync=False))
    assert hs.established
    assert hs.bytes_needed == 0


def test_sync_needs_one_ack_byte():
    hs = ClientHandshake(make_header(sync=True))
    assert not hs.established
    assert hs.bytes_needed == 1
    assert hs.feed(SESSION_ACK) is True
    assert hs.established
    assert hs.bytes_needed == 0


def test_bad_ack_raises_and_records_failure():
    hs = ClientHandshake(make_header(sync=True))
    with pytest.raises(ProtocolError):
        hs.feed(b"X")
    assert hs.failed is not None
    assert not hs.established
    # further feeds re-raise the recorded failure
    with pytest.raises(ProtocolError):
        hs.feed(SESSION_ACK)


def test_bytes_past_establishment_are_an_error():
    hs = ClientHandshake(make_header(sync=True))
    with pytest.raises(ProtocolError):
        hs.feed(SESSION_ACK + b"extra")


def test_resume_query_waits_for_offset():
    h = make_header(rebind=True, resume_query=True)
    hs = ClientHandshake(h)
    assert hs.feed(SESSION_ACK) is False
    assert hs.awaiting_offset
    assert hs.bytes_needed == 8
    offset = (123456).to_bytes(8, "big")
    # dribble the offset in one byte at a time
    for i, b in enumerate(offset[:-1]):
        assert hs.feed(bytes([b])) is False
        assert hs.bytes_needed == 8 - (i + 1)
    assert hs.feed(offset[-1:]) is True
    assert hs.granted_offset == 123456
    assert hs.established


def test_resume_query_ack_and_offset_in_one_read():
    h = make_header(rebind=True, resume_query=True)
    hs = ClientHandshake(h)
    assert hs.feed(SESSION_ACK + (7).to_bytes(8, "big")) is True
    assert hs.granted_offset == 7


def test_empty_feed_is_harmless():
    hs = ClientHandshake(make_header(sync=True))
    assert hs.feed(b"") is False
    assert hs.feed(SESSION_ACK) is True
