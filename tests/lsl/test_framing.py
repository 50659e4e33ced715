"""Tests for session-layer framing."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsl.core import (
    FRAME_HEADER_LEN,
    MAX_FRAME_PAYLOAD,
    FrameDecoder,
    ProtocolError,
    encode_frame_header,
)
from repro.tcp.buffers import StreamChunk


def collect():
    out = []
    return out, FrameDecoder(lambda off, ch: out.append((off, ch)))


def test_header_encode():
    hdr = encode_frame_header(7, 100)
    assert len(hdr) == FRAME_HEADER_LEN
    assert struct.unpack(">QI", hdr) == (7, 100)


def test_header_validation():
    with pytest.raises(ValueError):
        encode_frame_header(-1, 10)
    with pytest.raises(ValueError):
        encode_frame_header(0, MAX_FRAME_PAYLOAD + 1)


def test_single_frame_roundtrip():
    out, dec = collect()
    dec.feed([StreamChunk(FRAME_HEADER_LEN, encode_frame_header(10, 3)),
              StreamChunk(3, b"abc")])
    assert out == [(10, StreamChunk(3, b"abc"))]
    assert dec.frames_seen == 1
    assert not dec.mid_frame


def test_frame_with_virtual_payload():
    out, dec = collect()
    dec.feed([StreamChunk(FRAME_HEADER_LEN, encode_frame_header(0, 500)),
              StreamChunk(500, None)])
    assert out == [(0, StreamChunk(500, None))]


def test_payload_split_across_chunks_tracks_offsets():
    out, dec = collect()
    dec.feed([StreamChunk(FRAME_HEADER_LEN, encode_frame_header(100, 10))])
    dec.feed([StreamChunk(4, b"abcd")])
    dec.feed([StreamChunk(6, b"efghij")])
    assert out == [
        (100, StreamChunk(4, b"abcd")),
        (104, StreamChunk(6, b"efghij")),
    ]


def test_header_split_byte_by_byte():
    out, dec = collect()
    hdr = encode_frame_header(5, 2)
    for b in hdr:
        dec.feed([StreamChunk(1, bytes([b]))])
    assert dec.mid_frame
    dec.feed([StreamChunk(2, b"ok")])
    assert out == [(5, StreamChunk(2, b"ok"))]


def test_back_to_back_frames_in_one_chunk():
    out, dec = collect()
    wire = (
        encode_frame_header(0, 2) + b"AA" + encode_frame_header(50, 3) + b"BBB"
    )
    dec.feed([StreamChunk(len(wire), wire)])
    assert out == [(0, StreamChunk(2, b"AA")), (50, StreamChunk(3, b"BBB"))]
    assert dec.frames_seen == 2


def test_zero_length_frame_emitted():
    out, dec = collect()
    dec.feed([StreamChunk(FRAME_HEADER_LEN, encode_frame_header(9, 0))])
    assert out == [(9, StreamChunk(0, b""))]


def test_virtual_header_bytes_rejected():
    _, dec = collect()
    with pytest.raises(ProtocolError):
        dec.feed([StreamChunk(FRAME_HEADER_LEN, None)])


def test_oversized_frame_rejected():
    _, dec = collect()
    bad = struct.pack(">QI", 0, MAX_FRAME_PAYLOAD + 1)
    with pytest.raises(ProtocolError):
        dec.feed([StreamChunk(len(bad), bad)])


@given(
    frames=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1 << 40),
            st.one_of(st.binary(min_size=0, max_size=40),
                      st.integers(min_value=1, max_value=200)),
        ),
        min_size=1,
        max_size=15,
    ),
    chop=st.integers(min_value=1, max_value=17),
)
@settings(max_examples=100, deadline=None)
def test_any_rechunking_reconstructs_frames(frames, chop):
    """Frames survive arbitrary re-chunking of the wire stream,
    including mixed real/virtual payloads."""
    # build the wire as a chunk sequence
    wire: list = []
    expected = []
    for offset, payload in frames:
        if isinstance(payload, bytes):
            ln = len(payload)
            wire.append(StreamChunk(FRAME_HEADER_LEN, encode_frame_header(offset, ln)))
            if ln:
                wire.append(StreamChunk(ln, payload))
            expected.append((offset, ln, payload))
        else:
            wire.append(
                StreamChunk(FRAME_HEADER_LEN, encode_frame_header(offset, payload))
            )
            wire.append(StreamChunk(payload, None))
            expected.append((offset, payload, None))

    # re-chunk real runs into pieces of size `chop` (virtual likewise)
    rechunked = []
    for chunk in wire:
        left = chunk.length
        pos = 0
        while left > 0:
            take = min(chop, left)
            rechunked.append(
                StreamChunk(
                    take,
                    None if chunk.data is None else chunk.data[pos : pos + take],
                )
            )
            pos += take
            left -= take
        if chunk.length == 0:
            rechunked.append(chunk)

    got = []
    dec = FrameDecoder(lambda off, ch: got.append((off, ch)))
    dec.feed(rechunked)

    # reassemble per frame
    per_frame = {}
    for off, ch in got:
        # find owning frame (offsets may repeat; process in order)
        per_frame.setdefault(len(per_frame), None)
    # simpler check: total bytes and coverage per emitted run
    assert dec.frames_seen == len(expected)
    emitted = sum(ch.length for _, ch in got)
    assert emitted == sum(ln for _, ln, _ in expected)
    # real payload bytes reassemble correctly in offset order per frame
    reals = b"".join(ch.data for _, ch in got if ch.data is not None)
    expected_reals = b"".join(p for _, _, p in expected if p is not None)
    assert reals == expected_reals
