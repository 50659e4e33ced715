"""End-to-end stream digest.

The paper sends an MD5 over the complete stream between *end systems*
— depots never touch it, preserving the end-to-end integrity argument
while moving only flow control and buffering into the network.

Because the simulator supports *virtual* (length-only) payload, the
digest is defined over the **logical stream**: real byte runs are
hashed directly; each maximal virtual run contributes a marker
``b"\\x00VIRT"`` plus its length as 8 big-endian bytes. Run boundaries
(real↔virtual transitions) are positions in the stream, so both ends
compute identical digests regardless of how TCP segmented the data.
For all-real streams this reduces to plain ``md5(payload)`` — the
real-socket stack (:mod:`repro.asockets`) uses exactly that.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

from repro.lsl.core.chunks import ChunkLike

_VIRT_MARK = b"\x00VIRT"

DIGEST_LEN = 16


class StreamDigest:
    """Incremental MD5 over a mixed real/virtual stream."""

    __slots__ = ("_md5", "_virtual_run", "total_bytes")

    def __init__(self) -> None:
        self._md5 = hashlib.md5()
        self._virtual_run = 0
        self.total_bytes = 0

    def update(self, data: bytes) -> None:
        """Feed real stream bytes."""
        if not data:
            return
        self._flush_virtual()
        self._md5.update(data)
        self.total_bytes += len(data)

    def update_virtual(self, nbytes: int) -> None:
        """Feed ``nbytes`` of virtual stream content."""
        if nbytes < 0:
            raise ValueError(f"negative virtual length {nbytes}")
        self._virtual_run += nbytes
        self.total_bytes += nbytes

    def update_chunk(self, chunk: ChunkLike) -> None:
        if chunk.data is None:
            self.update_virtual(chunk.length)
        else:
            self.update(chunk.data)

    def update_chunks(self, chunks: Iterable[ChunkLike]) -> None:
        for chunk in chunks:
            self.update_chunk(chunk)

    def _flush_virtual(self) -> None:
        if self._virtual_run:
            self._md5.update(_VIRT_MARK)
            self._md5.update(struct.pack(">Q", self._virtual_run))
            self._virtual_run = 0

    def digest(self) -> bytes:
        """Finalize-safe digest of everything fed so far (16 bytes)."""
        clone = self._md5.copy()
        if self._virtual_run:
            clone.update(_VIRT_MARK)
            clone.update(struct.pack(">Q", self._virtual_run))
        return clone.digest()

    def hexdigest(self) -> str:
        return self.digest().hex()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StreamDigest bytes={self.total_bytes} {self.hexdigest()[:8]}...>"


def virtual_digest_factory(offset: int) -> StreamDigest:
    """Digest state for an all-virtual payload prefix of ``offset`` bytes.

    Virtual runs hash as (marker, length), so the prefix state is
    reproducible from the byte count alone — which is what makes
    negotiated resume possible without replaying data.
    """
    d = StreamDigest()
    d.update_virtual(offset)
    return d


def real_digest_factory(payload: bytes) -> "_RealPrefixFactory":
    """Digest-state factory for an all-real payload held by the client.

    Returns a callable ``f(offset) -> StreamDigest`` that rebuilds the
    running MD5 for the prefix ``payload[:offset]`` — the real-socket
    counterpart of :func:`virtual_digest_factory` for negotiated resume.
    """
    return _RealPrefixFactory(payload)


class _RealPrefixFactory:
    __slots__ = ("_payload",)

    def __init__(self, payload: bytes) -> None:
        self._payload = payload

    def __call__(self, offset: int) -> StreamDigest:
        d = StreamDigest()
        d.update(self._payload[:offset])
        return d
