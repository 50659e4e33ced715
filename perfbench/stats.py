"""Pure helpers: quantiles, the tail rule, host correction, self time."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is resolved only when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q <= 1) by the nearest-rank method."""
    s = sorted(values)
    if not s:
        raise ValueError("quantile of no values")
    return s[max(0, math.ceil(q * len(s)) - 1)]


def beyond(n: int, q: float) -> int:
    """Samples that lie beyond the nearest-rank ``q`` quantile of ``n``."""
    return n - max(1, math.ceil(q * n))


def tail(values: Sequence[float], q: float = 0.99) -> Tuple[float, float]:
    """``(value, percentile)``: the ``q`` quantile when at least
    :data:`TAIL_MIN_BEYOND` samples lie beyond it, else the highest
    quantile that has that many beyond it (the 11th-slowest sample),
    but never one below the median.

    The returned percentile says which one was reported. With fewer
    than ``2 * TAIL_MIN_BEYOND`` samples that is the median, so a lane
    that slows down to a handful of reps cannot report a tail below its
    median.
    """
    n = len(values)
    if beyond(n, q) >= TAIL_MIN_BEYOND:
        return nearest_rank(values, q), q
    if n >= 2 * TAIL_MIN_BEYOND:
        return sorted(values)[n - TAIL_MIN_BEYOND - 1], (n - TAIL_MIN_BEYOND) / n
    return nearest_rank(values, 0.5), 0.5


def host_corrected(raw_s: float, probe_before: float, probe_after: float,
                   probe_ref: float) -> float:
    """Scale a rep's wall time to the reference host speed.

    ``raw * probe_ref / mean(before, after)``: a rep that ran while the
    interpreter was slow (long probes around it) shrinks, one that ran
    while it was fast grows.
    """
    if probe_before <= 0 or probe_after <= 0 or probe_ref <= 0:
        raise ValueError("probe times must be positive")
    return raw_s * probe_ref / ((probe_before + probe_after) / 2.0)


Span = Tuple[str, float, float, Optional[int]]  # name, start, end, parent


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover.

    Children are spans whose ``parent`` is the span's index. Child
    intervals are merged first, so overlapping children (tasks awaited
    together) are not subtracted twice, and clipped to the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: List[float] = []
    for i, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(max(0.0, (end - start) - covered))
    return out
