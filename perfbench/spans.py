"""Span recording around calls into the program's public functions.

The traced run patches class attributes of the layers it measures with
wrappers that record one span per call: name, start, end, parent span
and the lane's current op (rep or session) number. The parent is the
calling thread's or asyncio task's open span, tracked with a
``ContextVar``, so the depot, server and worker loop threads that run
inside the benchmark process are traced as well. Spans stay in memory
until the run ends. Nothing here is installed in an untraced run.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.stats import self_times

# span record: [name, start, end, parent index or None, op]
Record = List[Any]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Record] = []
        self.op = 0
        self.counts: Dict[str, int] = {}
        self._current: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._lock = threading.Lock()
        self._patched: List[Tuple[type, str, Any]] = []

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _open(self, name: str) -> Tuple[Record, contextvars.Token]:
        rec: Record = [name, 0.0, 0.0, self._current.get(), self.op]
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        token = self._current.set(index)
        rec[1] = time.perf_counter()
        return rec, token

    def _close(self, rec: Record, token: contextvars.Token) -> None:
        rec[2] = time.perf_counter()
        self._current.reset(token)

    def wrap(self, cls: type, attr: str, name: str,
             on_call: Optional[Callable[..., None]] = None,
             on_result: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``cls.attr`` (plain, class- or coroutine method) with a
        span-recording wrapper; ``on_call`` sees the arguments and
        ``on_result`` the return value."""
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(*args, **kwargs)
                rec, token = tracer._open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(rec, token)
                if on_result is not None:
                    on_result(result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(*args, **kwargs)
                rec, token = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(rec, token)
                if on_result is not None:
                    on_result(result)
                return result

        setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patched.append((cls, attr, raw))

    def uninstall(self) -> None:
        for cls, attr, raw in reversed(self._patched):
            setattr(cls, attr, raw)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: call count, total and self seconds, durations."""
        rows = [(r[0], r[1], r[2], r[3]) for r in self.spans]
        selfs = self_times(rows)
        out: Dict[str, Dict[str, Any]] = {}
        for (name, start, end, _parent), own in zip(rows, selfs):
            agg = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                       "durations": []})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += own
            agg["durations"].append(end - start)
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON row per line."""
        with open(path, "w") as fp:
            for name, start, end, parent, op in self.spans:
                fp.write(json.dumps([name, start, end, parent, op]))
                fp.write("\n")
