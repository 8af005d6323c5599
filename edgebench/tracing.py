"""Span recording around calls into the program's layers.

:class:`Tracer` replaces named attributes of program classes, modules or
single objects with timing wrappers and puts every original back on
exit, so the program itself carries no tracing code.  Each call becomes
one span (name, start, end, parent span); the parent is the innermost
traced call still open, so a layer's self time is its span minus the
spans nested directly inside it.  Spans are kept in typed arrays, which
the garbage collector does not traverse, so recording them does not
lengthen collections in the traced run.

:class:`GCMonitor` times every collection through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

_MISSING = object()


@dataclass(frozen=True)
class SpanStats:
    """Aggregate of every span with one name."""

    count: int
    total_s: float
    self_s: float

    @property
    def mean_us(self) -> float:
        """Mean inclusive time per call in microseconds (0 without calls)."""
        return self.total_s / self.count * 1e6 if self.count else 0.0


class Tracer:
    """Install timing wrappers; restore the originals on exit."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._start = array("d")
        self._end = array("d")
        self._name = array("q")
        self._parent = array("q")
        self._open: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        rename: Optional[Callable[[Any], Optional[str]]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is a class, a module or one object.  ``rename`` may
        return another span name for a call, chosen from its result.
        """
        own = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr) if own is _MISSING else own
        name_id = self._id(name)
        start, end, names, parents, open_ = (
            self._start, self._end, self._name, self._parent, self._open
        )
        ids = self._id

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(start)
            parents.append(open_[-1] if open_ else -1)
            names.append(name_id)
            start.append(0.0)
            end.append(0.0)
            open_.append(index)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end[index] = time.perf_counter()
                start[index] = t0
                open_.pop()
            if rename is not None:
                other = rename(result)
                if other is not None:
                    names[index] = ids(other)
            return result

        self._patches.append((owner, attr, own))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def stats(self) -> Dict[str, SpanStats]:
        """Per-name count, inclusive time and self time of all spans."""
        n = len(self._start)
        out = {name: SpanStats(0, 0.0, 0.0) for name in self._names}
        if n == 0:
            return out
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        name = np.frombuffer(self._name, dtype=np.int64)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=n
        )
        self_time = duration - children
        k = len(self._names)
        counts = np.bincount(name, minlength=k)
        totals = np.bincount(name, weights=duration, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        for i, label in enumerate(self._names):
            out[label] = SpanStats(int(counts[i]), float(totals[i]), float(selfs[i]))
        return out


class GCMonitor:
    """Count and time garbage collections while installed."""

    def __init__(self) -> None:
        self.pauses = array("d")
        self.gen2 = 0
        self._t0 = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        self.pauses.append(time.perf_counter() - self._t0)
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GCMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._callback)
