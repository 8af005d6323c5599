"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

The registry is deliberately tiny and dependency-free.  Three metric
kinds cover everything the edge pipeline needs to meter:

* :class:`Counter` — monotonically increasing totals (requests served,
  cache hits, bytes shipped);
* :class:`Gauge` — additive level quantities (epsilon/delta budget spent);
* :class:`Histogram` — fixed-bucket distributions (per-stage latencies,
  batch sizes).

Every metric merges **additively**: counters and gauges sum, histograms
sum per-bucket counts (bucket bounds must match).  The one exception is
:class:`MaxGauge`, which merges by **maximum** — for high-water-mark
quantities (peak RSS) where a worker's reading is not a contribution to a
sum but a bound the fleet-wide value must dominate.  Additive merge makes
aggregation across process-pool workers deterministic: each worker chunk
returns its registry :meth:`~MetricsRegistry.snapshot` with its results,
and the parent merges the snapshots in *chunk-index order* — the same
schedule-invariance discipline as the per-chunk RNG streams, so the
merged registry is bit-identical for any ``--workers`` count (see
:mod:`repro.parallel.pool`).

Gauges are additive on merge by design: a worker's gauge reading is its
local contribution to a global level (e.g. epsilon spent by the chunk),
not a sample of a shared quantity.

A long-lived registry can also hand out **deltas**:
:meth:`MetricsRegistry.drain` returns only the metrics touched since the
previous drain (in a sparse form of the snapshot) and resets them to
their initial values.  A drained delta carries exactly what a fresh
registry used for the same window would have snapshotted: the same
names (a metric touched only by a zero increment included), the same
values, the same int/float types.  So folding deltas with :meth:`merge`
is bit-identical to folding per-window snapshots, without building a
registry per window.  The sparse form drops empty sections, stores
histogram counts as ``{bucket: count}``, and omits ``bounds`` when they
are :data:`DEFAULT_TIME_BUCKETS`; :meth:`merge` accepts both forms.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MaxGauge",
    "MetricsRegistry",
    "merge_snapshots",
    "quantile_from_histogram",
]

#: Default histogram bounds for latency observations, in seconds.  A
#: rough log ladder from 0.1 ms to 10 s; observations above the last
#: bound land in the overflow bucket.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def drain(self) -> float:
        """The total so far; the counter restarts from int ``0``."""
        value, self.value = self.value, 0
        return value


class Gauge:
    """An additive level quantity (set it, or accumulate into it)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge's level."""
        self.value = float(value)

    def add(self, amount: float) -> None:
        """Shift the gauge's level by ``amount`` (may be negative)."""
        self.value += amount

    def drain(self) -> float:
        """The level so far; the gauge restarts from ``0.0``."""
        value, self.value = self.value, 0.0
        return value


class MaxGauge:
    """A high-water mark: observations keep the maximum ever seen.

    Unlike :class:`Gauge` (additive levels), a max gauge merges by
    ``max`` — the right semantics for per-process peaks such as
    ``process.peak_rss_bytes``, where summing worker readings would
    invent memory nobody allocated.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def observe(self, value: float) -> None:
        """Raise the high-water mark to ``value`` if it is higher."""
        value = float(value)
        if value > self.value:
            self.value = value

    def drain(self) -> float:
        """The mark so far; the gauge restarts from ``0.0``."""
        value, self.value = self.value, 0.0
        return value


class Histogram:
    """A fixed-bucket distribution: cumulative-friendly counts + sum.

    ``bounds`` are inclusive upper bucket bounds; one extra overflow
    bucket catches observations above the last bound, so ``counts`` has
    ``len(bounds) + 1`` slots.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(
        self, name: str, bounds: Tuple[float, ...] = DEFAULT_TIME_BUCKETS
    ) -> None:
        if bounds is not DEFAULT_TIME_BUCKETS:
            if not bounds:
                raise ValueError("histogram needs at least one bucket bound")
            if list(bounds) != sorted(bounds):
                raise ValueError(f"histogram bounds must be sorted, got {bounds}")
            bounds = tuple(float(b) for b in bounds)
        self.name = name
        self.bounds: Tuple[float, ...] = bounds
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def drain(self) -> Dict[str, Any]:
        """The sparse wire form of the distribution so far, then empty it."""
        data: Dict[str, Any] = {
            "counts": {i: c for i, c in enumerate(self.counts) if c},
            "sum": self.total,
            "count": self.count,
        }
        if self.bounds != DEFAULT_TIME_BUCKETS:
            data["bounds"] = list(self.bounds)
        self.counts = [0] * len(self.counts)
        self.total = 0.0
        self.count = 0
        return data


#: A registry snapshot: plain JSON-able nested dicts.
Snapshot = Dict[str, Any]


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Metrics are created on first access; re-requesting a name returns the
    same object.  Requesting an existing histogram with different bounds
    is an error — merge would be ill-defined.  Every access also marks
    the metric as touched for the next :meth:`drain`.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._max_gauges: Dict[str, MaxGauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Metrics accessed since the last drain(), per snapshot section.
        self._touched_counters: Dict[str, Counter] = {}
        self._touched_gauges: Dict[str, Gauge] = {}
        self._touched_max_gauges: Dict[str, MaxGauge] = {}
        self._touched_histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        self._touched_counters[name] = metric
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        self._touched_gauges[name] = metric
        return metric

    def max_gauge(self, name: str) -> MaxGauge:
        """The max gauge registered under ``name`` (created on first use)."""
        metric = self._max_gauges.get(name)
        if metric is None:
            metric = self._max_gauges[name] = MaxGauge(name)
        self._touched_max_gauges[name] = metric
        return metric

    def histogram(
        self, name: str, bounds: Optional[Tuple[float, ...]] = None
    ) -> Histogram:
        """The histogram under ``name`` (created on first use).

        ``bounds`` defaults to :data:`DEFAULT_TIME_BUCKETS`; passing
        different bounds for an existing name raises.
        """
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_TIME_BUCKETS
            )
        elif bounds is not None and tuple(bounds) != metric.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{metric.bounds}, requested {tuple(bounds)}"
            )
        self._touched_histograms[name] = metric
        return metric

    def is_empty(self) -> bool:
        """True when no metric has been registered."""
        return not (
            self._counters or self._gauges or self._max_gauges or self._histograms
        )

    def snapshot(self) -> Snapshot:
        """The registry's full state as sorted, JSON-able primitives."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "max_gauges": {
                name: self._max_gauges[name].value
                for name in sorted(self._max_gauges)
            },
            "histograms": {
                name: {
                    "bounds": list(self._histograms[name].bounds),
                    "counts": list(self._histograms[name].counts),
                    "sum": self._histograms[name].total,
                    "count": self._histograms[name].count,
                }
                for name in sorted(self._histograms)
            },
        }

    def drain(self) -> Snapshot:
        """The metrics touched since the last drain, as a sparse delta.

        Each touched metric reports its value and restarts from its
        initial value (int ``0`` for counters, ``0.0`` for gauges, an
        empty histogram), staying registered; untouched metrics are left
        out, and so are empty sections.  See the module doc for the
        sparse form and why folding deltas equals folding snapshots.
        """
        delta: Snapshot = {}
        sections: Tuple[Tuple[str, Dict[str, Any]], ...] = (
            ("counters", self._touched_counters),
            ("gauges", self._touched_gauges),
            ("max_gauges", self._touched_max_gauges),
            ("histograms", self._touched_histograms),
        )
        for section, touched in sections:
            if touched:
                delta[section] = {
                    name: metric.drain() for name, metric in touched.items()
                }
                touched.clear()
        return delta

    def merge(self, snapshot: Snapshot) -> None:
        """Fold one snapshot or drained delta in (additive, see module doc).

        Merging snapshots in a fixed order (chunk index) is what keeps
        aggregation independent of the worker count: float sums are
        accumulated in the same association no matter which process
        produced which snapshot.  A histogram with no ``bounds`` entry
        (sparse form) has :data:`DEFAULT_TIME_BUCKETS`; bounds that differ
        from an existing histogram's raise.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).value += value
        for name, value in snapshot.get("max_gauges", {}).items():
            # Max, not sum: a peak observed in any worker bounds the fleet.
            self.max_gauge(name).observe(value)
        for name, data in snapshot.get("histograms", {}).items():
            bounds = data.get("bounds")
            hist = self.histogram(
                name, DEFAULT_TIME_BUCKETS if bounds is None else tuple(bounds)
            )
            counts = data["counts"]
            if isinstance(counts, dict):  # sparse: {bucket: count}
                for i, c in counts.items():
                    hist.counts[int(i)] += c
            else:
                for i, c in enumerate(counts):
                    hist.counts[i] += c
            hist.total += data["sum"]
            hist.count += data["count"]

    def clear(self) -> None:
        """Drop every registered metric."""
        every: Tuple[Dict[str, Any], ...] = (
            self._counters, self._gauges, self._max_gauges, self._histograms,
            self._touched_counters, self._touched_gauges,
            self._touched_max_gauges, self._touched_histograms,
        )
        for metrics in every:
            metrics.clear()


def merge_snapshots(snapshots: Iterable[Snapshot]) -> Snapshot:
    """Fold an ordered sequence of snapshots into one snapshot."""
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.merge(snap)
    return merged.snapshot()


def quantile_from_histogram(data: Dict[str, Any], q: float) -> float:
    """Estimate the ``q``-quantile from a snapshotted histogram dict.

    Prometheus-style bucket interpolation: find the bucket the quantile
    rank lands in and interpolate linearly inside it (the first bucket
    interpolates from 0, the overflow bucket reports the last bound —
    the histogram cannot resolve beyond its ladder).  Returns 0.0 for an
    empty histogram.  This is what turns the additive-merge histograms
    (``pin_seconds``, serve latency) into p50/p99 SLO numbers.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    bounds = [float(b) for b in data.get("bounds", [])]
    counts = [int(c) for c in data.get("counts", [])]
    total = int(data.get("count", 0))
    if total <= 0 or not bounds:
        return 0.0
    rank = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        prev_cumulative = cumulative
        cumulative += count
        if cumulative >= rank and count > 0:
            if i >= len(bounds):  # overflow bucket: unresolvable above it
                return bounds[-1]
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i]
            fraction = (rank - prev_cumulative) / count
            return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
    return bounds[-1]
