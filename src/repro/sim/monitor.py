"""Metrics collection for experiments.

Four primitives, mirroring what the paper's figures plot:

* :class:`Counter` — monotonically increasing event counts.
* :class:`Gauge` — a value that moves up and down.
* :class:`Histogram` — latency distributions (mean / percentiles / CDF).
* :class:`TimeSeries` — per-second-bucketed rates, used for the
  "throughput over time" style figures (Fig 2, 6, 8).

A :class:`Monitor` is a named registry of these, shared by the actors of
one experiment.  Metrics take optional **labels** (Prometheus style):
``monitor.counter("fault", kind="link_cut")`` registers an independent
counter per label combination under one base name, replacing the old
``f"fault:{kind}"`` string-key convention.  ``labeled_counters(name)`` /
``labeled_series(name)`` read back all label combinations of a base
name, and :meth:`Monitor.merge` folds one monitor into another so
per-actor monitors can combine into an experiment-wide snapshot.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Iterable, Optional


def _label_suffix(labels: dict) -> str:
    """Canonical ``{k=v,...}`` rendering with sorted keys, '' if empty."""
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


def _label_key(labels: dict):
    """The key used when reading labels back: the bare value for a
    single label, a sorted value tuple for several."""
    if len(labels) == 1:
        return next(iter(labels.values()))
    return tuple(labels[k] for k in sorted(labels))


class Counter:
    """Monotonic event counter."""

    def __init__(self, name: str, labels: Optional[dict] = None):
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """A point-in-time value."""

    def __init__(self, name: str, labels: Optional[dict] = None):
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Stores raw observations; computes summary statistics on demand.

    Raw storage keeps percentile computation exact, which matters for the
    p95 whiskers in Fig 4 and the CDFs in Fig 5.  Experiments are small
    enough (≤ a few million samples) that exactness is affordable, the
    more so as the samples are packed doubles (8 bytes each, not a float
    object and a pointer).
    """

    def __init__(self, name: str, labels: Optional[dict] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._samples = array("d")
        self._sorted: Optional[array] = None

    def observe(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(values)
        self._sorted = None

    # Batch-observe under the conventional name; kept as a true alias of
    # ``extend`` so the two can never drift apart.
    observe_many = extend

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def _ensure_sorted(self) -> array:
        if self._sorted is None:
            self._sorted = array("d", sorted(self._samples))
        return self._sorted

    def mean(self) -> float:
        if not self._samples:
            return math.nan
        # fsum, not sum: builtin sum() became compensated in CPython 3.12,
        # so it rounds differently across interpreters; fsum is exact on all.
        return math.fsum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """Exact percentile with linear interpolation; ``p`` in [0, 100]."""
        if not self._samples:
            return math.nan
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        data = self._ensure_sorted()
        if len(data) == 1:
            return data[0]
        rank = (p / 100.0) * (len(data) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return data[low]
        frac = rank - low
        value = data[low] * (1 - frac) + data[high] * frac
        # Clamp: float interpolation may overshoot by an ulp for large values.
        return min(max(value, data[low]), data[high])

    def cdf(self, points: int = 100) -> list[tuple[float, float]]:
        """``points`` evenly spaced (value, cumulative fraction) pairs."""
        if not self._samples:
            return []
        data = self._ensure_sorted()
        lo, hi = data[0], data[-1]
        if lo == hi:
            return [(lo, 1.0)]
        result = []
        for i in range(points + 1):
            value = lo + (hi - lo) * i / points
            frac = bisect.bisect_right(data, value) / len(data)
            result.append((value, frac))
        return result

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class TimeSeries:
    """Events bucketed into fixed-width virtual-time windows.

    ``record(t, amount)`` adds ``amount`` to the bucket containing time
    ``t``; ``rates()`` yields (bucket_start, amount / width) pairs —
    i.e. per-second rates when ``width == 1``.
    """

    def __init__(self, name: str, width: float = 1.0, labels: Optional[dict] = None):
        if width <= 0:
            raise ValueError("bucket width must be positive")
        self.name = name
        self.width = width
        self.labels = dict(labels or {})
        self._buckets: dict[int, float] = {}

    def record(self, time: float, amount: float = 1.0) -> None:
        if time < 0:
            raise ValueError("time must be non-negative")
        index = int(time // self.width)
        self._buckets[index] = self._buckets.get(index, 0.0) + amount

    def merge_from(self, other: "TimeSeries") -> None:
        """Add another series' buckets into this one (widths must match)."""
        if other.width != self.width:
            raise ValueError(
                f"cannot merge series with widths {self.width} and {other.width}"
            )
        for index, total in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0.0) + total

    def buckets(self) -> list[tuple[float, float]]:
        """Sorted (bucket_start_time, total) pairs, gaps filled with 0."""
        if not self._buckets:
            return []
        first = min(self._buckets)
        last = max(self._buckets)
        return [
            (i * self.width, self._buckets.get(i, 0.0)) for i in range(first, last + 1)
        ]

    def rates(self) -> list[tuple[float, float]]:
        """Per-unit-time rates for each bucket."""
        return [(t, total / self.width) for t, total in self.buckets()]

    def total(self) -> float:
        return sum(self._buckets.values())

    def value_at(self, time: float) -> float:
        return self._buckets.get(int(time // self.width), 0.0)


class Monitor:
    """Registry of named metrics shared by one experiment.

    Registry keys are ``name`` plus a canonical sorted rendering of the
    labels, so ``counter("tput", partition="P0")`` and
    ``counter("tput", partition="P1")`` are distinct metrics sharing a
    base name.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, TimeSeries] = {}

    # The accessors below are on the per-event hot path (actors resolve
    # counters by name on every increment), so the common cases — no
    # labels, metric already registered — do a single dict probe and
    # skip the label-suffix rendering entirely.

    def counter(self, name: str, **labels) -> Counter:
        key = name + _label_suffix(labels) if labels else name
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, labels)
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = name + _label_suffix(labels) if labels else name
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(name, labels)
        return metric

    def histogram(self, name: str, **labels) -> Histogram:
        key = name + _label_suffix(labels) if labels else name
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(name, labels)
        return metric

    def series(self, name: str, width: float = 1.0, **labels) -> TimeSeries:
        key = name + _label_suffix(labels) if labels else name
        metric = self._series.get(key)
        if metric is None:
            metric = self._series[key] = TimeSeries(name, width, labels)
        return metric

    def counters(self) -> dict[str, int]:
        return {key: c.value for key, c in self._counters.items()}

    def labeled_counters(self, name: str) -> dict:
        """Values of every labeled counter under a base name, keyed by
        label value (single label) or sorted label-value tuple."""
        return {
            _label_key(c.labels): c.value
            for c in self._counters.values()
            if c.name == name and c.labels
        }

    def labeled_series(self, name: str) -> dict:
        """Every labeled series under a base name, keyed like
        :meth:`labeled_counters`."""
        return {
            _label_key(s.labels): s
            for s in self._series.values()
            if s.name == name and s.labels
        }

    def merge(self, other: "Monitor") -> "Monitor":
        """Fold another monitor's metrics into this one and return self.

        Counters and gauges add, histograms concatenate samples, series
        add bucket totals (matching widths required).  Lets per-actor
        monitors combine into one experiment-wide snapshot without
        string-prefix hacks.
        """
        for key, counter in other._counters.items():
            mine = self._counters.get(key)
            if mine is None:
                mine = self._counters.setdefault(key, Counter(counter.name, counter.labels))
            mine.inc(counter.value)
        for key, gauge in other._gauges.items():
            mine = self._gauges.get(key)
            if mine is None:
                mine = self._gauges.setdefault(key, Gauge(gauge.name, gauge.labels))
            mine.add(gauge.value)
        for key, hist in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                mine = self._histograms.setdefault(key, Histogram(hist.name, hist.labels))
            mine.extend(hist._samples)
        for key, series in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                mine = self._series.setdefault(
                    key, TimeSeries(series.name, series.width, series.labels)
                )
            mine.merge_from(series)
        return self

    def snapshot(self) -> dict[str, dict]:
        """A JSON-friendly dump of everything collected so far."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {n: h.summary() for n, h in self._histograms.items()},
            "series": {n: s.buckets() for n, s in self._series.items()},
        }
