"""A dependency-free, process-local, *mergeable* metrics registry.

The serving stack runs across an event loop, handler threads, and
process-pool workers, so one global mutable registry per process is the
wrong end state on its own — worker processes would silently count into
registries nobody scrapes.  The design here mirrors how degradation
events already travel (``meta.degraded``): each worker builds a tiny
local :class:`MetricsRegistry`, takes a :meth:`~MetricsRegistry.snapshot`
(plain JSON types, safe across the pickle/JSON pool boundary), and the
parent :meth:`~MetricsRegistry.merge`\\ s the delta into the registry the
``/v1/metrics`` route renders.

Three metric kinds, deliberately small:

* :class:`Counter` — monotonic float ``inc()``.
* :class:`Gauge` — last-write-wins ``set()``.
* :class:`Histogram` — bounded buckets (cumulative-``le`` style like
  Prometheus), plus sum/count/max, with :meth:`Histogram.percentile`
  deriving p50/p95/p99 by linear interpolation inside the bucket that
  crosses the target rank.

Everything is guarded by one registry-wide lock; observations are a
dict lookup plus a few float adds, cheap enough for the cached HTTP
path (the bench gate pins instrumentation overhead <5%).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "global_registry",
    "reset_global_registry",
]

#: Seconds; spans 0.5 ms .. 10 s, enough for a cached splice (~0.1 ms)
#: and a cold mpLP storm alike.  The implicit +Inf bucket catches the rest.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "labels", "value", "_lock")
    kind = "counter"

    def __init__(self, name: str, labels: _LabelKey, lock: threading.Lock):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """Point-in-time value (last write wins, including across merges)."""

    __slots__ = ("name", "labels", "value", "_lock")
    kind = "gauge"

    def __init__(self, name: str, labels: _LabelKey, lock: threading.Lock):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Cumulative-bucket histogram with derivable percentiles.

    ``bounds`` are upper bucket edges in ascending order; an implicit
    +Inf bucket always exists at the end, so no observation is dropped.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count",
                 "max", "_lock")
    kind = "histogram"

    def __init__(self, name: str, labels: _LabelKey, lock: threading.Lock,
                 bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram bounds must be strictly ascending: {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0
        self.max = 0.0
        self._lock = lock

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1
            if value > self.max:
                self.max = value

    def percentile(self, q: float) -> float:
        """Rank-``q`` estimate (``0 < q <= 1``) by in-bucket interpolation.

        The overflow (+Inf) bucket reports the observed maximum — the
        honest answer when the target rank lands beyond the last bound.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("percentile q must be in (0, 1]")
        with self._lock:
            counts = list(self.bucket_counts)
            total = self.count
            observed_max = self.max
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0.0
        lower = 0.0
        for index, bucket_count in enumerate(counts):
            upper = self.bounds[index] if index < len(self.bounds) else None
            if cumulative + bucket_count >= target:
                if upper is None:  # landed in +Inf: report the observed max
                    return observed_max
                if bucket_count == 0:
                    return upper
                fraction = (target - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
            if upper is not None:
                lower = upper
        return observed_max


class MetricsRegistry:
    """A named family of counters/gauges/histograms, keyed by labels.

    ``counter/gauge/histogram`` return a live metric object — call sites
    cache these to skip the key-building dict lookup on hot paths.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, _LabelKey], Counter | Gauge | Histogram] = {}

    # -- accessors ----------------------------------------------------------

    def _get(self, factory, name: str, labels: Mapping[str, str], **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(name, key[1], self._lock, **kwargs)
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        metric = self._get(Counter, name, labels)
        if not isinstance(metric, Counter):
            raise TypeError(f"{name} already registered as a {metric.kind}")
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        metric = self._get(Gauge, name, labels)
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name} already registered as a {metric.kind}")
        return metric

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None,
                  **labels: str) -> Histogram:
        metric = self._get(Histogram, name, labels,
                           bounds=buckets or DEFAULT_LATENCY_BUCKETS)
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name} already registered as a {metric.kind}")
        return metric

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        with self._lock:
            items = sorted(self._metrics.items())
        return iter(metric for _, metric in items)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # -- snapshot / merge (the pool-worker delta protocol) ------------------

    def snapshot(self) -> dict:
        """Plain-JSON copy of every metric, suitable for the pool boundary."""
        out: dict[str, list] = {"counters": [], "gauges": [], "histograms": []}
        with self._lock:
            for (name, labels), metric in sorted(self._metrics.items()):
                if isinstance(metric, Counter):
                    out["counters"].append(
                        {"name": name, "labels": list(map(list, labels)),
                         "value": metric.value})
                elif isinstance(metric, Gauge):
                    out["gauges"].append(
                        {"name": name, "labels": list(map(list, labels)),
                         "value": metric.value})
                else:
                    out["histograms"].append(
                        {"name": name, "labels": list(map(list, labels)),
                         "bounds": list(metric.bounds),
                         "bucket_counts": list(metric.bucket_counts),
                         "sum": metric.sum, "count": metric.count,
                         "max": metric.max})
        return out

    def merge(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` delta in: add counters and histogram
        buckets element-wise, last-write gauges.  Lossless for counts —
        the concurrency tests pin ``sum(merged buckets) == observations``.
        """
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], **dict(entry["labels"])).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], **dict(entry["labels"])).set(entry["value"])
        for entry in snapshot.get("histograms", ()):
            bounds = tuple(entry["bounds"])
            hist = self.histogram(entry["name"], buckets=bounds,
                                  **dict(entry["labels"]))
            if hist.bounds != bounds:
                raise ValueError(
                    f"histogram {entry['name']}: merge bounds {bounds} != "
                    f"registered bounds {hist.bounds}")
            with hist._lock:
                for index, bucket_count in enumerate(entry["bucket_counts"]):
                    hist.bucket_counts[index] += bucket_count
                hist.sum += entry["sum"]
                hist.count += entry["count"]
                if entry["max"] > hist.max:
                    hist.max = entry["max"]

    # -- human-facing summary (Session.metrics / repro-tile stats) ----------

    def summary(self) -> dict:
        """Compact JSON view: counters/gauges by flat name, histograms with
        count/sum and p50/p95/p99 already derived."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self:
            flat = metric.name
            if metric.labels:
                flat += "{" + ",".join(f"{k}={v}" for k, v in metric.labels) + "}"
            if isinstance(metric, Counter):
                out["counters"][flat] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][flat] = metric.value
            else:
                out["histograms"][flat] = {
                    "count": metric.count,
                    "sum": round(metric.sum, 6),
                    "max": round(metric.max, 6),
                    "p50": round(metric.percentile(0.50), 6),
                    "p95": round(metric.percentile(0.95), 6),
                    "p99": round(metric.percentile(0.99), 6),
                }
        return out


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry: trace stages and merged worker deltas."""
    return _GLOBAL


def reset_global_registry() -> MetricsRegistry:
    """Swap in a fresh global registry (test isolation); returns the new one."""
    global _GLOBAL
    _GLOBAL = MetricsRegistry()
    return _GLOBAL


def merge_worker_delta(delta: Mapping | None) -> None:
    """Fold one pool worker's snapshot into the global registry.

    The counted merge (``repro_worker_merges_total``) is the audit trail
    the ``/v1/metrics`` acceptance bar asks for: scrape-side you can
    check that every pool dispatch shipped its observations home.
    """
    if not delta:
        return
    registry = global_registry()
    registry.merge(delta)
    registry.counter("repro_worker_merges_total").inc()
