"""Counters, gauges, and fixed-bucket histograms.

The registry is designed for the simulator's hot paths: metric objects
are looked up once (at component construction) and then updated with
plain attribute arithmetic -- no string formatting, no locking, no
per-sample allocation.  Histograms use fixed bucket bounds so that
recording is O(log buckets) and memory is O(buckets) regardless of how
many billions of observations a long soak run makes; percentiles are
reconstructed from the bucket counts with linear interpolation, the
same trade Prometheus histograms make.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "sample_p99",
    "split_labeled_name",
]


def sample_p99(values: Iterable[float]) -> float:
    """p99 of raw samples: the sorted sample at index
    ``int(0.99 * (n - 1))``, or 0.0 when there are none."""
    ordered = sorted(values)
    return ordered[int(0.99 * (len(ordered) - 1))] if ordered else 0.0


def _geometric_buckets(lo: float, hi: float, per_decade: int) -> tuple:
    """Bucket upper bounds from ``lo`` to ``hi``, ``per_decade`` per 10x."""
    n = int(round(math.log10(hi / lo) * per_decade))
    return tuple(lo * 10.0 ** (i / per_decade) for i in range(n + 1))


def _label_key(labels: Dict[str, str]) -> tuple:
    """Canonical (sorted) identity of one label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _labeled_name(base: str, labels: Dict[str, str]) -> str:
    """``base{k="v",...}`` -- the flat snapshot key of a labeled child."""
    inner = ",".join(f'{k}="{v}"' for k, v in _label_key(labels))
    return f"{base}{{{inner}}}"


def split_labeled_name(name: str) -> str:
    """The base (family) name of a possibly-labeled metric name."""
    brace = name.find("{")
    return name if brace < 0 else name[:brace]


class _LabeledMixin:
    """Shared ``labels()`` machinery for Counter/Gauge/Histogram.

    A metric without labels is a *family*: calling
    ``metric.labels(shard="s3")`` returns (creating on first use) a child
    of the same class named ``metric{shard="s3"}``.  Children update
    independently of the family -- the family's own value stays whatever
    direct ``inc``/``set``/``observe`` calls made it -- which keeps label
    fan-out allocation-free on the hot path: look the child up once at
    construction, then update plain attributes.
    """

    __slots__ = ()

    def labels(self, **labels: str):
        if not labels:
            raise ValueError(f"metric {self.name!r}: labels() needs at "
                             f"least one label")
        if self._labels is not None:
            raise ValueError(f"metric {self.name!r} is already labeled; "
                             f"nested labels are not supported")
        key = _label_key(labels)
        if self._children is None:
            self._children = {}
        child = self._children.get(key)
        if child is None:
            child = self._make_child(labels)
            self._children[key] = child
        return child

    def children(self) -> list:
        """Labeled children, sorted by label identity (deterministic)."""
        if not self._children:
            return []
        return [self._children[key] for key in sorted(self._children)]


#: 100 ns .. 10 s, eight buckets per decade: fine enough to resolve the
#: paper's 5 us vs 7.1 us optimization steps, coarse enough to stay tiny.
DEFAULT_LATENCY_BUCKETS = _geometric_buckets(1e-7, 10.0, per_decade=8)


class Counter(_LabeledMixin):
    """A monotonically increasing count (ops issued, bytes moved)."""

    __slots__ = ("name", "value", "_labels", "_children")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.value = 0.0
        self._labels = dict(labels) if labels else None
        self._children = None

    def _make_child(self, labels: Dict[str, str]) -> "Counter":
        return Counter(_labeled_name(self.name, labels), labels)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def to_dict(self) -> dict:
        out = {"type": "counter", "value": self.value}
        if self._labels:
            out["labels"] = dict(sorted(self._labels.items()))
        return out


class Gauge(_LabeledMixin):
    """An instantaneous level (backlog depth, in-flight ops).

    Tracks the running maximum alongside the current value so a snapshot
    taken at the end of a run still shows the high-water mark.
    """

    __slots__ = ("name", "value", "max_value", "_labels", "_children")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.value = 0.0
        self.max_value = 0.0
        self._labels = dict(labels) if labels else None
        self._children = None

    def _make_child(self, labels: Dict[str, str]) -> "Gauge":
        return Gauge(_labeled_name(self.name, labels), labels)

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def to_dict(self) -> dict:
        out = {"type": "gauge", "value": self.value, "max": self.max_value}
        if self._labels:
            out["labels"] = dict(sorted(self._labels.items()))
        return out


class Histogram(_LabeledMixin):
    """Fixed-bucket distribution with percentile reconstruction.

    ``bounds`` are bucket *upper* edges; observations above the last
    bound land in a +Inf overflow bucket.  Exact count/sum/min/max are
    kept alongside, so means are exact and only percentiles are
    bucket-quantized.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "count", "sum",
                 "min", "max", "_labels", "_children")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 labels: Optional[Dict[str, str]] = None):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._labels = dict(labels) if labels else None
        self._children = None

    def _make_child(self, labels: Dict[str, str]) -> "Histogram":
        # Children inherit the family's bucket layout, so merging and
        # cross-shard comparisons always line up.
        return Histogram(_labeled_name(self.name, labels), self.bounds,
                         labels)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect.bisect_left(self.bounds, value)
        if index == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[index] += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of observations in one vectorized pass.

        Bucket placement uses ``searchsorted(side='left')``, which agrees
        with :meth:`observe`'s ``bisect_left`` exactly, and the batch sum
        is accumulated left to right, so on a fresh histogram the result
        is bit-identical to a per-sample :meth:`observe` loop -- the
        contract the bench-blob replay path relies on.
        """
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        self.count += int(arr.size)
        # builtins.sum over the list is a sequential (left-to-right) C
        # loop; numpy's pairwise summation would differ in the last ulp.
        self.sum += sum(arr.tolist())
        lo = float(arr.min())
        hi = float(arr.max())
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        indices = np.searchsorted(self.bounds, arr, side="left")
        per_bucket = np.bincount(indices, minlength=len(self.bounds) + 1)
        self.overflow += int(per_bucket[len(self.bounds)])
        counts = self.counts
        for index in np.flatnonzero(per_bucket[:len(self.bounds)]):
            counts[index] += int(per_bucket[index])

    def merge_dict(self, blob: dict) -> None:
        """Fold a :meth:`to_dict` snapshot from another histogram in.

        Used by the sweep executor to replay a worker's (or a cached
        run's) metrics into the parent registry.  The snapshot's sparse
        bucket keys are matched against this histogram's bounds; a key
        that does not correspond to any bound means the histograms were
        built with different bucket layouts, which is a caller bug.
        """
        if not blob.get("count"):
            return
        self.count += blob["count"]
        self.sum += blob["sum"]
        if blob["min"] < self.min:
            self.min = blob["min"]
        if blob["max"] > self.max:
            self.max = blob["max"]
        key_to_index = {f"{upper:.3e}": i
                        for i, upper in enumerate(self.bounds)}
        for key, bucket_count in blob["buckets"].items():
            if key == "+inf":
                self.overflow += bucket_count
            else:
                try:
                    self.counts[key_to_index[key]] += bucket_count
                except KeyError:
                    raise ValueError(
                        f"histogram {self.name!r}: snapshot bucket {key} "
                        f"does not match this histogram's bounds") from None

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``0 <= q <= 100``).

        Linear interpolation inside the bucket holding the target rank;
        clamped to the exact observed min/max so single-bucket
        distributions still report sane numbers.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} out of [0, 100]")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        seen = 0
        lower = 0.0
        for upper, bucket_count in zip(self.bounds, self.counts):
            if bucket_count:
                seen += bucket_count
                if seen >= rank:
                    fraction = 1.0 - (seen - rank) / bucket_count
                    estimate = lower + fraction * (upper - lower)
                    return min(max(estimate, self.min), self.max)
            lower = upper
        return self.max  # rank fell in the overflow bucket

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def to_dict(self) -> dict:
        # Sparse encoding: only non-empty buckets, keyed by upper bound.
        sparse = {f"{upper:.3e}": count
                  for upper, count in zip(self.bounds, self.counts) if count}
        if self.overflow:
            sparse["+inf"] = self.overflow
        out = {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.p50,
            "p99": self.p99,
            "buckets": sparse,
        }
        if self.bounds != DEFAULT_LATENCY_BUCKETS:
            # Non-default layouts carry their bounds so merge_snapshot
            # can rebuild the histogram in a fresh registry; default
            # layouts stay compact (and byte-compatible with pre-existing
            # benchmark blobs).
            out["bounds"] = list(self.bounds)
        if self._labels:
            out["labels"] = dict(sorted(self._labels.items()))
        return out


class MetricsRegistry:
    """Get-or-create home for every metric of one simulation run.

    Names are dotted paths (``engine.op_latency``,
    ``device.ssd.service_time``); the snapshot keeps them flat, which is
    what the benchmark JSON blobs and the CLI table both want.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get_or_create(self, name: str, kind, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)

    def get(self, name: str):
        return self._metrics.get(name)

    def snapshot(self) -> Dict[str, dict]:
        flat: Dict[str, dict] = {}
        for name, metric in self._metrics.items():
            flat[name] = metric.to_dict()
            for child in metric.children():
                flat[child.name] = child.to_dict()
        return {name: flat[name] for name in sorted(flat)}

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram buckets add; gauges take the snapshot's
        value (and the max of the high-water marks), matching what a
        sequential run that ``set()`` them in the same order would show.
        Labeled entries (``name{k="v"}`` keys carrying a ``labels``
        dict) are routed back through ``family.labels(...)``, so
        snapshot -> merge round-trips label structure, not just flat
        names.  Merging per-task snapshots in task order is how the
        sweep executor makes serial and parallel runs produce the same
        registry contents.
        """
        for name, blob in snapshot.items():
            kind = blob["type"]
            labels = blob.get("labels")
            base = split_labeled_name(name) if labels else name
            if kind == "counter":
                counter = self.counter(base)
                if labels:
                    counter = counter.labels(**labels)
                counter.inc(blob["value"])
            elif kind == "gauge":
                gauge = self.gauge(base)
                if labels:
                    gauge = gauge.labels(**labels)
                gauge.set(blob["value"])
                if blob["max"] > gauge.max_value:
                    gauge.max_value = blob["max"]
            elif kind == "histogram":
                bounds = blob.get("bounds", DEFAULT_LATENCY_BUCKETS)
                histogram = self.histogram(base, bounds)
                if labels:
                    histogram = histogram.labels(**labels)
                histogram.merge_dict(blob)
            else:
                raise ValueError(
                    f"metric {name!r}: unknown snapshot type {kind!r}")

    # ------------------------------------------------------------------
    # Environment integration
    # ------------------------------------------------------------------

    def install(self, env) -> "MetricsRegistry":
        """Attach this registry to ``env`` so components built afterwards
        instrument themselves.  Deliberately does *not* touch
        ``env.on_process_failure``: installing metrics must never change
        failure semantics (the kernel already counts failures in its
        event-loop stats)."""
        env.metrics = self
        return self


def registry_of(env) -> Optional[MetricsRegistry]:
    """The registry installed on ``env``, or None.

    Components call this once at construction; the ``getattr`` default
    keeps old hand-built Environments (tests, notebooks) working.
    """
    return getattr(env, "metrics", None)
