"""Observability for the scheduling service: counters, histograms, gauges.

The service records per-endpoint request counters, service-time
histograms (log-spaced buckets, so p50/p99 stay meaningful from
microseconds to seconds), and point-in-time gauges (open sessions,
aggregate verification cache hits).  A :class:`ServiceMetrics`
snapshot freezes all of it into one typed, JSON-able value — the
service's ``metrics`` endpoint is exactly ``ServiceMetrics.to_json``.

Recording is lock-protected and cheap (one bisect + integer bumps per
request); nothing here touches wall-clock time itself — callers pass
measured durations in.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping

__all__ = ["LatencyHistogram", "ServiceMetrics", "MetricsRecorder"]


def _log_bounds() -> tuple[float, ...]:
    """Bucket upper bounds: 1 µs .. ~60 s, four buckets per decade."""
    bounds = []
    value = 1e-6
    while value < 60.0:
        bounds.append(value)
        value *= 10 ** 0.25
    bounds.append(60.0)
    return tuple(bounds)


_BOUNDS = _log_bounds()


@dataclass(frozen=True)
class LatencyHistogram:
    """A frozen latency distribution over log-spaced buckets.

    Attributes:
        counts: observations per bucket, aligned with ``bounds``; the
            final bucket is the overflow (everything above the last
            bound).
        bounds: bucket upper bounds in seconds, ascending.
        total: observation count.
        sum_seconds: sum of all observed durations.
    """

    counts: tuple[int, ...]
    bounds: tuple[float, ...]
    total: int
    sum_seconds: float

    def quantile(self, q: float) -> float:
        """The q-quantile in seconds (0 with no observations).

        Resolved to the upper bound of the bucket holding the rank —
        a deterministic, conservative estimate (never under-reports a
        latency by more than one bucket width, ~78% in log space).  A
        rank landing in the overflow bucket (observations above the
        last bound) reports ``float("inf")``: the histogram genuinely
        does not know how slow those requests were, and reporting the
        last bound would under-report by an unbounded amount.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.total == 0:
            return 0.0
        # math.ceil, not int(x + 0.999999): once q * total is an exact
        # integer large enough that adding 0.999999 crosses the float
        # rounding step (or an inexact product sits just under one),
        # the additive trick lands on the wrong rank.
        rank = max(1, math.ceil(q * self.total))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return (self.bounds[index] if index < len(self.bounds)
                        else math.inf)
        return math.inf

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        return self.sum_seconds / self.total if self.total else 0.0

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """The combined distribution (buckets must be aligned)."""
        if self.bounds != other.bounds \
                or len(self.counts) != len(other.counts):
            raise ValueError("cannot merge histograms with different "
                             "bucket bounds")
        return LatencyHistogram(
            counts=tuple(a + b for a, b
                         in zip(self.counts, other.counts)),
            bounds=self.bounds,
            total=self.total + other.total,
            sum_seconds=self.sum_seconds + other.sum_seconds)

    @property
    def overflow(self) -> int:
        """Observations above the last bound (the unbounded bucket)."""
        return self.counts[-1] if len(self.counts) > len(self.bounds) else 0

    def to_dict(self) -> dict:
        """JSON-able form, carrying the raw buckets.

        ``bounds``/``counts``/``sum_s`` make the payload lossless:
        :meth:`from_dict` reconstructs the histogram exactly, so a
        client can :meth:`merge` histograms fetched over the wire
        instead of averaging their quantiles.  Infinite quantiles (the
        rank fell in the overflow bucket) serialize as ``None`` —
        strict JSON has no ``Infinity`` — with the ``overflow`` count
        carrying the honest story.
        """
        return {
            "total": self.total,
            "mean_s": self.mean,
            "p50_s": _json_seconds(self.p50),
            "p99_s": _json_seconds(self.p99),
            "overflow": self.overflow,
            "sum_s": self.sum_seconds,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`to_dict` output.

        Raises:
            ValueError: when the payload is missing the raw buckets or
                they disagree with the recorded total.
        """
        try:
            bounds = tuple(float(bound) for bound in data["bounds"])
            counts = tuple(int(count) for count in data["counts"])
            total = int(data["total"])
            sum_seconds = float(data["sum_s"])
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"not a histogram payload: {error!r}") from error
        if len(counts) not in (len(bounds), len(bounds) + 1):
            raise ValueError(
                f"counts/bounds misaligned: {len(counts)} counts for "
                f"{len(bounds)} bounds")
        if sum(counts) != total:
            raise ValueError(
                f"counts sum to {sum(counts)} but total records {total}")
        return cls(counts=counts, bounds=bounds, total=total,
                   sum_seconds=sum_seconds)


def _json_seconds(value: float) -> float | None:
    """A strict-JSON-safe seconds value (``inf`` becomes ``None``)."""
    return None if math.isinf(value) else value


@dataclass(frozen=True)
class ServiceMetrics:
    """One point-in-time snapshot of everything the service observes.

    Attributes:
        counters: monotonically increasing event counts — per-endpoint
            ``{endpoint}.admitted/completed/failed``, rejections
            (``rejected.deadline``, ``rejected.closed``), and batcher
            activity: ``batch.dispatches`` (requests run outside a
            coalesced assign run, plus one per coalesced run),
            ``batch.batched_dispatches`` (dispatches that coalesced
            more than one assign), ``batch.coalesced_requests``
            (assigns answered by those) and
            ``batch.certificate_fast_path`` (verifies answered from a
            certificate an earlier verify built: ``source ==
            "certificate"`` with no point checked).
        latencies: per-endpoint service-time distributions, measured
            from admission (``call`` or ``bulk``) to completion.
        gauges: point-in-time readings — ``sessions.open``, the
            aggregate verification ``cache.hits`` / ``cache.misses``
            over every open session, and ``process.cpu_us``, the CPU
            time the serving process has used (``time.process_time``,
            in whole microseconds).
    """

    counters: Mapping[str, int]
    latencies: Mapping[str, LatencyHistogram]
    gauges: Mapping[str, int]

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def to_dict(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "latencies": {name: histogram.to_dict()
                          for name, histogram
                          in sorted(self.latencies.items())},
            "gauges": dict(sorted(self.gauges.items())),
        }

    def to_json(self) -> str:
        """The JSON metrics endpoint payload."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServiceMetrics":
        """Rebuild a snapshot from :meth:`to_dict` output.

        The latency payloads must carry their raw ``bounds``/``counts``
        (every snapshot this build emits does) — quantiles alone cannot
        reconstruct a mergeable histogram.
        """
        try:
            counters = {str(k): int(v)
                        for k, v in dict(data["counters"]).items()}
            latencies = {str(k): LatencyHistogram.from_dict(v)
                         for k, v in dict(data["latencies"]).items()}
            gauges = {str(k): int(v)
                      for k, v in dict(data["gauges"]).items()}
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"not a metrics payload: {error!r}") from error
        return cls(counters=counters, latencies=latencies, gauges=gauges)

    @classmethod
    def from_json(cls, text: str) -> "ServiceMetrics":
        return cls.from_dict(json.loads(text))


class MetricsRecorder:
    """Mutable, thread-safe accumulator behind :class:`ServiceMetrics`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._latency_counts: dict[str, list[int]] = {}
        self._latency_sums: dict[str, float] = {}

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def observe(self, endpoint: str, *durations: float) -> None:
        """Record service-time observations for an endpoint."""
        with self._lock:
            counts = self._latency_counts.get(endpoint)
            if counts is None:
                counts = [0] * (len(_BOUNDS) + 1)
                self._latency_counts[endpoint] = counts
                self._latency_sums[endpoint] = 0.0
            for seconds in durations:
                counts[bisect_left(_BOUNDS, seconds)] += 1
                self._latency_sums[endpoint] += seconds

    def snapshot(self, gauges: Mapping[str, int]) -> ServiceMetrics:
        """Freeze the accumulated state plus caller-supplied gauges."""
        with self._lock:
            counters = dict(self._counters)
            latencies = {
                endpoint: LatencyHistogram(
                    counts=tuple(counts), bounds=_BOUNDS,
                    total=sum(counts),
                    sum_seconds=self._latency_sums[endpoint])
                for endpoint, counts in self._latency_counts.items()}
        return ServiceMetrics(counters=counters, latencies=latencies,
                              gauges=dict(gauges))
