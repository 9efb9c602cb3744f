"""Tests for service metrics: quantile ranking, overflow honesty,
lossless serialization, histogram merging, and the dispatch counters
of requests served on the caller's thread.

Two regressions are pinned here.  First, quantile ranks are computed
with ``math.ceil`` — the old ``int(q * total + 0.999999)`` additive
trick lands on the wrong rank once ``q * total`` is an exact integer at
or beyond 2**52, where adding just-under-one crosses a float rounding
step and inflates the rank into the next bucket.  Second, a rank that
falls in the overflow bucket (observations above the last bound)
reports ``inf`` rather than silently capping at the last bound — the
histogram genuinely does not know how slow those requests were.
"""

from __future__ import annotations

import json
import math
import threading
import time

import pytest

from repro.api import Box, Session
from repro.service import SchedulingService, SessionStore
from repro.service.metrics import (
    LatencyHistogram,
    MetricsRecorder,
    ServiceMetrics,
)


def histogram(counts, bounds, sum_seconds=0.0) -> LatencyHistogram:
    return LatencyHistogram(counts=tuple(counts), bounds=tuple(bounds),
                            total=sum(counts), sum_seconds=sum_seconds)


class TestQuantileRank:
    def test_small_histogram_quantiles(self):
        h = histogram([5, 4, 1], [0.001, 0.01, 1.0])
        assert h.quantile(0.0) == 0.001   # rank clamps to 1
        assert h.p50 == 0.001             # rank 5 is the 5th of 5
        assert h.quantile(0.9) == 0.01    # rank 9
        assert h.quantile(1.0) == 1.0     # rank 10

    def test_exact_boundary_rank_stays_in_bucket(self):
        # rank q*total exactly on a bucket's cumulative count must
        # resolve to THAT bucket, not the next one.
        h = histogram([2, 2], [0.001, 1.0])
        assert h.p50 == 0.001

    def test_rank_rounding_at_large_totals(self):
        """The int(x + 0.999999) regression: at total=2**53 the p50
        rank must be 2**52 (inside bucket one), but float addition
        rounds 2**52 + 0.999999 *up* to 2**52 + 1 — the first rank of
        bucket two — misreporting p50 by the full bucket ratio."""
        half = 2 ** 52
        h = histogram([half, half], [0.001, 1.0])
        # Sanity-check the failure mode this test exists for:
        assert int(0.5 * h.total + 0.999999) == half + 1
        assert math.ceil(0.5 * h.total) == half
        assert h.p50 == 0.001

    def test_inexact_product_still_ceils(self):
        # 0.7 * 10 == 6.999999999999999 in floats; ceil gives rank 7,
        # which satisfies "at least a fraction q of observations are
        # <= the answer" (7/10 >= 0.7) without spilling into bucket 2.
        h = histogram([7, 3], [0.001, 1.0])
        assert h.quantile(0.7) == 0.001
        assert h.quantile(0.71) == 1.0

    def test_rejects_out_of_range_q(self):
        h = histogram([1], [0.001])
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_empty_histogram_is_zero(self):
        h = histogram([0, 0], [0.001, 1.0])
        assert h.p50 == 0.0 and h.p99 == 0.0


class TestOverflow:
    def test_overflow_rank_reports_inf_not_last_bound(self):
        # 2 of 3 observations are slower than every bound: p99 (rank 3)
        # and even p50 (rank 2) are genuinely unknown, not "1.0s".
        h = histogram([1, 0, 2], [0.001, 1.0])
        assert h.overflow == 2
        assert h.p50 == math.inf
        assert h.p99 == math.inf
        assert h.quantile(1 / 3) == 0.001

    def test_recorder_observation_above_last_bound_overflows(self):
        recorder = MetricsRecorder()
        recorder.observe("assign", 120.0)  # bounds stop at 60s
        snapshot = recorder.snapshot({})
        h = snapshot.latencies["assign"]
        assert h.overflow == 1
        assert h.p50 == math.inf

    def test_no_overflow_bucket_without_extra_count(self):
        h = histogram([1, 1], [0.001, 1.0])
        assert h.overflow == 0


class TestSerialization:
    def test_to_dict_carries_raw_buckets_and_json_safe_quantiles(self):
        h = histogram([1, 0, 2], [0.001, 1.0], sum_seconds=150.0)
        data = h.to_dict()
        assert data["bounds"] == [0.001, 1.0]
        assert data["counts"] == [1, 0, 2]
        assert data["overflow"] == 2
        assert data["p50_s"] is None  # inf is not strict JSON
        assert data["p99_s"] is None
        json.dumps(data, allow_nan=False)  # strict-JSON clean

    def test_histogram_round_trip_is_lossless(self):
        h = histogram([3, 4, 1], [0.001, 1.0], sum_seconds=2.5)
        again = LatencyHistogram.from_dict(h.to_dict())
        assert again == h

    def test_from_dict_rejects_mangled_payloads(self):
        h = histogram([1, 1], [0.001, 1.0])
        good = h.to_dict()
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict({**good, "counts": [1]})
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict({**good, "total": 5})
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict({"total": 1})

    def test_service_metrics_json_round_trip(self):
        recorder = MetricsRecorder()
        recorder.bump("assign.completed", 3)
        recorder.observe("assign", 0.002)
        recorder.observe("assign", 0.004)
        snapshot = recorder.snapshot({"sessions.open": 1})
        again = ServiceMetrics.from_json(snapshot.to_json())
        assert again.counters == dict(snapshot.counters)
        assert again.gauges == dict(snapshot.gauges)
        assert again.latencies["assign"] == snapshot.latencies["assign"]


class TestMerge:
    def test_merge_requires_aligned_buckets(self):
        a = histogram([1, 1], [0.001, 1.0])
        b = histogram([1, 1], [0.002, 2.0])
        with pytest.raises(ValueError):
            a.merge(b)
        # Same bounds but mismatched counts length (one has an
        # overflow bucket, one does not) must not zip-truncate.
        c = histogram([1, 1, 1], [0.001, 1.0])
        with pytest.raises(ValueError):
            a.merge(c)


# ----------------------------------------------------------------------
def _service_with(*session_ids: str) -> SchedulingService:
    service = SchedulingService(SessionStore())
    for session_id in session_ids:
        service.open_session(session_id, Session.for_chebyshev(
            1, window=Box((0, 0), (5, 5))))
    return service


class TestInlineCounters:
    """How requests served on the caller's thread show on the metrics
    endpoint.

    ``server.batch_size`` is completed requests over
    ``batch.dispatches``: a ``call`` is a dispatch of one, and a
    certificate fast-path answer is no dispatch at all.
    """

    def test_inline_requests_count_as_dispatches(self):
        service = _service_with("s")
        for step in range(3):
            service.assign("s", [(step, 0), (0, step)])
        metrics = service.metrics()
        service.close()
        assert metrics.counter("assign.admitted") == 3
        assert metrics.counter("assign.completed") == 3
        assert metrics.counter("batch.dispatches") == 3
        assert metrics.latencies["assign"].total == 3

    def test_certificate_answers_are_inline_but_not_dispatches(self):
        service = _service_with("s")
        service.verify("s")  # builds the certificate: one dispatch
        service.verify("s")  # answered from it
        metrics = service.metrics()
        service.close()
        assert metrics.counter("verify.completed") == 2
        assert metrics.counter("batch.dispatches") == 1
        assert metrics.counter("batch.certificate_fast_path") == 1

    def test_bulk_counts_one_dispatch_per_coalesced_run(self):
        service = _service_with("s")
        items = [("assign", "s", {"points": [(step, 0)]}, None)
                 for step in range(3)]
        items.append(("verify", "s", {}, None))
        items += [("assign", "s", {"points": [(0, step)]}, None)
                  for step in range(2)]
        answers = service.bulk(items)
        metrics = service.metrics()
        service.close()
        assert not any(isinstance(a, BaseException) for a in answers)
        assert metrics.counter("assign.completed") == 5
        assert metrics.counter("batch.dispatches") == 3
        assert metrics.counter("batch.batched_dispatches") == 2
        assert metrics.counter("batch.coalesced_requests") == 5
        assert metrics.latencies["assign"].total == 5

    def test_queued_call_counts_once_and_times_from_entry(self):
        """A call that waits for a busy session bumps ``admitted``
        once, and its latency includes the wait for the lease."""
        service = _service_with("s")
        held, release = threading.Event(), threading.Event()

        def hold() -> None:
            with service.store.lease("s"):
                held.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(timeout=30)
        timer = threading.Timer(0.2, release.set)
        timer.start()
        started = time.monotonic()
        service.assign("s", [(1, 1)])
        waited = time.monotonic() - started
        holder.join(timeout=30)
        metrics = service.metrics()
        service.close()
        assert metrics.counter("assign.admitted") == 1
        assert metrics.counter("assign.completed") == 1
        assert metrics.counter("batch.dispatches") == 1
        observed = metrics.latencies["assign"]
        assert observed.total == 1
        assert 0.15 <= observed.sum_seconds <= waited
