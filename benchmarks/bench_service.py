"""Benchmark + gate for the scheduling service (repro.service).

The service's promise is operational, not mathematical: coalescing many
small concurrent requests into bulk engine dispatches must buy real
throughput while answering bit-identically to per-request dispatch
(identity is pinned by ``tests/integration/test_service_differential.py``;
this module times it).

Two workloads run in *drain* mode (pre-enqueue everything against a
paused service, then time the dispatcher draining it — submission cost
is excluded, so ``max_batch`` is the only variable):

* the **gate workload** — 1024 small assigns (4 points each) over 4
  sessions — is the regime batching exists for: per-dispatch engine
  overhead dominates, so coalescing must land >= 3x over ``max_batch=1``;
* the **mixed workload** — the load generator's default op mix
  (assign/verify/edit) — is reported for the latency rows because it is
  what a real client stream looks like.

Rows recorded into ``BENCH_scaling.json``:
``service/throughput`` (drained rps, batched), ``service/p50`` and
``service/p99`` (per-request service latency, seconds), and
``service/batching-speedup`` (batched vs per-request drain, the >= 3x
acceptance gate).
"""

from __future__ import annotations

from repro.service.loadgen import build_workload, execute, execute_wire

_SEED = 2008
#: Repetitions per mode; the best run is scored (same convention as
#: the bulk-assignment benchmark: scheduler noise only ever slows a
#: drain down, so min is the honest kernel cost).
_REPEATS = 15
#: The acceptance gate on coalescing (ISSUE: >= 3x at ~1k small requests).
_SPEEDUP_GATE = 3.0


def _gate_workload():
    """1k tiny assigns: the per-dispatch-overhead-bound regime."""
    return build_workload(_SEED, sessions=4, requests=1024,
                          edit_fraction=0.0, verify_fraction=0.0,
                          max_assign_points=4)


def _best_runs(run, *max_batches: int):
    """The best of ``_REPEATS`` runs of ``run`` per ``max_batch``.

    The modes alternate within each repetition, so every best-of
    figure is drawn from the same phases of a shared, noisy host; a
    ratio of two figures taken in separate stretches swings with
    whatever else the host was doing in each.
    """
    best = [None] * len(max_batches)
    for _ in range(_REPEATS):
        for mode, max_batch in enumerate(max_batches):
            result = run(max_batch=max_batch)
            assert result.failed == 0 and result.rejected == 0
            assert result.completed == result.requests
            if best[mode] is None \
                    or result.elapsed_s < best[mode].elapsed_s:
                best[mode] = result
    return best


def test_batching_speedup_gate(report, record_scaling):
    """Coalesced dispatch >= 3x over per-request dispatch, same answers.

    ``max_batch=1`` forces the dispatcher to execute every request as
    its own engine call — the per-request reference service.  The
    differential suite pins that both modes answer bit-identically, so
    the only thing this measures is the dispatch overhead batching
    amortizes.
    """
    workload = _gate_workload()
    batched, serial = _best_runs(
        lambda max_batch: execute(workload, max_batch=max_batch), 64, 1)

    assert batched.batched_dispatches > 0, "batched drain never coalesced"
    assert serial.batched_dispatches == 0, "max_batch=1 must not coalesce"
    speedup = serial.elapsed_s / batched.elapsed_s

    record_scaling("service/throughput", seconds=batched.elapsed_s,
                   requests=batched.requests,
                   rps=round(batched.throughput_rps, 1))
    record_scaling("service/batching-speedup", seconds=batched.elapsed_s,
                   speedup=speedup, requests=batched.requests,
                   batched_dispatches=batched.batched_dispatches)
    report("Service — request batching",
           f"{batched.requests} small assigns over "
           f"{len(workload.session_kinds)} sessions: per-request drain "
           f"{serial.elapsed_s * 1e3:.0f} ms "
           f"({serial.throughput_rps:.0f} rps), batched drain "
           f"{batched.elapsed_s * 1e3:.0f} ms "
           f"({batched.throughput_rps:.0f} rps, "
           f"{batched.batched_dispatches} bulk dispatches) — "
           f"{speedup:.2f}x")
    assert speedup >= _SPEEDUP_GATE


def test_mixed_workload_latency(report, record_scaling):
    """p50/p99 service latency under the default assign/verify/edit mix."""
    workload = build_workload(_SEED)
    result, = _best_runs(
        lambda max_batch: execute(workload, max_batch=max_batch), 64)

    histogram = None
    for endpoint in ("assign", "verify", "edit"):
        candidate = result.metrics.latencies.get(endpoint)
        if candidate is None:
            continue
        histogram = candidate if histogram is None \
            else histogram.merge(candidate)
    assert histogram is not None and histogram.total == result.completed

    record_scaling("service/p50", seconds=histogram.p50,
                   requests=result.requests)
    record_scaling("service/p99", seconds=histogram.p99,
                   requests=result.requests)
    report("Service — mixed-workload latency",
           f"{result.requests} mixed requests "
           f"({result.throughput_rps:.0f} rps drained): p50 "
           f"{histogram.p50 * 1e6:.0f} us, p99 "
           f"{histogram.p99 * 1e6:.0f} us, mean "
           f"{histogram.mean * 1e6:.0f} us; "
           f"{result.metrics.counter('batch.certificate_fast_path')} "
           f"certificate fast-path verifies")
    assert histogram.p99 > 0
    assert result.failed == 0


def test_wire_throughput(report, record_scaling):
    """Socket front end: pipelined bulk frames keep coalescing alive.

    The same gate workload streams through ``ServiceClient.pipeline``
    against a live ``WireServer`` — every request serialized to a
    canonical-JSON frame, shipped over TCP, and answered in order.
    Coalescing must still fire (the server submits a bulk frame's
    sub-requests before awaiting any result), and pipelined bursts
    must beat one-engine-call-per-request over the same socket.  The
    absolute rps row tracks what serialization + loopback cost on top
    of the in-process ``service/throughput`` row.
    """
    workload = _gate_workload()
    batched, serial = _best_runs(
        lambda max_batch: execute_wire(workload, max_batch=max_batch),
        64, 1)

    assert batched.batched_dispatches > 0, \
        "bulk frames never coalesced over the wire"
    speedup = serial.elapsed_s / batched.elapsed_s

    record_scaling("service/wire-throughput", seconds=batched.elapsed_s,
                   requests=batched.requests,
                   rps=round(batched.throughput_rps, 1),
                   speedup=round(speedup, 2),
                   batched_dispatches=batched.batched_dispatches)
    report("Service — wire throughput",
           f"{batched.requests} small assigns over TCP loopback: "
           f"batched {batched.elapsed_s * 1e3:.0f} ms "
           f"({batched.throughput_rps:.0f} rps, "
           f"{batched.batched_dispatches} bulk dispatches), "
           f"per-request {serial.elapsed_s * 1e3:.0f} ms "
           f"({serial.throughput_rps:.0f} rps) — {speedup:.2f}x")
    # Both modes pay the same wire costs on top of the dispatch that
    # batching amortizes: every request and answer is JSON-encoded,
    # framed and decoded on both ends, in the interpreter that also
    # runs the service (a 1024-request run takes ~60 ms over the wire
    # against ~10 ms drained in-process).  So the wire gate is looser
    # than the in-process 3x: pipelined coalescing must not lose
    # materially to per-request dispatch over the same socket (0.9
    # absorbs scheduler noise; the trend row above is the signal).
    assert speedup >= 0.9
