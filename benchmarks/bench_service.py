"""Benchmark + gate for the scheduling service (repro.service).

The service's promise is operational, not mathematical: coalescing many
small requests into bulk engine dispatches must buy real throughput
while answering bit-identically to per-request dispatch (identity is
pinned by ``tests/integration/test_service_differential.py``; this
module times it).

Two workloads:

* the **gate workload** — 1024 small assigns (4 points each) over 4
  sessions — is the regime batching exists for: per-dispatch engine
  overhead dominates, so one ``bulk`` call, which coalesces each
  session's assigns, must land >= 3x over the same requests sent one
  at a time through ``call``;
* the **mixed workload** — the load generator's default op mix
  (assign/verify/edit) — is served closed-loop by a few threads, each
  sending its next request when the last one is answered: the shape of
  the ``wire-rpc`` perfbench workload, without the socket.

Rows recorded into ``BENCH_scaling.json``: ``service/closed-loop``
(closed-loop rps and per-request p50/p99, seconds),
``service/batching-speedup`` (one ``bulk`` vs one ``call`` per
request, the >= 3x acceptance gate) and ``service/wire-throughput``
(pipelined ``bulk`` frames vs one frame per request over one socket).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.service import SchedulingService, SessionStore
from repro.service.loadgen import build_workload, execute, execute_wire

_SEED = 2008
#: Repetitions per mode; the best run is scored (same convention as
#: the bulk-assignment benchmark: scheduler noise only ever slows a
#: run down, so min is the honest kernel cost).
_REPEATS = 15
#: The acceptance gate on coalescing (>= 3x at ~1k small requests).
_SPEEDUP_GATE = 3.0
#: Closed-loop client threads (as many as ``wire-rpc`` runs).
_CLIENTS = 2


def _gate_workload():
    """1k tiny assigns: the per-dispatch-overhead-bound regime."""
    return build_workload(_SEED, sessions=4, requests=1024,
                          edit_fraction=0.0, verify_fraction=0.0,
                          max_assign_points=4)


def _best_runs(run, *modes: bool):
    """The best of ``_REPEATS`` runs of ``run`` per ``bulk`` mode.

    The modes alternate within each repetition, so every best-of
    figure is drawn from the same phases of a shared, noisy host; a
    ratio of two figures taken in separate stretches swings with
    whatever else the host was doing in each.
    """
    best = [None] * len(modes)
    for _ in range(_REPEATS):
        for mode, bulk in enumerate(modes):
            result = run(bulk=bulk)
            assert result.failed == 0
            assert result.completed == result.requests
            if best[mode] is None \
                    or result.elapsed_s < best[mode].elapsed_s:
                best[mode] = result
    return best


def test_batching_speedup_gate(report, record_scaling):
    """One ``bulk`` >= 3x over one ``call`` per request, same answers.

    ``bulk=False`` sends every request through its own ``call`` — the
    per-request reference.  The differential suite pins that both
    answer bit-identically, so the only thing this measures is the
    per-request dispatch overhead coalescing amortizes.
    """
    workload = _gate_workload()
    batched, serial = _best_runs(
        lambda bulk: execute(workload, bulk=bulk), True, False)

    assert batched.batched_dispatches > 0, "bulk never coalesced"
    assert serial.batched_dispatches == 0, "call must not coalesce"
    speedup = serial.elapsed_s / batched.elapsed_s

    record_scaling("service/batching-speedup", seconds=batched.elapsed_s,
                   speedup=speedup, requests=batched.requests,
                   batched_dispatches=batched.batched_dispatches)
    report("Service — request batching",
           f"{batched.requests} small assigns over "
           f"{len(workload.session_kinds)} sessions: one call per request "
           f"{serial.elapsed_s * 1e3:.0f} ms "
           f"({serial.throughput_rps:.0f} rps), one bulk "
           f"{batched.elapsed_s * 1e3:.0f} ms "
           f"({batched.throughput_rps:.0f} rps, "
           f"{batched.batched_dispatches} bulk dispatches) — "
           f"{speedup:.2f}x")
    assert speedup >= _SPEEDUP_GATE


def _closed_loop(workload, clients: int):
    """Serve ``workload`` from ``clients`` closed-loop ``call`` threads.

    Client ``k`` sends requests ``k``, ``k + clients``, … one at a
    time.  Returns ``(elapsed_s, latencies_s, failed)``.
    """
    service = SchedulingService(SessionStore())
    workload.open_sessions(service)
    latencies = np.zeros(len(workload.ops))
    failed = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def client(which: int) -> None:
        barrier.wait()
        for index in range(which, len(workload.ops), clients):
            op = workload.ops[index]
            began = time.perf_counter()
            try:
                service.call(op.op, op.session_id, op.request_payload())
            except Exception:
                failed[which] += 1
            latencies[index] = time.perf_counter() - began

    threads = [threading.Thread(target=client, args=(which,))
               for which in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    service.close()
    return elapsed, latencies, sum(failed)


def test_closed_loop_latency(report, record_scaling):
    """Closed-loop rps and p50/p99 under the default assign/verify/edit
    mix, from ``_CLIENTS`` threads calling ``call``."""
    workload = build_workload(_SEED)
    best = None
    for _ in range(_REPEATS):
        elapsed, latencies, failed = _closed_loop(workload, _CLIENTS)
        assert failed == 0
        if best is None or elapsed < best[0]:
            best = (elapsed, latencies)
    elapsed, latencies = best
    requests = len(workload.ops)
    p50, p99 = np.quantile(latencies, [0.5, 0.99])

    record_scaling("service/closed-loop", seconds=elapsed,
                   requests=requests, clients=_CLIENTS,
                   rps=round(requests / elapsed, 1),
                   p50_s=round(float(p50), 7), p99_s=round(float(p99), 7))
    report("Service — closed-loop latency",
           f"{requests} mixed requests from {_CLIENTS} closed-loop "
           f"threads: {requests / elapsed:.0f} rps, p50 "
           f"{p50 * 1e6:.0f} us, p99 {p99 * 1e6:.0f} us")
    assert p99 > 0


def test_wire_throughput(report, record_scaling):
    """Socket front end: pipelined bulk frames keep coalescing alive.

    The same gate workload streams through ``ServiceClient.pipeline``
    against a live ``WireServer`` — every request serialized to a
    canonical-JSON frame, shipped over TCP, and answered in order.
    Coalescing must still fire (the server hands a bulk frame's
    session ops to ``SchedulingService.bulk``), and pipelined bursts
    must not lose to one frame per request over the same socket.
    """
    workload = _gate_workload()
    batched, serial = _best_runs(
        lambda bulk: execute_wire(workload, bulk=bulk), True, False)

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
           f"pipelined bulk frames {batched.elapsed_s * 1e3:.0f} ms "
           f"({batched.throughput_rps:.0f} rps, "
           f"{batched.batched_dispatches} bulk dispatches), one frame "
           f"per request {serial.elapsed_s * 1e3:.0f} ms "
           f"({serial.throughput_rps:.0f} rps) — {speedup:.2f}x")
    # Pipelined coalescing must not lose materially to one frame per
    # request over the same socket (0.9 absorbs scheduler noise; the
    # trend row above is the signal).
    assert speedup >= 0.9
