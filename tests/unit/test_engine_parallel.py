"""Sharded-execution tests: bit-identical results for any worker count.

The contract of :mod:`repro.engine.parallel` is that sharding is purely
a performance decision — every kernel must return exactly the serial
result for 1, 2 or 4 workers, on one persistent thread pool.  The
thresholds that keep small inputs serial are monkeypatched down so the
sharded dispatch genuinely runs on test-sized inputs.
"""

import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.engine.collisions as collisions_module
import repro.engine.parallel as parallel_module
import repro.engine.randmac as randmac_module
import repro.engine.slots as slots_module
from repro.api import Box, Session
from repro.core.theorem1 import schedule_from_prototile
from repro.engine.config import EngineConfig, use_config
from repro.engine.parallel import (
    _workers_from_env,
    cpu_budget,
    plan_shards,
    run_sharded,
    shard_workers,
)
from repro.engine.randmac import (
    bernoulli_block,
    masked_bernoulli_block,
    uniform_block,
    uniform_block_range,
)
from repro.engine.collisions import scan_collisions
from repro.net.model import Network
from repro.net.protocols import CSMALike, SlottedAloha
from repro.net.simulator import BroadcastSimulator
from repro.service import SchedulingService, SessionStore
from repro.service.transport import ServiceClient, WireServer
from repro.tiles.shapes import chebyshev_ball
from repro.utils.rng import StreamRNG
from repro.utils.vectors import box_points

WORKER_COUNTS = [1, 2, 4]


@pytest.fixture
def force_sharding(monkeypatch):
    """Drop the serial-below-this thresholds so tiny inputs shard too."""
    monkeypatch.setattr(collisions_module, "_MIN_PARALLEL_PROBES", 1)
    monkeypatch.setattr(collisions_module, "_MIN_PARALLEL_GRID", 1)
    monkeypatch.setattr(slots_module, "_MIN_PARALLEL_POINTS", 1)
    monkeypatch.setattr(randmac_module, "_MIN_PARALLEL_CELLS", 1)


class TestWorkerResolution:
    def test_env_unset_or_empty_is_serial(self):
        assert _workers_from_env(None) == 1
        assert _workers_from_env("") == 1
        assert _workers_from_env("   ") == 1

    def test_env_explicit_count(self):
        assert _workers_from_env("3") == 3
        assert _workers_from_env(" 2 ") == 2

    def test_env_auto_uses_cpu_budget(self):
        assert _workers_from_env("auto") == min(cpu_budget(), 64)

    def test_env_bad_values_warn_and_stay_serial(self):
        with pytest.warns(UserWarning):
            assert _workers_from_env("many") == 1
        with pytest.warns(UserWarning):
            assert _workers_from_env("0") == 1
        with pytest.warns(UserWarning):
            assert _workers_from_env("-4") == 1

    def test_env_count_is_capped(self):
        assert _workers_from_env("100000") == 64

    def test_use_config_restores(self):
        before = shard_workers()
        with use_config(EngineConfig(workers=before + 3)):
            assert shard_workers() == before + 3
        assert shard_workers() == before


class TestPlanShards:
    def test_partitions_exactly(self):
        for total in (1, 2, 7, 64, 1000):
            for shards in (1, 2, 3, 7, 64):
                spans = plan_shards(total, shards)
                assert spans[0][0] == 0
                assert spans[-1][1] == total
                for (_, hi), (lo, _) in zip(spans, spans[1:]):
                    assert hi == lo
                sizes = [hi - lo for lo, hi in spans]
                assert all(size >= 1 for size in sizes)
                assert max(sizes) - min(sizes) <= 1

    def test_never_more_shards_than_items(self):
        assert len(plan_shards(3, 8)) == 3

    def test_empty_range(self):
        assert plan_shards(0, 4) == []


def _square(payload, span):
    lo, hi = span
    return [payload[i] ** 2 for i in range(lo, hi)]


def _nested(payload, span):
    # A kernel that tries to shard again: inside a worker this must
    # resolve to the serial path rather than forking grandchildren.
    return (shard_workers(),
            run_sharded(_square, payload, [span]))


class TestRunSharded:
    def test_matches_serial_map(self):
        data = list(range(50))
        spans = plan_shards(len(data), 4)
        serial = [_square(data, span) for span in spans]
        assert run_sharded(_square, data, spans, workers=1) == serial
        assert run_sharded(_square, data, spans, workers=4) == serial

    def test_nested_sharding_stays_serial(self):
        data = list(range(8))
        results = run_sharded(_nested, data, plan_shards(len(data), 2),
                              workers=2)
        for workers_inside, squares in results:
            assert workers_inside == 1
            assert squares

    def test_single_shard_runs_inline(self):
        assert run_sharded(_square, [3], [(0, 1)], workers=8) == [[9]]


class _KernelBug(ValueError):
    pass


def _fails_on_first(payload, span):
    if span[0] == 0:
        raise _KernelBug(f"shard {span} is broken")
    return span


def _where(payload, span):
    return id(payload), threading.current_thread().name, shard_workers()


class TestThreadPool:
    """One persistent pool: no thread or pool per call, payloads by
    reference, kernel errors as themselves."""

    def test_sequential_calls_reuse_the_pool(self):
        data = list(range(40))
        spans = plan_shards(len(data), 2)
        serial = [_square(data, span) for span in spans]
        before = threading.active_count()
        for _ in range(50):
            assert run_sharded(_square, data, spans, workers=2) == serial
        pool_threads = [thread for thread in threading.enumerate()
                        if thread.name.startswith("repro-shard")]
        pool_size = parallel_module._pool_size()
        assert 1 <= len(pool_threads) <= pool_size
        assert threading.active_count() <= before + pool_size

    def test_concurrent_first_use_builds_one_pool(self, monkeypatch):
        built = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "_pool", None)
        monkeypatch.setattr(parallel_module, "ThreadPoolExecutor",
                            CountingPool)
        data = list(range(30))
        spans = plan_shards(len(data), 2)
        serial = [_square(data, span) for span in spans]
        start = threading.Barrier(8)
        results = []

        def call():
            start.wait(timeout=30)
            results.append(run_sharded(_square, data, spans, workers=2))

        threads = [threading.Thread(target=call) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the first uses finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(built) == 1
        assert results == [serial] * 8
        built[0].shutdown()

    def test_payload_is_shared_by_reference(self):
        payload = object()
        seen = run_sharded(_where, payload, [(0, 1), (1, 2)], workers=2)
        assert [ident for ident, _, _ in seen] == [id(payload)] * 2
        assert all(name.startswith("repro-shard") for _, name, _ in seen)

    def test_pool_threads_stay_serial_under_the_env(self, monkeypatch):
        # The initializer pins the scoped count, which outranks the env.
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "4")
        seen = run_sharded(_where, None, [(0, 1), (1, 2)], workers=2)
        assert [workers for _, _, workers in seen] == [1, 1]

    def test_more_shards_than_workers_keep_their_order(self):
        data = list(range(23))
        spans = plan_shards(len(data), 7)
        serial = [_square(data, span) for span in spans]
        for workers in WORKER_COUNTS:
            assert run_sharded(_square, data, spans, workers=workers) \
                == serial

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kernel_error_surfaces_as_itself(self, workers):
        with pytest.raises(_KernelBug, match="is broken") as caught:
            run_sharded(_fails_on_first, None, [(0, 1), (1, 2)],
                        workers=workers)
        assert type(caught.value) is _KernelBug

    def test_error_waits_for_every_shard(self):
        finished = []

        def record(payload, span):
            if span[0] == 0:
                raise _KernelBug("first shard fails at once")
            time.sleep(payload)
            finished.append(span)
            return span

        with pytest.raises(_KernelBug):
            run_sharded(record, 0.2, [(0, 1), (1, 2)], workers=2)
        assert finished == [(1, 2)]


def _held(payload, span):
    running, seconds = payload
    running.set()
    time.sleep(seconds)
    return span


class TestConcurrentShardedCalls:
    """Threads sharing the module: one thread's pool never leaks into
    another thread's resolution or payload."""

    def test_worker_count_holds_while_another_threads_pool_runs(self):
        spans = [(0, 1), (1, 2)]
        results = {}
        running = threading.Event()

        def hold_pool_open():
            results["spans"] = run_sharded(_held, (running, 0.6), spans,
                                           workers=2)

        holder = threading.Thread(target=hold_pool_open)
        seen = []
        with use_config(EngineConfig(workers=2)):
            holder.start()
            while holder.is_alive():
                if running.is_set():
                    seen.append(shard_workers())
                time.sleep(0.005)
        holder.join(timeout=30)
        assert not holder.is_alive()
        assert results["spans"] == spans
        assert seen, "the pool never ran while sampling"
        assert set(seen) == {2}

    def test_concurrent_scans_of_different_windows(self, force_sharding):
        rng = random.Random(5)
        shapes = [frozenset({(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)})]
        offsets = sorted({(a, b) for a in range(-2, 3)
                          for b in range(-2, 3)} - {(0, 0)})
        inputs = []
        # Equal sizes, so both threads reach the pool at the same time.
        for lo, hi in (((0, 0), (13, 13)), ((40, -9), (53, 4))):
            points = list(box_points(lo, hi))
            slots = [rng.randrange(4) for _ in points]
            inputs.append((points, slots, [0] * len(points), shapes,
                           offsets))
        serial = [scan_collisions(*args) for args in inputs]
        assert serial[0] and serial[1] and serial[0] != serial[1]
        start = threading.Barrier(2)
        mismatches = []

        def scan(index):
            with use_config(EngineConfig(workers=2)):
                for _ in range(20):
                    start.wait(timeout=30)
                    if scan_collisions(*inputs[index]) != serial[index]:
                        mismatches.append(index)

        threads = [threading.Thread(target=scan, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


def _collision_inputs():
    rng = random.Random(11)
    points = list(box_points((0, 0), (17, 17)))
    slots = [rng.randrange(5) for _ in points]
    shapes = [frozenset({(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)}),
              frozenset({(0, 0), (1, 1), (-1, -1)})]
    shape_ids = [rng.randrange(2) for _ in points]
    offsets = sorted({(a, b) for a in range(-2, 3) for b in range(-2, 3)}
                     - {(0, 0)})
    return points, slots, shape_ids, shapes, offsets


class TestShardedKernels:
    def test_scan_collisions_identical_across_workers(self, force_sharding,
                                                      scan_lane):
        points, slots, shape_ids, shapes, offsets = _collision_inputs()
        reference = None
        for workers in WORKER_COUNTS:
            with use_config(EngineConfig(workers=workers)):
                got = scan_collisions(points, slots, shape_ids, shapes,
                                      offsets)
            if reference is None:
                reference = got
                assert reference  # the inputs must actually collide
            assert got == reference

    def test_coset_lookup_identical_across_workers(self, force_sharding,
                                                   coset_lane):
        schedule = schedule_from_prototile(chebyshev_ball(1))
        table = schedule._coset_table()
        points = coset_lane(box_points((-7, -7), (9, 9)))
        reference = None
        for workers in WORKER_COUNTS:
            with use_config(EngineConfig(workers=workers)):
                got = table.lookup(points)
            if reference is None:
                reference = got
                assert reference == [table.value_of(p) for p in points]
            assert got == reference

    def test_decision_blocks_match_scalar_streams(self, force_sharding):
        rng = StreamRNG(23)
        n, t0, t1, p = 41, 5, 12, 0.37
        muted = [i % 3 == 0 for i in range(n)]
        for workers in WORKER_COUNTS:
            with use_config(EngineConfig(workers=workers)):
                uniforms = uniform_block(rng, n, t0, t1)
                decisions = bernoulli_block(rng, n, t0, t1, p)
                masked = masked_bernoulli_block(rng, n, t0, t1, p, muted)
            for t in range(t0, t1):
                for i in range(n):
                    want = rng.uniform(i, t)
                    assert uniforms[t - t0][i] == want
                    assert bool(decisions[t - t0][i]) == (want < p)
                    expect = (want < p) and not (t == t0 and muted[i])
                    assert bool(masked[t - t0][i]) == expect

    def test_single_slot_windows_never_shard(self, monkeypatch,
                                             force_sharding):
        # Carrier-sense protocols request one single-slot block per
        # simulated slot; spawning a pool for each would be a per-slot
        # pessimization, so single-row windows stay serial regardless
        # of sensor count.
        def fail_if_sharded(*args, **kwargs):
            pytest.fail("single-slot window dispatched to the pool")

        monkeypatch.setattr(randmac_module, "run_sharded", fail_if_sharded)
        rng = StreamRNG(6)
        with use_config(EngineConfig(workers=4)):
            masked_bernoulli_block(rng, 300, 5, 6, 0.4, [False] * 300)
            bernoulli_block(rng, 300, 5, 6, 0.4)

    def test_uniform_block_range_is_a_column_slice(self):
        rng = StreamRNG(4)
        full = uniform_block(rng, 30, 2, 6)
        part = uniform_block_range(rng, 10, 20, 2, 6)
        for t in range(4):
            assert list(part[t]) == list(full[t][10:20])


class TestShardedSimulator:
    @pytest.mark.parametrize("protocol_factory",
                             [lambda: SlottedAloha(0.08),
                              lambda: CSMALike(0.08)],
                             ids=["aloha", "csma"])
    def test_metrics_identical_across_workers(self, protocol_factory,
                                              force_sharding):
        network = Network.homogeneous(list(box_points((0, 0), (9, 9))),
                                      chebyshev_ball(1))

        def run(bulk=True):
            simulator = BroadcastSimulator(network, protocol_factory(),
                                           packet_interval=3, seed=77,
                                           bulk_decisions=bulk)
            return simulator.run(30)

        reference = run(bulk=False)
        for workers in WORKER_COUNTS:
            with use_config(EngineConfig(workers=workers)):
                assert run() == reference


class TestServedSharding:
    def test_wire_verify_above_the_grid_cutoff_matches_serial(
            self, monkeypatch):
        side = 260
        assert side * side >= collisions_module._MIN_PARALLEL_GRID
        box = Box((0, 0), (side - 1, side - 1))
        serial = Session.for_chebyshev(
            2, config=EngineConfig(workers=1)).verify(box, use_cache=False)
        sharded_calls = []
        real_run_sharded = collisions_module.run_sharded

        def counted(*args, **kwargs):
            sharded_calls.append(args[3])
            return real_run_sharded(*args, **kwargs)

        monkeypatch.setattr(collisions_module, "run_sharded", counted)
        with use_config(EngineConfig(workers=2)):
            service = SchedulingService(SessionStore())
            server = WireServer(service).start()
        try:
            with ServiceClient(*server.address, timeout=60) as client:
                client.open_session("s", Session.for_chebyshev(2))
                served = client.verify("s", box, use_cache=False)
        finally:
            server.close()
            service.close()
        assert sharded_calls == [2]
        assert served.workers == 2 and serial.workers == 1
        assert (served.collisions, served.window_size, served.source,
                served.checked_points) == \
            (serial.collisions, serial.window_size, serial.source,
             serial.checked_points)
