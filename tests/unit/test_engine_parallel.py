"""Sharded-execution tests: bit-identical results for any worker count.

The contract of :mod:`repro.engine.parallel` is that sharding is purely
a performance decision — every kernel must return exactly the serial
result for 1, 2 or 4 workers.  The thresholds
that keep small inputs serial are monkeypatched down so the sharded
dispatch genuinely runs on test-sized inputs.
"""

import random

import pytest

import repro.engine.collisions as collisions_module
import repro.engine.randmac as randmac_module
import repro.engine.slots as slots_module
from repro.core.theorem1 import schedule_from_prototile
from repro.engine.parallel import (
    _workers_from_env,
    cpu_budget,
    plan_shards,
    run_sharded,
    set_workers,
    shard_workers,
    use_workers,
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
from repro.net.simulator import BroadcastSimulator, _decision_window_for
from repro.tiles.shapes import chebyshev_ball
from repro.utils.rng import StreamRNG
from repro.utils.vectors import box_points

WORKER_COUNTS = [1, 2, 4]


@pytest.fixture
def force_sharding(monkeypatch):
    """Drop the serial-below-this thresholds so tiny inputs shard too."""
    monkeypatch.setattr(collisions_module, "_MIN_PARALLEL_PROBES", 1)
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

    def test_set_workers_rejects_bad_counts(self):
        for bad in (0, -1, 1.5, "2"):
            with pytest.raises(ValueError):
                set_workers(bad)

    def test_use_workers_restores(self):
        before = shard_workers()
        with use_workers(before + 3):
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
            with use_workers(workers):
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
            with use_workers(workers):
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
            with use_workers(workers):
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
        with use_workers(4):
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
            with use_workers(workers):
                assert run() == reference

    def test_decision_window_widens_with_workers(self):
        with use_workers(1):
            assert _decision_window_for(100) == 128
        with use_workers(4):
            assert _decision_window_for(100) == 512
            # the cell cap bounds the widened window for huge networks
            assert _decision_window_for(1 << 22) == 128
