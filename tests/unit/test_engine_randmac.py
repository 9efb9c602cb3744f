"""Equivalence tests for the vectorized random-MAC path.

The contract under test: SlottedAloha / CSMALike simulations produce
**bit-identical** ``SimulationMetrics`` whichever way the decisions are
computed — numpy decision blocks or the scalar ``wants_to_send``
reference loop — because every decision is a pure function of
``(seed, sensor, slot)`` through the counter-based ``StreamRNG``.
"""

import pytest

from repro.engine import bernoulli_block, masked_bernoulli_block, uniform_block
from repro.net.model import Network
from repro.net.protocols import CSMALike, MACProtocol, SlottedAloha
from repro.net.simulator import (
    BroadcastSimulator,
    compare_protocols,
    simulate,
)
from repro.tiles.shapes import chebyshev_ball
from repro.utils.rng import StreamRNG
from repro.utils.vectors import box_points

PROTOCOLS = {
    "aloha": lambda: SlottedAloha(0.3),
    "csma": lambda: CSMALike(0.3),
}

# 1-D line and 2-D grid lattice networks, per the scheduling model's
# d-dimensional generality.
NETWORKS = {
    "1d-line": lambda: Network.homogeneous(
        box_points((0,), (23,)), chebyshev_ball(1, dimension=1)),
    "2d-grid": lambda: Network.homogeneous(
        box_points((0, 0), (5, 5)), chebyshev_ball(1)),
}


def _as_lists(block):
    """Nested lists from a numpy block or the scalar path's lists."""
    if hasattr(block, "tolist"):
        return block.tolist()
    return [list(row) for row in block]


# ----------------------------------------------------------------------
# Kernel-level equivalence
# ----------------------------------------------------------------------
class TestStreamKernels:
    @pytest.mark.parametrize("shape", [(5, 10, 14), (40, 0, 25)])
    def test_uniform_block_matches_scalar(self, shape):
        rng = StreamRNG(99)
        streams, t0, t1 = shape
        block = _as_lists(uniform_block(rng, streams, t0, t1))
        assert block == [[rng.uniform(i, t) for i in range(streams)]
                         for t in range(t0, t1)]

    def test_uniform_block_chunk_invariant(self):
        # Values depend only on (sensor, slot): splitting the window in
        # two (at any shard boundary) changes nothing.
        rng = StreamRNG(5)
        whole = _as_lists(uniform_block(rng, 9, 0, 20))
        split = (_as_lists(uniform_block(rng, 9, 0, 13))
                 + _as_lists(uniform_block(rng, 9, 13, 20)))
        assert whole == split

    def test_bernoulli_block_thresholds_uniforms(self):
        rng = StreamRNG(1)
        uniforms = _as_lists(uniform_block(rng, 8, 0, 6))
        decisions = _as_lists(bernoulli_block(rng, 8, 0, 6, 0.4))
        assert decisions == [[u < 0.4 for u in row] for row in uniforms]

    def test_masked_block_mutes_without_shifting_streams(self):
        rng = StreamRNG(2)
        muted = [i % 3 == 0 for i in range(8)]
        plain = _as_lists(bernoulli_block(rng, 8, 4, 5, 0.6))
        masked = _as_lists(masked_bernoulli_block(rng, 8, 4, 5, 0.6, muted))
        assert masked == [[(not muted[i]) and d
                           for i, d in enumerate(row)]
                          for row in plain]

    def test_distinct_seeds_distinct_streams(self):
        a = StreamRNG(0)
        b = StreamRNG(1)
        assert [a.uniform(0, t) for t in range(8)] != \
            [b.uniform(0, t) for t in range(8)]

    def test_rng_seed_accepts_random_instance(self):
        import random
        x = StreamRNG(random.Random(3))
        y = StreamRNG(random.Random(3))
        assert x.root == y.root
        assert x.uniform(2, 5) == y.uniform(2, 5)


# ----------------------------------------------------------------------
# Protocol decision blocks vs the scalar reference
# ----------------------------------------------------------------------
class TestDecisionBlocks:
    def test_aloha_block_matches_scalar_fallback(self):
        positions = list(box_points((0, 0), (4, 4)))
        heard = [False] * len(positions)
        rng = StreamRNG(13)
        protocol = SlottedAloha(0.25)
        fast = _as_lists(protocol.decision_block(positions, 3, 9, heard, rng))
        slow = MACProtocol.decision_block(protocol, positions, 3, 9,
                                          heard, rng)
        assert fast == slow

    @pytest.mark.parametrize("t1", [8, 11])
    def test_csma_block_matches_scalar_fallback(self, t1):
        # Both the single-slot window the simulator uses and a
        # multi-slot window, where carrier sense only applies to the
        # first row per the decision_block contract.
        positions = list(box_points((0, 0), (4, 4)))
        heard = [i % 2 == 0 for i in range(len(positions))]
        rng = StreamRNG(13)
        protocol = CSMALike(0.25)
        fast = _as_lists(protocol.decision_block(positions, 7, t1,
                                                 heard, rng))
        slow = MACProtocol.decision_block(protocol, positions, 7, t1,
                                          heard, rng)
        assert fast == slow

    def test_subclassed_scalar_rule_is_honored(self):
        # A subclass that only overrides wants_to_send must not be
        # short-circuited by the parent's vectorized decision_block.
        class NeverSend(SlottedAloha):
            def wants_to_send(self, position, time, heard_last_slot, rng):
                return False

        class PoliteCSMA(CSMALike):
            def wants_to_send(self, position, time, heard_last_slot, rng):
                return (not heard_last_slot) and rng.random() < self.p / 2

        network = NETWORKS["2d-grid"]()
        silent = simulate(network, NeverSend(0.9), slots=30, seed=1)
        assert silent.transmissions == 0
        polite = BroadcastSimulator(network, PoliteCSMA(0.8), seed=2)
        reference = BroadcastSimulator(network, PoliteCSMA(0.8), seed=2,
                                       bulk_decisions=False)
        assert polite.run(30) == reference.run(30)


# ----------------------------------------------------------------------
# Simulator-level equivalence: bulk decision blocks vs the scalar loop
# ----------------------------------------------------------------------
class TestSimulatorScalarEquivalence:
    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("network_name", sorted(NETWORKS))
    @pytest.mark.parametrize("seed", [0, 11])
    def test_bulk_matches_scalar_reference(self, protocol_name,
                                           network_name, seed):
        network = NETWORKS[network_name]()
        per_mode = [
            BroadcastSimulator(network, PROTOCOLS[protocol_name](),
                               packet_interval=4, seed=seed,
                               bulk_decisions=bulk).run(50)
            for bulk in (True, False)]
        assert per_mode[0] == per_mode[1]
        assert per_mode[0].transmissions > 0


class TestWindowInvariance:
    def test_decision_window_size_is_transparent(self, monkeypatch):
        # Shard-boundary independence: chunking the ALOHA decision
        # precomputation into 1-slot windows changes nothing.
        network = NETWORKS["2d-grid"]()

        def run():
            return simulate(network, SlottedAloha(0.2), slots=40,
                            packet_interval=4, seed=21)

        default = run()
        monkeypatch.setattr("repro.net.simulator._DECISION_WINDOW", 1)
        assert run() == default


# ----------------------------------------------------------------------
# Public API seeding (satellite: seed threads through simulate())
# ----------------------------------------------------------------------
class TestPublicSeedAPI:
    def test_simulate_reproducible_from_seed(self):
        network = NETWORKS["2d-grid"]()
        a = simulate(network, SlottedAloha(0.3), slots=30, seed=4)
        b = simulate(network, SlottedAloha(0.3), slots=30, seed=4)
        assert a == b

    def test_simulate_seeds_differ(self):
        network = NETWORKS["2d-grid"]()
        a = simulate(network, SlottedAloha(0.3), slots=30, seed=4)
        b = simulate(network, SlottedAloha(0.3), slots=30, seed=5)
        assert a != b

    def test_compare_protocols_threads_seed(self):
        network = NETWORKS["2d-grid"]()
        protocols = [SlottedAloha(0.3), CSMALike(0.3)]
        runs = [compare_protocols(network, protocols, slots=30, seed=9)
                for _ in range(2)]
        assert runs[0] == runs[1]
