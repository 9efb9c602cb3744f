"""Slotted broadcast simulator implementing the paper's collision rules.

Time is slotted (the schedules assume "access to the current time,
represented by an integer t").  Each slot:

1. every backlogged sensor asks its MAC protocol whether to transmit;
2. receptions resolve under the paper's two collision rules —
   a transmitting sensor cannot receive, and a sensor covered by two or
   more simultaneous transmitters receives none of them;
3. a transmission whose *every* intended receiver got the message
   completes the broadcast (the packet leaves the queue); otherwise the
   packet stays queued and is retransmitted later — the energy waste the
   paper's introduction highlights.

Traffic model: every sensor generates one broadcast packet every
``packet_interval`` slots (deterministic sensing reports), queued FIFO.

Execution runs on the bulk engine: the network topology is frozen once
into the dense-id adjacency of :class:`repro.engine.simindex`, the two
collision rules reduce to coverage *counts* over that adjacency (a sensor
is jammed iff >= 2 transmitters cover it; it hears something iff >= 1
does), and purely periodic protocols expose a slot table so per-slot MAC
decisions become one comparison per sensor.  Random protocols go through
:meth:`repro.net.protocols.MACProtocol.decision_block`: decisions for a
whole window of slots are drawn at once from a counter-based
:class:`repro.utils.rng.StreamRNG` keyed by ``(seed, sensor, slot)``, so
results are independent of iteration order and window boundaries.
Carrier-sensing protocols are dispatched one slot at a time (the
carrier-sense vector — a neighborhood OR over the CSR adjacency — only
exists once the previous slot resolves) but still vectorize across
sensors.  The counts and decisions are computed by numpy array kernels;
:func:`repro.scenarios.reference.reference_receptions` states the same
two rules over plain receiver lists, and the test suite holds the
simulator to it slot by slot.

With workers enabled (the simulator's ``config=``, an enclosing
:func:`~repro.engine.config.use_config` block or ``REPRO_ENGINE_WORKERS``)
large decision windows additionally shard their sensor axis across
the engine's thread pool inside the randmac kernels; because every
decision is keyed by ``(seed, sensor, slot)``, the resulting
:class:`SimulationMetrics` are bit-identical for any worker count.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.engine.config import EngineConfig, use_config
from repro.faults.injection import active_plan as _active_plan
from repro.net.energy import UNIT_TX_MODEL, EnergyModel
from repro.net.metrics import SimulationMetrics
from repro.net.model import Network
from repro.net.protocols import MACProtocol, make_protocol
from repro.utils.rng import StreamRNG
from repro.utils.validation import require_positive
from repro.utils.vectors import IntVec

__all__ = ["BroadcastSimulator", "simulate", "compare_protocols"]

#: Slots of random-MAC decisions precomputed per ``decision_block`` call
#: for protocols that do not carrier-sense.  Purely a batching knob: the
#: counter-based rng makes the results independent of the window size.
_DECISION_WINDOW = 128


class BroadcastSimulator:
    """Stateful slotted simulator for one network + MAC protocol pair."""

    def __init__(self, network: Network, protocol: MACProtocol,
                 packet_interval: int = 1,
                 seed: int | None = None,
                 energy_model: EnergyModel = UNIT_TX_MODEL,
                 bulk_decisions: bool = True,
                 config: EngineConfig | None = None):
        """``bulk_decisions=False`` forces the scalar reference path:
        random-MAC decisions fall back to one ``wants_to_send`` call per
        sensor per slot (ignoring any vectorized ``decision_block``
        override).  Both paths draw from the same per-sensor counter
        streams, so they produce identical metrics — the flag exists for
        the oracle's scalar reference replay and the tests and
        benchmarks that prove the equivalence.

        ``config`` pins this simulator's worker count; without one (or
        with ``workers=None``) the enclosing resolution applies.  The
        config is entered around every :meth:`step` and :meth:`run`, so
        the kernels the MAC protocols dispatch into see it too.
        """
        require_positive(packet_interval, "packet_interval")
        self._config = config
        self.network = network
        self.protocol = protocol
        self.packet_interval = packet_interval
        self.energy_model = energy_model
        self.metrics = SimulationMetrics(protocol=protocol.name,
                                         num_sensors=len(network))
        self._positions = network.positions
        self._n = len(self._positions)
        self._adjacency = network.adjacency_index()
        # FIFO of packet creation times per sensor, by dense id.
        self._queues: list[deque[int]] = [deque() for _ in range(self._n)]
        self._heard = [False] * self._n
        # Purely periodic protocols publish their decisions as a slot
        # table; errors (e.g. a schedule not covering every position)
        # surface through wants_to_send on the slow path, exactly as they
        # would without the table.
        try:
            table = getattr(protocol, "slot_table",
                            lambda positions: None)(self._positions)
        except Exception:
            table = None
        round_length = protocol.slots_per_round()
        if table is not None and round_length:
            self._slot_table: list[int] | None = list(table)
            self._round_length = round_length
            # Byzantine injection seam: an armed FaultPlan corrupts the
            # published slot table (a pure function of the plan seed and
            # the sorted sensor positions, so every run corrupts the
            # same sensors to the same wrong slots).  Unarmed this is a
            # single None check.
            plan = _active_plan()
            if plan is not None and plan.byzantine > 0.0:
                assignment = dict(zip(self._positions, self._slot_table))
                corrupted = plan.corrupt_assignment(assignment, round_length)
                if corrupted:
                    index_of = {point: i
                                for i, point in enumerate(self._positions)}
                    for point, slot in corrupted.items():
                        self._slot_table[index_of[point]] = slot
        else:
            self._slot_table = None
            self._round_length = None
        # Random-protocol path: per-sensor counter streams + windowed
        # decision blocks.  The scalar reference mode pins dispatch to
        # the base-class wants_to_send loop, one slot at a time.
        self._stream = StreamRNG(seed)
        if bulk_decisions:
            self._decision_block = protocol.decision_block
            self._decision_window = (1 if protocol.uses_carrier_sense
                                     else _DECISION_WINDOW)
        else:
            self._decision_block = (
                lambda *args: MACProtocol.decision_block(protocol, *args))
            self._decision_window = 1
        self._decision_rows = None
        self._decision_t0 = 0
        # run() advances this so windows never precompute past the
        # requested horizon; step() callers keep the unbounded default.
        self._decision_horizon: int | None = None
        self._edge_senders, self._edge_receivers = \
            self._adjacency.edge_arrays()
        self._slot_array = (np.asarray(self._slot_table, dtype=np.int64)
                            if self._slot_table is not None else None)
        self._backlogged = np.zeros(self._n, dtype=bool)
        self._time = 0

    # ------------------------------------------------------------------
    @property
    def time(self) -> int:
        """Current slot number."""
        return self._time

    def pending_packets(self) -> int:
        """Packets still queued across all sensors."""
        return sum(len(q) for q in self._queues)

    def step(self) -> list[IntVec]:
        """Advance one slot; returns the sensors that transmitted."""
        with use_config(self._config):
            return self._step()

    def _step(self) -> list[IntVec]:
        time = self._time
        metrics = self.metrics
        n = self._n
        queues = self._queues
        # Traffic generation.
        if time % self.packet_interval == 0:
            for queue in queues:
                queue.append(time)
            metrics.packets_created += n
            self._backlogged[:] = True

        # MAC decisions (only backlogged sensors transmit).
        backlogged = self._backlogged
        if self._slot_table is not None:
            slot = time % self._round_length
            transmitters = np.nonzero(
                backlogged & (self._slot_array == slot))[0].tolist()
        else:
            row = np.asarray(self._decision_row(time), dtype=bool)
            transmitters = np.nonzero(backlogged & row)[0].tolist()
        # Flaky injection seam: an armed FaultPlan silently drops
        # scheduled transmissions, keyed purely by ``(sensor, slot)`` —
        # the transmitter list is in ascending dense-id order, so the
        # drops replay identically.  Unarmed this is a
        # single None check per slot.
        plan = _active_plan()
        if plan is not None and plan.flaky > 0.0 and transmitters:
            transmitters = plan.filter_transmitters(transmitters, time)
        num_transmitters = len(transmitters)
        metrics.transmissions += num_transmitters
        metrics.energy_transmit += \
            self.energy_model.tx_cost * num_transmitters

        # Reception resolution per the paper's two rules: a receiver is
        # lost iff it transmits itself (rule 1) or >= 2 transmitters
        # cover it (rule 2, where "cover" counts the sender too).
        is_tx = np.zeros(n, dtype=bool)
        is_tx[transmitters] = True
        tx_edges = is_tx[self._edge_senders]
        receivers = self._edge_receivers[tx_edges]
        counts = np.bincount(receivers, minlength=n)
        failed_edges = is_tx[receivers] | (counts[receivers] > 1)
        metrics.failed_receptions += int(failed_edges.sum())
        fail_per_sender = np.bincount(
            self._edge_senders[tx_edges][failed_edges], minlength=n)
        for i in transmitters:
            if not fail_per_sender[i]:
                self._complete_broadcast(i, time)
        self._heard = counts > 0
        total_receptions = int(counts.sum())

        # Non-transmit energy (counts already hold per-sensor receptions).
        model = self.energy_model
        if model.rx_cost > 0 or model.idle_cost > 0:
            metrics.energy_receive += model.rx_cost * total_receptions
            metrics.energy_idle += \
                model.idle_cost * (n - num_transmitters)

        self._time += 1
        metrics.slots = self._time
        positions = self._positions
        return [positions[i] for i in transmitters]

    def _decision_row(self, time: int):
        """This slot's MAC decisions, from the cached window if current.

        Decisions are a pure function of ``(seed, sensor, slot)`` (plus
        the carrier-sense vector, for single-slot windows), so the cache
        is transparent: any window size yields the same rows.
        """
        rows = self._decision_rows
        t0 = self._decision_t0
        if rows is None or not t0 <= time < t0 + len(rows):
            t0 = time
            t1 = t0 + self._decision_window
            if self._decision_horizon is not None:
                t1 = max(t0 + 1, min(t1, self._decision_horizon))
            rows = self._decision_block(self._positions, t0, t1,
                                        self._heard, self._stream)
            self._decision_rows = rows
            self._decision_t0 = t0
        return rows[time - t0]

    def _complete_broadcast(self, sensor: int, time: int) -> None:
        queue = self._queues[sensor]
        created = queue.popleft()
        if not queue:
            self._backlogged[sensor] = False
        metrics = self.metrics
        metrics.successful_broadcasts += 1
        metrics.packets_delivered += 1
        metrics.total_latency += time - created

    def run(self, slots: int) -> SimulationMetrics:
        """Simulate the given number of slots and return the metrics."""
        require_positive(slots, "slots")
        self._decision_horizon = self._time + slots
        try:
            with use_config(self._config):
                for _ in range(slots):
                    self._step()
        finally:
            self._decision_horizon = None
        return self.metrics


def _resolve_protocol(network: Network, protocol: MACProtocol | str,
                      protocol_params: dict) -> MACProtocol:
    if isinstance(protocol, str):
        return make_protocol(protocol, positions=network.positions,
                             **protocol_params)
    if protocol_params:
        raise TypeError(
            f"protocol parameters {sorted(protocol_params)} are only "
            f"accepted when the protocol is named by string")
    return protocol


def simulate(network: Network, protocol: MACProtocol | str, slots: int,
             packet_interval: int = 1,
             seed: int | None = None,
             energy_model: EnergyModel = UNIT_TX_MODEL,
             config: EngineConfig | None = None,
             **protocol_params) -> SimulationMetrics:
    """One-shot convenience wrapper around :class:`BroadcastSimulator`.

    ``protocol`` may be a constructed :class:`MACProtocol` or a
    registered name (``"aloha"``, ``"csma"``, ``"tdma"``, ...), in which
    case extra keyword arguments parameterize it — e.g.
    ``simulate(network, "aloha", slots=90, p=0.2)``.  ``config`` pins the
    worker count for this run; omitted, the enclosing resolution applies.
    """
    simulator = BroadcastSimulator(
        network, _resolve_protocol(network, protocol, protocol_params),
        packet_interval=packet_interval,
        seed=seed, energy_model=energy_model, config=config)
    return simulator.run(slots)


def compare_protocols(network: Network,
                      protocols: list[MACProtocol | str],
                      slots: int, packet_interval: int = 1,
                      seed: int | None = None,
                      energy_model: EnergyModel = UNIT_TX_MODEL,
                      config: EngineConfig | None = None,
                      ) -> list[SimulationMetrics]:
    """Run each protocol on the same network and traffic pattern."""
    return [
        simulate(network, protocol, slots,
                 packet_interval=packet_interval, seed=seed,
                 energy_model=energy_model, config=config)
        for protocol in protocols
    ]
