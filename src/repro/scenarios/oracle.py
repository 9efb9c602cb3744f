"""The differential oracle: one scenario, every engine path, one answer.

The library serves the same questions through several independently
optimized paths — serial and process-sharded execution, full-window
rescans and incremental dirty-region re-verification.  Each pair is
pinned equivalent by its own unit suite; the oracle closes the loop
*end to end*: it replays one :class:`~repro.scenarios.spec.ScenarioSpec`
through the :class:`repro.api.Session` facade over the whole cross
product

    {1, 2 workers} x {full, incremental}

and demands that every path produce the bit-identical
:class:`Observation` — slot assignments per round, collision lists per
stage, simulation metrics, serialization round-trip.  The reference
observation must then equal the brute-force answers of
:mod:`repro.scenarios.reference` (per-point ``slot_of``, pairwise
neighbourhood tests, the paper's reception rules slot by slot) and
satisfy the paper's invariants (Theorem 1/2 collision-freeness and slot
optimality, ``verify_collision_free`` agreement, forced collisions
present, slots in range).

A failing spec reports human-readable violations plus the exact CLI
command (:meth:`~repro.scenarios.spec.ScenarioSpec.cli_command`) that
re-runs it standalone.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass, field

from repro.api import Session
from repro.core.certify import certify_schedule
from repro.core.schedule import (
    MappingSchedule,
    MultiTilingSchedule,
    TilingSchedule,
    verify_collision_free,
)
from repro.core.theorem1 import optimal_slot_count, schedule_from_prototile
from repro.core.theorem2 import schedule_from_multi_tiling, theorem2_slot_count
from repro.engine.config import EngineConfig, use_config
from repro.net.model import Network, SensorNode
from repro.net.protocols import make_protocol
from repro.net.simulator import BroadcastSimulator
from repro.scenarios.reference import (
    reference_collisions,
    reference_receptions,
    reference_slots,
)
from repro.scenarios.spec import ScenarioSpec
from repro.tiles.shapes import GALLERY, chebyshev_ball
from repro.tiling.construct import alternating_column_tiling
from repro.utils.vectors import vsub

__all__ = [
    "EnginePath",
    "Observation",
    "OracleReport",
    "full_matrix",
    "run_path",
    "run_oracle",
    "run_corpus",
]


@dataclass(frozen=True)
class EnginePath:
    """One cell of the engine matrix."""

    workers: int   # 1 | 2
    mode: str      # "full" | "incremental"

    def label(self) -> str:
        return f"w{self.workers}/{self.mode}"

    def config(self) -> EngineConfig:
        return EngineConfig(workers=self.workers)


def full_matrix(workers=(1, 2),
                modes=("full", "incremental")) -> tuple[EnginePath, ...]:
    """The engine matrix (2 x 2 = 4 paths by default).

    Narrow any axis for cheaper sweeps (the property suite runs
    ``workers=(1,)``); the CI stress tier and the pinned corpus always
    run the full product.
    """
    return tuple(EnginePath(w, m)
                 for w, m in itertools.product(workers, modes))


@dataclass(frozen=True)
class Observation:
    """Everything a path observed, in comparable form.

    Attributes:
        num_slots: slot count of the final (post-edit) schedule.
        slots: per verification round, the slot of every window sensor.
        collisions: per stage — the pristine schedule, then one stage
            per edit step (for drifting specs: one stage per round) —
            the collision list over the stage's window.
        metrics: the full :class:`~repro.net.metrics.SimulationMetrics`
            field tuple, or ``None`` when the spec skips simulation.
        roundtrip_slots: slots of the save/load round-tripped final
            schedule over the base window (must equal ``slots[0]`` for
            static specs — serialization must not change assignments).
    """

    num_slots: int
    slots: tuple[tuple[int, ...], ...]
    collisions: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
                      ...]
    metrics: tuple | None
    roundtrip_slots: tuple[int, ...]


def _freeze_collisions(collisions) -> tuple:
    return tuple((tuple(x), tuple(y)) for x, y in collisions)


# ----------------------------------------------------------------------
# Engine paths: everything through repro.api.Session
# ----------------------------------------------------------------------
def run_path(spec: ScenarioSpec, path: EnginePath) -> Observation:
    """One spec through one engine path."""
    config = path.config()
    incremental = path.mode == "incremental"
    session = spec.base_session(config=config)
    rounds = spec.rounds()
    slots = tuple(tuple(int(s) for s in session.assign(window).slots)
                  for window in rounds)

    stages: list[tuple] = []
    if spec.edits:
        working = session.restrict()
        stages.append(_verify_facade(working, None, incremental))
        if incremental:
            for step in spec.edits:
                working = working.edit(dict(step))
                stages.append(_verify_facade(working, None, True))
        else:
            # The full-rescan lane rebuilds the edited assignment by
            # hand: no deltas, no warm caches, a fresh session per
            # stage — the reference the incremental lane must match.
            window = spec.window_points()
            assignment = dict(zip(
                window, (int(s) for s in working.assign(window).slots)))
            for step in spec.edits:
                assignment.update({point: slot for point, slot in step})
                working = Session.for_mapping(
                    assignment, config=config,
                    neighborhood_of=session.schedule.neighborhood_of,
                    window=window)
                stages.append(_verify_facade(working, None, False))
        final = working
    else:
        for window in rounds:
            stages.append(_verify_facade(session, window, incremental))
        final = session

    metrics = _simulate_facade(spec, final) if spec.protocol else None

    text = final.save()
    reloaded = Session.load(text, config=config)
    base_window = spec.window_points()
    roundtrip = tuple(int(s) for s in reloaded.assign(base_window).slots)

    return Observation(num_slots=final.num_slots, slots=slots,
                       collisions=tuple(stages), metrics=metrics,
                       roundtrip_slots=roundtrip)


def _verify_facade(session: Session, window, incremental: bool) -> tuple:
    if not incremental:
        report = session.verify(window, use_cache=False)
        return _freeze_collisions(report.collisions)
    first = session.verify(window)
    # The repeat must answer without rescanning: from the warm cache, or
    # O(1) from the schedule's periodicity certificate.
    second = session.verify(window)
    if (second.collisions != first.collisions
            or second.source not in ("cache", "certificate")
            or second.checked_points != 0):
        raise AssertionError(
            f"repeat verify diverged from its own scan: "
            f"{first.source}/{first.collisions} then "
            f"{second.source}/{second.collisions} "
            f"(checked {second.checked_points})")
    return _freeze_collisions(first.collisions)


def _simulate_facade(spec: ScenarioSpec, session: Session) -> tuple:
    metrics = session.simulate(spec.protocol, spec.sim_slots,
                               window=spec.window_points(),
                               seed=spec.sim_seed,
                               **dict(spec.protocol_params))
    return astuple(metrics)


# ----------------------------------------------------------------------
# The theorem schedules and networks, built without the facade
# ----------------------------------------------------------------------
def _theorem_schedule(spec: ScenarioSpec):
    if spec.construction == "prototile":
        return schedule_from_prototile(GALLERY[spec.prototile])
    if spec.construction == "chebyshev":
        return schedule_from_prototile(chebyshev_ball(spec.radius,
                                                      spec.dimension))
    return schedule_from_multi_tiling(
        alternating_column_tiling(spec.pattern))


def _network_and_protocol(spec: ScenarioSpec, final, neighborhood):
    window = spec.window_points()
    # Mirror Session.network's construction branch for the *final*
    # schedule: Theorem 1/2 schedules derive interference from their
    # structure, mapping schedules use the interference model carried
    # over from the base construction.
    if isinstance(final, TilingSchedule):
        network = Network.homogeneous(window, final.prototile)
    elif isinstance(final, MultiTilingSchedule):
        network = Network.from_multi_tiling(window, final.multi)
    else:
        network = Network(SensorNode(p, neighborhood(p)) for p in window)
    protocol = make_protocol(spec.protocol, positions=network.positions,
                             schedule=final, **dict(spec.protocol_params))
    return network, protocol


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
@dataclass
class OracleReport:
    """Outcome of one spec across the matrix."""

    spec: ScenarioSpec
    paths: tuple[EnginePath, ...]
    violations: list[str] = field(default_factory=list)
    reference: Observation | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [f"[{status}] {self.spec.label()} "
                 f"({len(self.paths)} paths)"]
        lines.extend(f"  violation: {v}" for v in self.violations)
        if not self.ok:
            lines.append(f"  reproduce: {self.spec.cli_command()}")
        return "\n".join(lines)

    def to_row(self) -> dict:
        return {
            "family": self.spec.family,
            "seed": self.spec.seed,
            "index": self.spec.index,
            "paths": len(self.paths),
            "ok": self.ok,
            "violations": len(self.violations),
        }


def _check_invariants(spec: ScenarioSpec, obs: Observation,
                      violations: list[str]) -> None:
    """Paper-level invariants on the reference observation."""
    for round_index, round_slots in enumerate(obs.slots):
        bad = [s for s in round_slots if not 0 <= s < obs.num_slots]
        if bad and not spec.edits:
            violations.append(
                f"round {round_index}: slots {bad[:3]} outside "
                f"[0, {obs.num_slots})")
    final = obs.collisions[-1]
    if not spec.edits:
        # Theorems 1/2: the pristine schedule is collision-free over
        # every window (drifted rounds included — translation moves the
        # window, never the schedule's guarantee).
        for stage_index, stage in enumerate(obs.collisions):
            if stage:
                violations.append(
                    f"theorem violation: stage {stage_index} has "
                    f"{len(stage)} collisions on an unedited "
                    f"{spec.construction} schedule (first: {stage[0]})")
        expected = _optimal_slots(spec)
        if obs.num_slots != expected:
            violations.append(
                f"slot count {obs.num_slots} != theorem optimum {expected}")
    if spec.expect_collision_free is True and final:
        violations.append(
            f"expected a collision-free final state, found {len(final)} "
            f"collisions (first: {final[0]})")
    if spec.expect_collision_free is False and not final:
        violations.append(
            "expected final collisions, found a clean schedule")
    for pair in spec.forced_collisions:
        if pair not in final:
            violations.append(
                f"forced collision {pair} missing from the final "
                f"collision list")
    if not spec.edits and not spec.drift \
            and obs.roundtrip_slots != obs.slots[0]:
        violations.append(
            "serialization round-trip changed the slot assignment")


@dataclass(frozen=True)
class _BruteForce:
    """A spec's answers from :mod:`repro.scenarios.reference`.

    ``slots`` and ``collisions`` are shaped like the :class:`Observation`
    fields: per round, ``slot_of`` per point of the pristine schedule;
    per stage, pairwise neighbourhood tests over a dict of point to slot
    that applies the edit script step by step.  ``final`` is the last
    stage's schedule and ``window`` the window it was checked over.
    """

    slots: tuple
    collisions: tuple
    final: object
    window: list
    neighborhood: object


def _brute_force(spec: ScenarioSpec) -> _BruteForce:
    schedule = _theorem_schedule(spec)
    neighborhood = schedule.neighborhood_of
    rounds = spec.rounds()
    slots = tuple(tuple(reference_slots(schedule.slot_of, window))
                  for window in rounds)
    if not spec.edits:
        stages = tuple(_freeze_collisions(reference_collisions(
            window, schedule.slot_of, neighborhood)) for window in rounds)
        return _BruteForce(slots, stages, schedule, rounds[-1], neighborhood)
    window = spec.window_points()
    assignment = dict(zip(window, reference_slots(schedule.slot_of, window)))
    stages_list = [_freeze_collisions(reference_collisions(
        window, assignment.__getitem__, neighborhood))]
    for step in spec.edits:
        assignment.update({point: slot for point, slot in step})
        stages_list.append(_freeze_collisions(reference_collisions(
            window, assignment.__getitem__, neighborhood)))
    return _BruteForce(slots, tuple(stages_list),
                       MappingSchedule(assignment), window, neighborhood)


def _check_reference(spec: ScenarioSpec, reference: Observation,
                     expected: _BruteForce, violations: list[str]) -> None:
    """The reference observation against the brute-force answers.

    Slots and collision stages must equal :func:`_brute_force`.  The
    simulation is replayed slot by slot on the scalar
    ``wants_to_send`` path, each slot's receptions checked against
    :func:`~repro.scenarios.reference.reference_receptions`, and the
    final metrics must equal the observed ones — which also pins the
    bulk random-MAC decision blocks to the scalar ``StreamRNG`` draws.
    """
    if reference.slots != expected.slots:
        violations.append(
            f"reference: slots diverge from per-point slot_of: "
            f"{_clip(reference.slots)} != {_clip(expected.slots)}")
    if reference.collisions != expected.collisions:
        violations.append(
            f"reference: collisions diverge from the brute-force pairwise "
            f"test: {_clip(reference.collisions)} != "
            f"{_clip(expected.collisions)}")
    if not spec.protocol:
        return
    final = expected.final
    network, protocol = _network_and_protocol(spec, final,
                                              expected.neighborhood)
    simulator = BroadcastSimulator(network, protocol,
                                   packet_interval=final.num_slots,
                                   seed=spec.sim_seed, bulk_decisions=False)
    receivers = {p: network.receivers_of(p) for p in network.positions}
    metrics = simulator.metrics
    for time in range(spec.sim_slots):
        failed, completed = (metrics.failed_receptions,
                             metrics.successful_broadcasts)
        outcome = reference_receptions(simulator.step(), receivers)
        lost = sum(len(lost) for _, lost in outcome.values())
        done = sum(not lost for _, lost in outcome.values())
        if (metrics.failed_receptions - failed,
                metrics.successful_broadcasts - completed) != (lost, done):
            violations.append(
                f"reference: slot {time} resolved "
                f"{metrics.failed_receptions - failed} lost / "
                f"{metrics.successful_broadcasts - completed} completed, "
                f"the reception rules give {lost} / {done}")
            return
    if astuple(metrics) != reference.metrics:
        violations.append(
            f"reference: the scalar-decision replay's metrics "
            f"{_clip(astuple(metrics))} != {_clip(reference.metrics)}")


def _check_certificate(spec: ScenarioSpec, expected: _BruteForce,
                       violations: list[str]) -> None:
    """The certificate leg: the verdict must agree with brute force.

    Certify the spec's pristine periodic schedule and demand that every
    brute-force colliding pair ``(x, y)`` of every verification window
    reduces to a colliding class ``(canonical(x), y - x)`` — so a
    collision-free certificate admits no brute-force pair at all.  The
    final schedule of an edit script is an aperiodic
    ``MappingSchedule`` and must *refuse* to certify — falling back to
    the full scan is part of the contract.
    """
    with use_config(EngineConfig(workers=1)):
        certificate = certify_schedule(_theorem_schedule(spec))
        if certificate is None:
            violations.append(
                f"certificate: certify_schedule returned None for a "
                f"periodic {spec.construction} schedule")
            return
        canonical = certificate.period.canonical_representative
        classes = set(certificate.colliding_classes)
        stages = expected.collisions[:1] if spec.edits \
            else expected.collisions
        for index, pairs in enumerate(stages):
            stray = [(x, y) for x, y in pairs
                     if (canonical(x), vsub(y, x)) not in classes]
            if stray:
                violations.append(
                    f"certificate: window {index} has brute-force pairs "
                    f"outside the colliding classes "
                    f"{_clip(certificate.colliding_classes)}: "
                    f"{_clip(stray)}")
        if spec.edits and certify_schedule(expected.final) is not None:
            violations.append(
                "certificate: an edited mapping schedule certified as "
                "periodic")


def _optimal_slots(spec: ScenarioSpec) -> int:
    if spec.construction == "prototile":
        return optimal_slot_count(GALLERY[spec.prototile])
    if spec.construction == "chebyshev":
        return optimal_slot_count(chebyshev_ball(spec.radius,
                                                 spec.dimension))
    return theorem2_slot_count(alternating_column_tiling(spec.pattern))


def run_oracle(spec: ScenarioSpec,
               paths: tuple[EnginePath, ...] | None = None) -> OracleReport:
    """One spec across the engine matrix, cross-checked and invariant-checked.

    The first path's observation is the reference; every other path must
    reproduce it bit for bit, the reference must equal the brute-force
    answers (:func:`_check_reference`) and satisfy the paper invariants.
    ``verify_collision_free`` is additionally cross-checked against the
    reference collision list on the final schedule, and the certificate
    leg (:func:`_check_certificate`) holds the O(fundamental-domain)
    verdict to the brute-force collision lists.
    """
    if paths is None:
        paths = full_matrix()
    report = OracleReport(spec=spec, paths=tuple(paths))
    reference: Observation | None = None
    reference_path: EnginePath | None = None
    for path in paths:
        try:
            observation = run_path(spec, path)
        except Exception as error:  # noqa: BLE001 - the report is the point
            report.violations.append(
                f"{path.label()}: raised {type(error).__name__}: {error}")
            continue
        if reference is None:
            reference, reference_path = observation, path
            continue
        if observation != reference:
            report.violations.append(_diff(reference_path, path, reference,
                                           observation))
    if reference is not None:
        report.reference = reference
        expected = _brute_force(spec)
        _check_reference(spec, reference, expected, report.violations)
        _check_invariants(spec, reference, report.violations)
        _check_certificate(spec, expected, report.violations)
        clean = verify_collision_free(expected.final, expected.window,
                                      expected.neighborhood)
        if clean != (not reference.collisions[-1]):
            report.violations.append(
                f"verify_collision_free says {clean} but the final "
                f"collision list has {len(reference.collisions[-1])} "
                f"entries")
    return report


def _diff(reference_path: EnginePath, path: EnginePath,
          reference: Observation, observation: Observation) -> str:
    for name in ("num_slots", "slots", "collisions", "metrics",
                 "roundtrip_slots"):
        a, b = getattr(reference, name), getattr(observation, name)
        if a != b:
            return (f"{path.label()} diverges from {reference_path.label()} "
                    f"on {name}: {_clip(b)} != {_clip(a)}")
    return f"{path.label()} diverges from {reference_path.label()}"


def _clip(value, limit: int = 160) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def run_corpus(specs, paths: tuple[EnginePath, ...] | None = None,
               ) -> list[OracleReport]:
    """The oracle over a spec corpus (used by the CLI and the CI tier)."""
    return [run_oracle(spec, paths=paths) for spec in specs]
