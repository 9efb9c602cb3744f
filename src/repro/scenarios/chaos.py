"""The chaos oracle: every injected fault masked or detected-and-repaired.

The differential oracle (:mod:`repro.scenarios.oracle`) pins all engine
paths to one fault-free answer.  This module closes the *fault* loop:
for every spec it arms the spec's :class:`repro.faults.FaultPlan` and
demands a deterministic verdict —

* **masked** — the faulted run produced the bit-identical observation
  (slots, collision lists, simulation metrics) as the fault-free
  reference, whose slots and collisions in turn equal the brute-force
  answers of :mod:`repro.scenarios.reference`.  The resilience-only
  fault (an injected numpy kernel failure) *must* land here: the
  degrade-to-exact path of the collision scan exists precisely so it
  never reaches an answer.
* **detected and repaired** — the faulted run diverged (flaky
  transmitters dropping sends, byzantine slot reports corrupting the
  simulator's table).  Divergence alone is legal only when a fault
  site that *should* be observable is armed; on top of it the chaos
  leg replays the byzantine corruption against the schedule itself
  (:func:`repro.faults.chaos.corrupt_session`), runs
  :meth:`repro.api.Session.repair`, asserts the repair succeeded, and
  then demands a clean verification of the repaired schedule on every
  path of the 4-path engine matrix and from the brute-force reference.
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext
from dataclasses import astuple, dataclass, field

from repro.api import Session
from repro.engine.collisions import EngineDegradedWarning
from repro.faults.chaos import corrupt_session, plan_for_spec
from repro.faults.injection import use_plan
from repro.faults.plan import FaultPlan
from repro.scenarios.oracle import EnginePath, _brute_force, full_matrix
from repro.scenarios.reference import reference_collisions
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "ChaosReport",
    "run_chaos",
    "run_chaos_corpus",
]


@dataclass
class ChaosReport:
    """Outcome of one spec under its armed fault plan.

    Attributes:
        spec: the scenario.
        plan: the armed plan (the spec's fault fields as probabilities).
        paths: the engine matrix the repaired schedule was verified on.
        masked: the fully armed run reproduced the fault-free
            observation bit for bit.
        faults_found: colliding pairs the byzantine corruption produced.
        points_rescheduled: sensors ``repair()`` moved.
        repair_rounds: repair rounds run.
        repaired: the post-corruption schedule verified clean (trivially
            ``True`` when the plan's byzantine site is cold).
        violations: human-readable failures; empty means the fault-model
            contract held.
    """

    spec: ScenarioSpec
    plan: FaultPlan
    paths: tuple[EnginePath, ...]
    masked: bool = False
    faults_found: int = 0
    points_rescheduled: int = 0
    repair_rounds: int = 0
    repaired: bool = True
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        if not self.ok:
            return "failed"
        return "masked" if self.masked else "repaired"

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [f"[{status}] {self.spec.label()} chaos={self.verdict} "
                 f"faults={self.faults_found} "
                 f"moved={self.points_rescheduled}"]
        lines.extend(f"  violation: {v}" for v in self.violations)
        return "\n".join(lines)

    def to_row(self) -> dict:
        return {
            "family": self.spec.family,
            "seed": self.spec.seed,
            "index": self.spec.index,
            "verdict": self.verdict,
            "masked": self.masked,
            "faults_found": self.faults_found,
            "points_rescheduled": self.points_rescheduled,
            "repaired": self.repaired,
            "ok": self.ok,
            "violations": len(self.violations),
        }


# ----------------------------------------------------------------------
# Observation under a plan
# ----------------------------------------------------------------------
def _observe(spec: ScenarioSpec, plan: FaultPlan | None) -> tuple:
    """Slots, collision list and metrics — optionally under an armed plan.

    Injected numpy kernel failures degrade to the exact scan with an
    :class:`EngineDegradedWarning`; the warning is the structured signal
    and is suppressed here because the *observation* is what the masked
    verdict compares.
    """
    arming = use_plan(plan) if plan is not None else nullcontext()
    with arming, warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDegradedWarning)
        session = spec.base_session()
        window = spec.window_points()
        slots = tuple(int(s) for s in session.assign(window).slots)
        report = session.verify(window, use_cache=False)
        collisions = tuple((tuple(x), tuple(y))
                           for x, y in report.collisions)
        metrics = None
        if spec.protocol:
            metrics = astuple(session.simulate(
                spec.protocol, spec.sim_slots, window=window,
                seed=spec.sim_seed, **dict(spec.protocol_params)))
    return (slots, collisions, metrics)


def _verify_all_paths(session: Session, paths: tuple[EnginePath, ...],
                      violations: list[str]) -> None:
    """A clean verification on every engine path, or a violation.

    The brute-force reference must find the schedule clean too.
    """
    window = session.window
    assert window is not None, "repair leg always runs on a windowed session"
    assignment = dict(zip(window,
                          (int(s) for s in session.assign(window).slots)))
    neighborhood = session.neighborhood_of
    if reference_collisions(window, assignment.__getitem__, neighborhood):
        violations.append(
            "reference: repaired schedule still collides under the "
            "brute-force pairwise test")
    for path in paths:
        check = Session.for_mapping(assignment, config=path.config(),
                                    neighborhood_of=neighborhood,
                                    window=window)
        clean = check.verify(
            use_cache=(path.mode == "incremental")).collision_free
        if not clean:
            violations.append(
                f"{path.label()}: repaired schedule still collides")


# ----------------------------------------------------------------------
# The chaos leg
# ----------------------------------------------------------------------
def run_chaos(spec: ScenarioSpec,
              paths: tuple[EnginePath, ...] | None = None) -> ChaosReport:
    """One spec through the fault-model contract.

    Four checks, all deterministic:

    0. *Reference*: the fault-free slots and collisions equal the
       brute-force answers.
    1. *Resilience masking*: the spec run with only the resilience
       site armed (one injected numpy kernel failure) must reproduce
       the fault-free observation bit for bit.
    2. *Observable faults*: the fully armed plan may diverge — but only
       when the spec actually carries an observable site (byzantine or
       flaky); an unexplained divergence is a violation.
    3. *Detect and repair*: the plan's byzantine corruption is applied
       to the restricted schedule itself, ``repair()`` must succeed,
       and the repaired schedule must verify clean on every engine
       path and under the brute-force reference.
    """
    if paths is None:
        paths = full_matrix()
    plan = plan_for_spec(spec)
    report = ChaosReport(spec=spec, plan=plan, paths=tuple(paths))
    clean = _observe(spec, None)
    expected = _brute_force(spec)
    if clean[:2] != (expected.slots[0], expected.collisions[0]):
        report.violations.append(
            "reference: the fault-free slots or collisions diverge from "
            "the brute-force answers")

    resilience = plan_for_spec(spec, byzantine=0.0, flaky=0.0,
                               numpy_failures=1)
    shielded = _observe(spec, resilience)
    if shielded != clean:
        report.violations.append(
            "resilience fault (numpy kernel failure) was not masked: the "
            "shielded run diverged from the fault-free reference")

    armed = _observe(spec, plan_for_spec(spec, numpy_failures=1))
    report.masked = armed == clean
    if not report.masked and plan.byzantine == 0.0 and plan.flaky == 0.0:
        report.violations.append(
            "armed run diverged although no observable fault site is "
            "active — an injection seam leaked outside its plan")

    # The byzantine corruption replayed against the schedule itself.
    base = spec.base_session().restrict()
    corrupted, updates = corrupt_session(base, plan)
    if updates:
        healed = corrupted.repair()
        report.faults_found = healed.faults_found
        report.points_rescheduled = healed.points_rescheduled
        report.repair_rounds = healed.rounds
        report.repaired = healed.repaired
        if not healed.repaired:
            report.violations.append(
                f"repair failed: {len(healed.collisions)} collision(s) "
                f"remain after {healed.rounds} round(s)")
            return report
        final = healed.session
    else:
        final = corrupted
    _verify_all_paths(final, report.paths, report.violations)
    return report


def run_chaos_corpus(specs, paths: tuple[EnginePath, ...] | None = None,
                     ) -> list[ChaosReport]:
    """The chaos oracle over a spec corpus (the CLI / CI chaos leg)."""
    return [run_chaos(spec, paths=paths) for spec in specs]

