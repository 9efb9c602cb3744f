"""Scenario experiment: the differential oracle as a reproduction check.

One pinned-seed spec per generator family, replayed across the full
engine matrix — ``{1, 2 workers} x {full, incremental}`` — with zero
tolerated divergences or invariant violations.  This is the registry-facing face of
:mod:`repro.scenarios`; the deep corpus lives in the integration suite
and the ``scenario-stress`` CI tier.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.scenarios.generators import family_names, generate
from repro.scenarios.oracle import full_matrix, run_oracle

__all__ = ["run_scenarios"]


def run_scenarios(seed: int = 2008, per_family: int = 2) -> ExperimentResult:
    """Oracle sweep: ``per_family`` specs per family at a pinned seed."""
    matrix = full_matrix()
    rows = []
    failures = []
    for family in family_names():
        for index in range(per_family):
            spec = generate(family, seed, index)
            report = run_oracle(spec, paths=matrix)
            rows.append({
                "family": family,
                "index": index,
                "window": len(spec.window_points()),
                "paths": len(report.paths),
                "violations": len(report.violations),
            })
            if not report.ok:
                failures.append(spec.cli_command())
    notes = (f"seed={seed}; reproduce failures via: "
             + "; ".join(failures) if failures
             else f"seed={seed}; every path bit-identical")
    return ExperimentResult(
        "scenarios", "Differential scenario oracle (engine cross-check)",
        "every engine path — workers x full/incremental — answers "
        "each generated scenario identically, "
        "the answers equal the brute-force reference and satisfy "
        "Theorems 1/2",
        rows, passed=not failures, notes=notes)
