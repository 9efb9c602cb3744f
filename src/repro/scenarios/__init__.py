"""repro.scenarios — deterministic scenario generation + differential oracle.

The ROADMAP's north star asks for a system that handles "as many
scenarios as you can imagine"; this package is where the scenarios come
from and where every engine path is held to the same answer on each one.

* :mod:`repro.scenarios.spec` — the frozen :class:`ScenarioSpec`: one
  end-to-end workload (construction, window, failures, drift, edit
  script, protocol) as a JSON-round-trippable value that materializes
  into a :class:`repro.api.Session`;
* :mod:`repro.scenarios.generators` — composable generator families
  (``grid_sweep``, ``heterogeneous_mix``, ``churn``, ``mobile``,
  ``adversarial_edits``); a spec is a pure function of
  ``(family, seed, index)`` via counter-based rng streams;
* :mod:`repro.scenarios.oracle` — the differential stress harness: one
  spec across ``{1, 2 workers} x {full, incremental} x {facade,
  legacy}``, asserting bit-identity, equality with the brute-force
  answers and the paper's invariants;
* :mod:`repro.scenarios.reference` — those brute-force answers, straight
  from the paper's definitions of slots, collisions and receptions.

CLI::

    python -m repro.scenarios list
    python -m repro.scenarios show grid_sweep --seed 2008 --index 3
    python -m repro.scenarios run churn --seed 2008 --index 1
    python -m repro.scenarios corpus --seed 2008 --count 4 --json out.json
"""

from repro.scenarios.generators import (
    FAMILIES,
    ScenarioFamily,
    family_names,
    generate,
    generate_corpus,
    iter_corpus,
    scenario_family,
)
from repro.scenarios.oracle import (
    EnginePath,
    Observation,
    OracleReport,
    full_matrix,
    run_corpus,
    run_oracle,
    run_path,
)
from repro.scenarios.spec import (
    ScenarioSpec,
    spec_from_dict,
    spec_from_json,
)

__all__ = [
    "FAMILIES",
    "EnginePath",
    "Observation",
    "OracleReport",
    "ScenarioFamily",
    "ScenarioSpec",
    "family_names",
    "full_matrix",
    "generate",
    "generate_corpus",
    "iter_corpus",
    "run_corpus",
    "run_oracle",
    "run_path",
    "scenario_family",
    "spec_from_dict",
    "spec_from_json",
]
