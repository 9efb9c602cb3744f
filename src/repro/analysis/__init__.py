"""repro.analysis — static enforcement of the library's invariants.

The test suite proves the invariants dynamically (the 8-path scenario
oracle, the brute-force reference comparisons); this package proves the
*preconditions* statically, at review time, the same check-legality-
before-you-run discipline as a dependence-checked tiling legality
analysis.  Six AST rules guard the contracts everything else builds on:

==========================  ===========================================
``determinism-random``      randomness only via :mod:`repro.utils.rng`
``determinism-wallclock``   no wall clock on engine/scenario paths
``config-hygiene``          no import-time ``os.environ`` reads
``generator-purity``        scenario generators are pure functions
``fault-hygiene``           no silently swallowed engine failures
``export-integrity``        ``__all__`` is literal, truthful, complete
==========================  ===========================================

Run it::

    python -m repro.analysis check --strict src    # the CI gate
    python -m repro.analysis explain config-hygiene
    python -m repro.analysis typecheck             # mypy --strict core

Suppress a finding only with a written reason::

    x = time.time()  # repro: allow[determinism-wallclock] -- <why>

Alongside the linter, :mod:`repro.analysis.typing_gate` holds the typed
core (:mod:`repro.api`, :mod:`repro.engine.config`,
:mod:`repro.scenarios.spec` — shipped with a ``py.typed`` marker) to
``mypy --strict``, with a dependency-free annotation-completeness
fallback for environments without mypy.
"""

from __future__ import annotations

from repro.analysis.core import (
    ModuleInfo,
    Pragma,
    Rule,
    Violation,
    all_rules,
    check_paths,
    fingerprint,
    get_rule,
    load_baseline,
    register_rule,
    rule_ids,
    save_baseline,
)
from repro.analysis.report import render_json, render_text
from repro.analysis.typing_gate import (
    TYPED_CORE,
    annotation_gaps,
    mypy_available,
    run_typing_gate,
)

__all__ = [
    "ModuleInfo",
    "Pragma",
    "Rule",
    "Violation",
    "all_rules",
    "check_paths",
    "fingerprint",
    "get_rule",
    "register_rule",
    "rule_ids",
    "load_baseline",
    "save_baseline",
    "render_json",
    "render_text",
    "TYPED_CORE",
    "annotation_gaps",
    "mypy_available",
    "run_typing_gate",
]
