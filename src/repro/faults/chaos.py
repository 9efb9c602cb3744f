"""Chaos-leg helpers: standard plans per scenario + schedule corruption.

This module sits *above* :mod:`repro.api` (it imports the Session
facade), which is why it is deliberately not re-exported from
``repro.faults`` — the package ``__init__`` must stay importable from
inside the engine seams that ``repro.api`` itself loads.  Import it
directly::

    from repro.faults.chaos import corrupt_session, plan_for_spec
"""

from __future__ import annotations

from typing import Any

from repro.api import Session
from repro.faults.plan import FaultPlan
from repro.utils.vectors import IntVec

__all__ = ["corrupt_session", "plan_for_spec"]


def plan_for_spec(spec: Any, **overrides: Any) -> FaultPlan:
    """The standard chaos-leg :class:`FaultPlan` of a scenario spec.

    Reads the spec's ``fault_seed`` / ``fault_byzantine`` /
    ``fault_flaky`` fields (the percentages become probabilities);
    keyword overrides replace any :class:`FaultPlan` field, letting the
    chaos oracle additionally arm the resilience-only site (numpy
    kernel failures) that the spec itself does not carry.
    """
    knobs: dict[str, Any] = {
        "seed": spec.fault_seed,
        "byzantine": spec.fault_byzantine / 100.0,
        "flaky": spec.fault_flaky / 100.0,
    }
    knobs.update(overrides)
    return FaultPlan(**knobs)


def corrupt_session(session: Session,
                    plan: FaultPlan) -> tuple[Session, dict[IntVec, int]]:
    """Apply the plan's byzantine slot reports to a restricted session.

    The session must support editing (``restrict()`` to a window
    first); the corruptions land through :meth:`repro.api.Session.edit`
    so the session's incremental caches see them the way real edits
    arrive.  Returns ``(corrupted_session, updates)`` — with an empty
    ``updates`` dict (and the session untouched) when the plan's
    byzantine site is cold.
    """
    window = session.window
    if window is None:
        raise TypeError(
            "corrupt_session needs a windowed session; restrict() the "
            "session to its deployment window first")
    assignment = dict(zip(window,
                          (int(s) for s in session.assign(window).slots)))
    updates = plan.corrupt_assignment(assignment, session.num_slots)
    if not updates:
        return session, {}
    return session.edit(updates), updates
