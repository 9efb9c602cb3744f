"""repro.faults — deterministic fault injection and chaos tooling.

The package has three layers:

* :mod:`repro.faults.plan` — the frozen :class:`FaultPlan` whose every
  injected fault is a pure function of ``(seed, site, draw)`` through
  the counter-based :class:`repro.utils.rng.StreamRNG`, plus the typed
  :class:`InjectedFault` exception family;
* :mod:`repro.faults.injection` — the arming state
  (:func:`use_plan` / :func:`arm_plan` / :func:`disarm_plan`) and the
  seam helpers the engine and simulator consult.  Unarmed, every seam
  is a single ``None`` check;
* :mod:`repro.faults.chaos` — session-level helpers (byzantine
  corruption of a live :class:`repro.api.Session`, per-spec plans)
  used by the chaos oracle leg.  Imported on demand (it pulls in the
  facade); not re-exported here so the engine's seam imports stay
  feather-weight.
"""

from repro.faults.injection import (
    active_plan,
    arm_plan,
    consume_numpy_failure,
    disarm_plan,
    use_plan,
)
from repro.faults.plan import (
    FaultPlan,
    InjectedFault,
    InjectedKernelFault,
)

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "InjectedKernelFault",
    "active_plan",
    "arm_plan",
    "disarm_plan",
    "use_plan",
    "consume_numpy_failure",
]
