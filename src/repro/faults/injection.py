"""Arming state and the injection seams the engine consults.

The armed :class:`~repro.faults.plan.FaultPlan` (plus its per-arming
counters) lives in an :class:`_Arming` holder; the seams in
:mod:`repro.engine.collisions` and :mod:`repro.net.simulator` read it
through :func:`active_plan`.  Two
stores back it: the imperative :func:`arm_plan`/:func:`disarm_plan`
API arms the *process* (one global slot, visible to every thread),
while the scoped :func:`use_plan` arms the *calling context* (a
:class:`~contextvars.ContextVar` overlay), so concurrent threads or
asyncio tasks injecting different plans — a chaos probe running next
to clean service traffic — cannot cross-contaminate each other.

The unarmed fast path is one ``ContextVar.get`` plus a module-attribute
load against ``None`` — no allocation, no draw, no call into the plan —
which is what keeps the fault layer free when nothing is armed (gated
by the ``fault-injection/overhead-unarmed`` benchmark row).

Every seam runs in the calling thread, before any work is sharded:
the numpy-failure budget is consumed where the collision kernel is
dispatched, so shard threads of the engine pool (which start with a
fresh context) never need to see the plan.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.faults.plan import FaultPlan, InjectedKernelFault

__all__ = [
    "active_plan",
    "arm_plan",
    "disarm_plan",
    "use_plan",
    "consume_numpy_failure",
]


class _Arming:
    """One arming: the plan plus its mutable per-arming counters."""

    __slots__ = ("plan", "numpy_failures_injected")

    def __init__(self, plan: FaultPlan):
        if not isinstance(plan, FaultPlan):
            raise TypeError(
                f"expected a FaultPlan, got {type(plan).__name__}")
        self.plan = plan
        self.numpy_failures_injected = 0


#: The imperatively armed plan; ``None`` means "not armed process-wide".
_armed: _Arming | None = None

#: The scoped :func:`use_plan` arming; context-local so concurrent
#: threads/tasks with different plans stay isolated.
_armed_override: ContextVar[_Arming | None] = ContextVar(
    "repro_faults_arming", default=None)


def _active_arming() -> _Arming | None:
    override = _armed_override.get()
    return override if override is not None else _armed


def active_plan() -> FaultPlan | None:
    """The armed :class:`FaultPlan`, or ``None`` when nothing is armed."""
    arming = _active_arming()
    return arming.plan if arming is not None else None


def arm_plan(plan: FaultPlan) -> None:
    """Arm a plan process-wide (replacing any armed one; counters reset).

    Raises:
        TypeError: when ``plan`` is not a :class:`FaultPlan`.
    """
    global _armed
    _armed = _Arming(plan)


def disarm_plan() -> None:
    """Disarm; every seam returns to its zero-cost unarmed fast path.

    Clears the process-wide arming.  A scoped :func:`use_plan` block is
    not affected — it disarms itself on exit.
    """
    global _armed
    _armed = None


@contextmanager
def use_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for a block, restoring the previous state after.

    The canonical way tests and the chaos oracle inject: the plan is
    guaranteed disarmed (or the outer plan restored) on exit, so no
    fault leaks past the block even when it raises.  Context-local —
    the arming is visible to the current thread or task, never to
    concurrently running contexts.
    """
    token = _armed_override.set(_Arming(plan))
    try:
        yield plan
    finally:
        _armed_override.reset(token)


def consume_numpy_failure() -> None:
    """Raise :class:`InjectedKernelFault` while the budget lasts.

    Called by the numpy collision-kernel dispatch when a plan is armed;
    the first ``plan.numpy_failures`` calls after arming fail, later
    calls pass through.  The counter is part of the arming (reset by
    :func:`arm_plan`/:func:`use_plan`), so a plan is a pure description
    and re-arming replays the same failures.
    """
    arming = _active_arming()
    if arming is None \
            or arming.numpy_failures_injected >= arming.plan.numpy_failures:
        return
    arming.numpy_failures_injected += 1
    raise InjectedKernelFault(
        f"injected numpy kernel failure "
        f"{arming.numpy_failures_injected}/{arming.plan.numpy_failures}")
