"""The deterministic :class:`FaultPlan`: every fault a counter-rng value.

A fault plan describes *which* faults to inject — byzantine slot
reports, per-round flaky transmitters, mid-call numpy kernel failures
— as a frozen value whose every decision is a pure function of
``(seed, site, draw)`` through the counter-based
:class:`repro.utils.rng.StreamRNG`.  Nothing is consumed and nothing
advances: the same plan replayed over the same workload injects the
very same faults, for any worker count, in any call order.  That is
what lets the chaos oracle compare a faulted run against the
fault-free reference and demand a deterministic verdict (masked, or
detected-and-repaired) instead of a flaky one.

Sites are *named* (``"byzantine"``, ``"flaky"``, ``"numpy"``); each
name addresses its own counter stream via
:func:`repro.utils.rng.label_stream`, so adding a site never shifts the
draws of the existing ones — exactly the scheme the scenario
generators use for their field-keyed draws.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.utils.rng import StreamRNG, label_stream
from repro.utils.vectors import IntVec

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "InjectedKernelFault",
]


class InjectedFault(RuntimeError):
    """Base class for every deliberately injected failure."""


class InjectedKernelFault(InjectedFault):
    """A numpy kernel made to fail mid-call by an armed :class:`FaultPlan`."""


@dataclass(frozen=True)
class FaultPlan:
    """One frozen bundle of fault-injection knobs.

    Every rate/choice below is evaluated through the plan's own
    :class:`StreamRNG` keyed by a per-site stream label, so injected
    faults replay identically across worker counts and call orders.
    A field left at its default injects nothing at that site; an
    all-default plan is inert (arming it changes no observable
    behavior).

    Attributes:
        seed: root of the plan's counter streams.
        byzantine: per-sensor probability that
            :meth:`corrupt_assignment` replaces the sensor's reported
            slot with a uniformly drawn wrong one.
        flaky: per-``(sensor, slot)`` probability that a scheduled
            transmission is silently dropped by the simulator seam.
        numpy_failures: how many numpy collision-kernel calls fail with
            :class:`InjectedKernelFault` after arming (counted per
            armed plan) — exercises the degrade-to-exact path.
    """

    seed: int = 0
    byzantine: float = 0.0
    flaky: float = 0.0
    numpy_failures: int = 0

    def __post_init__(self) -> None:
        for name in ("byzantine", "flaky"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {rate!r}")
        if self.numpy_failures < 0:
            raise ValueError(
                f"numpy_failures must be >= 0, got {self.numpy_failures!r}")

    # -- counter plumbing ----------------------------------------------
    def _rng(self) -> StreamRNG:
        return StreamRNG(self.seed)

    def _hits(self, site: str, slot: int, draw: int, rate: float) -> bool:
        """Pure function of ``(seed, site, slot, draw)``: fire at ``rate``."""
        if rate <= 0.0:
            return False
        return self._rng().uniform(label_stream(f"fault:{site}"), slot,
                                   draw) < rate

    # -- site: byzantine slot reports ----------------------------------
    def corrupt_assignment(
            self, assignment: Mapping[IntVec, int],
            num_slots: int) -> dict[IntVec, int]:
        """The byzantine corruptions of a slot assignment, as an edit.

        Sensors are visited in sorted order (so the draw index per
        sensor is a pure function of the assignment's key set); each
        corrupted sensor reports a uniformly drawn *different* slot.
        Returns only the changed entries — ready for
        :meth:`repro.api.Session.edit` / ``with_updates``.
        """
        if self.byzantine <= 0.0 or num_slots < 2:
            return {}
        rng = self._rng()
        site = label_stream("fault:byzantine")
        wrong = label_stream("fault:byzantine-slot")
        corrupted: dict[IntVec, int] = {}
        for index, point in enumerate(sorted(assignment)):
            if rng.uniform(site, index) < self.byzantine:
                shift = 1 + rng.randrange(wrong, index, num_slots - 1)
                corrupted[point] = (assignment[point] + shift) % num_slots
        return corrupted

    # -- site: flaky transmitters --------------------------------------
    def drops_transmission(self, sensor: int, slot: int) -> bool:
        """True when the flaky seam drops this ``(sensor, slot)`` send."""
        return self._hits("flaky", slot, sensor, self.flaky)

    def filter_transmitters(self, transmitters: Sequence[int],
                            slot: int) -> list[int]:
        """The transmitter list with this slot's flaky drops removed."""
        if self.flaky <= 0.0:
            return list(transmitters)
        return [sensor for sensor in transmitters
                if not self.drops_transmission(sensor, slot)]

    @property
    def inert(self) -> bool:
        """True when arming this plan injects nothing anywhere."""
        return (self.byzantine == 0.0 and self.flaky == 0.0
                and self.numpy_failures == 0)
