"""Fault layer: the unarmed injection seams must cost nothing measurable.

The injection seams (``repro.faults.injection.active_plan`` consulted by
the collision scan dispatch and the simulator step loop) sit on the
hottest engine paths.  Unarmed, each seam is one module-attribute
load compared against ``None``; this benchmark pins that claim with a
row in ``BENCH_scaling.json``.

Measurement: a mixed workload (a full collision scan plus a random-MAC
simulation — both seam-bearing paths) timed in ABBA-ordered pairs
(``paired_overhead`` in ``conftest.py``), once with the fault layer
unarmed and once with an armed *inert* plan (all rates zero,
no kernel-failure budget).  The armed-inert run executes a strict superset
of the unarmed run's work — every seam additionally loads the plan and
checks its site fields — so gating the relative difference bounds the
seam cost from above.
"""

from repro.core.schedule import find_collisions
from repro.core.theorem1 import schedule_from_prototile
from repro.faults.injection import use_plan
from repro.faults.plan import FaultPlan
from repro.net.model import Network
from repro.net.protocols import SlottedAloha
from repro.net.simulator import simulate
from repro.tiles.shapes import chebyshev_ball
from repro.utils.vectors import box_points

_TILE = chebyshev_ball(1)
_SCHEDULE = schedule_from_prototile(_TILE)
_SCAN_WINDOW = list(box_points((0, 0), (63, 63)))
_SIM_NETWORK = Network.homogeneous(list(box_points((0, 0), (39, 39))),
                                   _TILE)
_SIM_SLOTS = 40
#: All-default rates: arming this plan must change no behavior at all.
_INERT_PLAN = FaultPlan(seed=1)
#: Timed pairs of the overhead estimate (``paired_overhead``).
_PAIRS = 201


def _workload():
    find_collisions(_SCHEDULE, _SCAN_WINDOW, _SCHEDULE.neighborhood_of)
    return simulate(_SIM_NETWORK, SlottedAloha(0.2), _SIM_SLOTS,
                    packet_interval=_SCHEDULE.num_slots, seed=5)


def _armed_workload():
    with use_plan(_INERT_PLAN):
        return _workload()


def test_unarmed_seam_overhead(report, record_scaling, paired_overhead):
    assert _INERT_PLAN.inert, "the comparison plan must inject nothing"
    # One warm-up pass each, and the inert plan must not change results.
    assert _armed_workload() == _workload()

    overhead, unarmed_time, armed_time = paired_overhead(
        _workload, _armed_workload, pairs=_PAIRS)
    record_scaling("fault-injection/overhead-unarmed",
                   seconds=unarmed_time, overhead=round(overhead, 4),
                   pairs=_PAIRS, sensors=len(_SCAN_WINDOW))
    report("Fault layer — unarmed seam overhead",
           f"{len(_SCAN_WINDOW)}-sensor scan + {_SIM_SLOTS}-slot "
           f"simulation: {unarmed_time * 1e3:.2f} ms unarmed vs "
           f"{armed_time * 1e3:.2f} ms under an armed inert plan "
           f"({overhead:+.1%})")
    assert overhead < 0.02
