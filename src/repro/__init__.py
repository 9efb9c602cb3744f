"""repro — reproduction of "Scheduling Sensors by Tiling Lattices".

Klappenecker, Lee, Welch (PODC 2008 / arXiv:0806.1271): deterministic,
collision-free, slot-optimal broadcast schedules for sensors on lattice
points, derived from lattice tilings.

Quickstart (the typed facade)::

    from repro import Box, EngineConfig, Session

    session = Session.for_chebyshev(1)             # 3x3 neighborhood
    session.assign([(10, 7)]).slots                # -> [slot in 0..8]
    report = session.verify(window=Box((-10, -10), (10, 10)))
    assert report.collision_free
    session.simulate("aloha", slots=90, p=0.2)     # SimulationMetrics

Engine configuration is one explicit, typed value — ``EngineConfig(
workers=4)`` — passed per session or simulator, or installed for a
block with :func:`use_config`; the ``REPRO_ENGINE_WORKERS`` env var
keeps working as a lazily-resolved fallback.  The worker count — how
many threads of the engine's one shard pool a kernel may use — is the
engine's only knob: it changes how fast an answer comes, never the
answer.  The engine runs on numpy (a hard dependency); the test
suite holds it to the brute-force reference in
:mod:`repro.scenarios.reference`.  The legacy free functions (:func:`
schedule_for`, :func:`find_collisions`, :func:`verify_collision_free`,
:func:`simulate`) remain first-class and are pinned bit-identical to
their :class:`Session` counterparts by the equivalence suite.

Package layout:

* :mod:`repro.api` — the :class:`Session`/:class:`EngineConfig` facade
  unifying scheduling, verification and simulation
* :mod:`repro.lattice` — Euclidean lattices, sublattices, Voronoi cells
* :mod:`repro.tiles` — prototiles (neighborhoods), exactness deciders
* :mod:`repro.tiling` — lattice / periodic / multi-prototile tilings
* :mod:`repro.core` — the paper's schedules (Theorems 1 and 2), optimality
* :mod:`repro.engine` — vectorized numpy kernels, engine config, sharding
* :mod:`repro.graphs` — baselines: distance-2 coloring, TDMA, annealing
* :mod:`repro.net` — slotted wireless simulator with the paper's collision
  semantics, MAC protocols and the name registry
* :mod:`repro.viz` — ASCII and SVG rendering of the paper's figures
* :mod:`repro.experiments` — per-figure reproduction harness
* :mod:`repro.scenarios` — deterministic scenario generation, the
  differential oracle cross-checking every engine path, and the
  brute-force reference it checks them against
"""

from __future__ import annotations

__version__ = "1.1.0"

from repro.api import (
    Box,
    EngineConfig,
    Session,
    SlotAssignment,
    VerificationReport,
    use_config,
)
from repro.core.schedule import find_collisions, verify_collision_free
from repro.net.protocols import make_protocol, protocol_names, \
    register_protocol
from repro.net.simulator import simulate
from repro.tiles.prototile import Prototile
from repro.tiles.shapes import chebyshev_ball, directional_antenna, plus_pentomino


def schedule_for(chebyshev_radius: int = 1, dimension: int = 2):
    """Convenience: optimal schedule for a Chebyshev-ball neighborhood.

    Builds the radius-``r`` Chebyshev neighborhood, finds a tiling, and
    returns the Theorem 1 schedule (``(2r+1)^d`` slots).  The facade
    counterpart is ``Session.for_chebyshev(r, d).schedule``.
    """
    from repro.core.theorem1 import schedule_from_prototile

    return schedule_from_prototile(chebyshev_ball(chebyshev_radius, dimension))


__all__ = [
    "Box",
    "EngineConfig",
    "Session",
    "SlotAssignment",
    "VerificationReport",
    "Prototile",
    "chebyshev_ball",
    "directional_antenna",
    "find_collisions",
    "make_protocol",
    "plus_pentomino",
    "protocol_names",
    "register_protocol",
    "schedule_for",
    "simulate",
    "use_config",
    "verify_collision_free",
    "__version__",
]
