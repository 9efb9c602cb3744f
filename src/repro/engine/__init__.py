"""Bulk execution engine: vectorized numpy kernels.

The tuple-based core of the library is exact and convenient, but the
collision oracle and the slotted simulator are hot paths that the ROADMAP
asks to run "as fast as the hardware allows".  This package supplies the
batch counterparts.  numpy is a hard dependency and every kernel is
written once, against numpy arrays; the collision scan and the coset
lookup keep an exact path for inputs int64 cannot represent, selected
by the input itself.  The test suite pins the kernels to the small
brute-force reference in :mod:`repro.scenarios.reference`.

* :mod:`repro.engine.config` — :class:`EngineConfig`, the engine's one
  knob (the shard worker count), and :func:`use_config`, its one scoped
  override.  A session's or simulator's config outranks the enclosing
  :func:`use_config` block, which outranks the (lazily re-read)
  ``REPRO_ENGINE_WORKERS``; serial is the default.
* :mod:`repro.engine.encode` — :class:`PointBatch`, the one validated
  form of a window (an int64 array, its bounding box, and whether it
  fills that box), injective integer keys for its points, so
  membership tests become sorted-array lookups, and the two window
  indexes (:class:`BoxEncoder` for a dense row-major window,
  ``PointIndex`` for any other) behind the one exact scan.
* :mod:`repro.engine.slots` — :class:`CosetTable`, a vectorized form of
  the Hermite-normal-form coset reduction behind every tiling schedule:
  thousands of ``slot_of`` queries collapse into a handful of array ops.
* :mod:`repro.engine.collisions` — the bulk collision scan used by
  :func:`repro.core.schedule.find_collisions` (a stencil over the box
  grid for dense windows, sorted keys for the rest), plus its one
  exact scan, ``scan_collisions_touching``: the dirty-region rescan
  behind incremental verification, run over the window's index
  (``window_index``), which with every point touched also answers every
  exact fallback.
* :mod:`repro.engine.parallel` — the multi-core sharding layer: worker
  resolution (``REPRO_ENGINE_WORKERS``), shard planning, and one
  persistent thread pool that runs the shards.  Sharded kernels are
  required to return bit-identical results for any worker count;
  serial stays the default and the reference.
* :mod:`repro.engine.simindex` — CSR-style receiver adjacency over dense
  integer ids, the data structure behind the simulator fast path.
* :mod:`repro.engine.randmac` — bulk decision kernels for the random MAC
  protocols (ALOHA / CSMA): whole ``(slot, sensor)`` windows of
  transmit decisions drawn from the counter-based per-sensor streams of
  :class:`repro.utils.rng.StreamRNG`, bit-identical to the scalar
  ``StreamRNG.uniform``.

The engine deliberately depends only on :mod:`repro.utils` and the
duck-typed ``Sublattice`` interface, never on the schedule/network layers,
so those layers can dispatch into it without import cycles.
"""

from __future__ import annotations

from repro.engine.collisions import (
    EngineDegradedWarning,
    scan_collisions,
    scan_collisions_touching,
)
from repro.engine.config import EngineConfig, use_config
from repro.engine.encode import BoxEncoder, PointBatch
from repro.engine.parallel import (
    cpu_budget,
    plan_shards,
    run_sharded,
    shard_workers,
)
from repro.engine.randmac import (
    bernoulli_block,
    bernoulli_block_range,
    masked_bernoulli_block,
    uniform_block,
    uniform_block_range,
)
from repro.engine.simindex import AdjacencyIndex
from repro.engine.slots import CosetTable

__all__ = [
    "EngineConfig",
    "use_config",
    "cpu_budget",
    "shard_workers",
    "plan_shards",
    "run_sharded",
    "EngineDegradedWarning",
    "scan_collisions",
    "scan_collisions_touching",
    "BoxEncoder",
    "PointBatch",
    "AdjacencyIndex",
    "CosetTable",
    "uniform_block",
    "uniform_block_range",
    "bernoulli_block",
    "bernoulli_block_range",
    "masked_bernoulli_block",
]
