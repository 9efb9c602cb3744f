"""Bulk decision kernels for random MAC protocols (ALOHA / CSMA).

The deterministic protocols vectorize through slot tables; the random
ones used to fall back to one ``wants_to_send`` call per sensor per slot
against a single shared ``random.Random``, which serialized the whole
path.  These kernels evaluate entire ``(slot, sensor)`` windows of
decisions at once against the counter-based :class:`repro.utils.rng.
StreamRNG`: the value for sensor ``i`` at slot ``t`` is a pure function
of ``(seed, i, t)``, so the numpy kernel and the scalar ``wants_to_send``
fallback see the *same* randomness and produce bit-identical simulation
metrics.

The kernel reimplements the SplitMix64 arithmetic of ``StreamRNG`` on
``uint64`` arrays (multiplication and addition wrap mod 2^64 exactly
like the masked Python integers); converting the top 53 bits to float64
is exact, so the uniforms — and therefore every threshold comparison —
agree bit-for-bit with the scalar implementation.

Because each cell is a pure function of ``(seed, sensor, slot)``, the
sensor axis shards freely: the ``*_range`` variants evaluate only
sensors ``lo..hi-1``, and the public block functions dispatch large
windows across worker processes (:mod:`repro.engine.parallel`) and
reassemble the columns — the merged matrix is identical to the serial
one for any worker count.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.engine.parallel import plan_shards, run_sharded, shard_workers
from repro.utils.rng import _INV_2_53, _MIX_A, _MIX_B, _PHI, StreamRNG

__all__ = [
    "uniform_block",
    "uniform_block_range",
    "bernoulli_block",
    "bernoulli_block_range",
    "masked_bernoulli_block",
]

#: Decision cells (sensors x slots) below which a block stays serial
#: even when workers are enabled — process dispatch costs more than the
#: kernel below this size.
_MIN_PARALLEL_CELLS = 1 << 16


def _np_mix64(x):
    """SplitMix64 finalizer on a uint64 array (wraps mod 2^64)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX_A)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX_B)
    return x ^ (x >> np.uint64(31))


# The per-sensor base hashes depend only on (root, lo, hi), not on the
# slot window, so carrier-sensing protocols — dispatched one slot at a
# time — reuse them across every slot of a simulation instead of
# rehashing sensor ids per call, and each shard worker caches the bases
# for its own sensor span.  Cached arrays are never mutated.
@lru_cache(maxsize=32)
def _np_bases(root: int, lo: int, hi: int):
    with np.errstate(over="ignore"):
        ids = np.arange(lo, hi, dtype=np.uint64)
        return _np_mix64(np.uint64(root) ^ (ids * np.uint64(_PHI)))


def uniform_block_range(rng: StreamRNG, lo: int, hi: int,
                        t0: int, t1: int):
    """Uniforms for the sensor id range ``lo..hi-1`` over a slot window.

    A ``(t1-t0, hi-lo)`` float64 matrix with ``result[t - t0][i - lo] ==
    rng.uniform(i, t)`` exactly — sensor ids stay *global*, which is
    what lets shards of the sensor axis reproduce the serial matrix
    column-for-column.
    """
    bases = _np_bases(rng.root, lo, hi)
    with np.errstate(over="ignore"):
        slots = np.arange(t0, t1, dtype=np.uint64) * np.uint64(_PHI)
        states = _np_mix64(_np_mix64(bases[None, :] ^ slots[:, None]))
    return (states >> np.uint64(11)).astype(np.float64) * _INV_2_53


def bernoulli_block_range(rng: StreamRNG, lo: int, hi: int,
                          t0: int, t1: int, p: float):
    """``uniform(i, t) < p`` for the sensor id range ``lo..hi-1``."""
    return uniform_block_range(rng, lo, hi, t0, t1) < p


# ----------------------------------------------------------------------
# Sharded dispatch: split the sensor axis across worker processes.
# ----------------------------------------------------------------------
def _block_shard(payload, span):
    """One sensor-span shard of a decision block (runs in a worker)."""
    rng, t0, t1, mode, p, muted = payload
    lo, hi = span
    if mode == "uniform":
        return uniform_block_range(rng, lo, hi, t0, t1)
    block = bernoulli_block_range(rng, lo, hi, t0, t1, p)
    if mode == "masked" and t1 > t0:
        block[0] &= ~np.asarray(muted[lo:hi], dtype=bool)
    return block


def _dispatch_block(rng: StreamRNG, num_streams: int, t0: int, t1: int,
                    mode: str, p: float, muted):
    workers = shard_workers()
    # Single-slot windows never shard: carrier-sensing protocols request
    # one of these per simulated slot, and paying a process-pool spawn
    # per slot to split a one-row kernel is strictly slower than serial
    # no matter how many sensors the row holds.
    if (workers > 1 and t1 - t0 > 1
            and num_streams * (t1 - t0) >= _MIN_PARALLEL_CELLS):
        spans = plan_shards(num_streams, workers)
        if len(spans) > 1:
            parts = run_sharded(_block_shard, (rng, t0, t1, mode, p, muted),
                                spans, workers)
            return np.concatenate(parts, axis=1)
    return _block_shard((rng, t0, t1, mode, p, muted), (0, num_streams))


def uniform_block(rng: StreamRNG, num_streams: int, t0: int, t1: int):
    """Uniforms in [0, 1) for sensors ``0..num_streams-1`` over a window.

    ``result[t - t0][i] == rng.uniform(i, t)`` exactly, for any worker
    count, as a ``(t1-t0, num_streams)`` float64 array.
    """
    return _dispatch_block(rng, num_streams, t0, t1, "uniform", 0.0, None)


def bernoulli_block(rng: StreamRNG, num_streams: int, t0: int, t1: int,
                    p: float):
    """Boolean decision matrix: ``uniform(i, t) < p`` per sensor and slot."""
    return _dispatch_block(rng, num_streams, t0, t1, "bernoulli", p, None)


def masked_bernoulli_block(rng: StreamRNG, num_streams: int, t0: int,
                           t1: int, p: float, muted: Sequence[bool]):
    """:func:`bernoulli_block` with a per-sensor mute (carrier sense).

    Muted sensors decide ``False``; everyone else keeps the draw keyed by
    their own ``(sensor, slot)`` cell, so muting one sensor never shifts
    another's stream.  The mute vector describes the slot before ``t0``,
    so it silences the *first* row only — matching the scalar
    ``decision_block`` contract, where slots after ``t0`` see no carrier
    sense.  (The simulator dispatches carrier-sensing protocols with
    single-slot windows anyway.)
    """
    muted = list(muted) if not hasattr(muted, "__getitem__") else muted
    return _dispatch_block(rng, num_streams, t0, t1, "masked", p, muted)
