"""Multi-core sharded execution for the bulk engine kernels.

The vectorized kernels of :mod:`repro.engine` spend most of their time
inside numpy, which releases the GIL.  This module adds the *sharding*
layer: kernels split their work (offset passes, point ranges, sensor
id ranges) into contiguous shards, evaluate the shards on one
persistent, module-level :class:`~concurrent.futures.ThreadPoolExecutor`,
and merge the partial results into exactly the output the serial
kernel would have produced.

Determinism is non-negotiable: every sharded kernel in this library is
required (and tested) to return *bit-identical* results for any worker
count, because

* collision scans merge by concatenation followed by the same canonical
  sort the serial path applies;
* coset-table lookups partition the input rows, so concatenating the
  shard outputs reproduces the serial order; and
* random-MAC decisions are pure functions of ``(seed, sensor, slot)``
  through the counter-based :class:`repro.utils.rng.StreamRNG`, so a
  thread computing sensors ``lo..hi`` sees the very same draws the
  serial kernel computes for those sensors.

Sharding is **opt-in**.  :func:`shard_workers` resolves the worker
count in one place, in this order:

1. the :class:`~repro.engine.config.EngineConfig` of the calling
   session or simulator, which enters
   :func:`~repro.engine.config.use_config` around its own calls,
2. the innermost :func:`~repro.engine.config.use_config` block,
3. the ``REPRO_ENGINE_WORKERS`` environment variable (a positive
   integer, or ``auto`` for the usable CPU count), re-read lazily at
   resolution time — never captured at import, so env changes after
   import take effect,
4. the default of ``1`` — the serial path, which stays the reference.

The pool is created on first use, holds one thread per usable CPU,
and is reused by every later call.  Its initializer pins the scoped
worker count of each pool thread to ``1``, so a kernel that shards
again resolves to the serial path (a kernel must not pass an explicit
``workers`` count instead: a pool thread waiting on its own pool can
deadlock).  Shards read the payload by reference — kernels must treat
it as immutable — and a kernel's exception reaches the caller as
itself.
"""

from __future__ import annotations

import os
import threading
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any

from repro.engine import config
from repro.engine.config import scoped_workers

__all__ = [
    "cpu_budget",
    "shard_workers",
    "plan_shards",
    "run_sharded",
]

#: Upper bound on the resolved worker count; a fleet of hundreds of
#: threads is never what a caller meant on one machine.
_MAX_WORKERS = 64


def cpu_budget() -> int:
    """CPUs this process may actually use (affinity-aware when possible)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Malformed ``REPRO_ENGINE_WORKERS`` values already warned about.  The
#: env var is re-read on every resolution (lazily — never captured at
#: import), so without this the warning would fire once per kernel call.
_env_warned: set[str] = set()


def _workers_from_env(raw: str | None) -> int:
    """Resolve a ``REPRO_ENGINE_WORKERS`` value to a worker count.

    Unset/empty means serial; ``auto`` means the usable CPU count; a bad
    value warns (once per distinct value) and stays serial — resolving
    the env must never raise.
    """
    if raw is None:
        return 1
    text = raw.strip().lower()
    if not text:
        return 1
    if text == "auto":
        return min(cpu_budget(), _MAX_WORKERS)
    try:
        value = int(text)
    except ValueError:
        if raw not in _env_warned:
            _env_warned.add(raw)
            warnings.warn(
                f"ignoring REPRO_ENGINE_WORKERS={raw!r}: expected a positive "
                f"integer or 'auto' (staying serial)", stacklevel=3)
        return 1
    if value < 1:
        if raw not in _env_warned:
            _env_warned.add(raw)
            warnings.warn(
                f"ignoring REPRO_ENGINE_WORKERS={raw!r}: worker count must "
                f"be >= 1 (staying serial)", stacklevel=3)
        return 1
    return min(value, _MAX_WORKERS)


def shard_workers() -> int:
    """The worker count sharded kernels will use (``1`` = serial).

    The config of the innermost :func:`~repro.engine.config.use_config`
    block wins — sessions and simulators enter one around their own
    calls — then ``REPRO_ENGINE_WORKERS``, consulted *now* so mutating
    the environment after import takes effect, then ``1``.  Capped at
    64; pool threads resolve to ``1``.
    """
    scoped = scoped_workers()
    if scoped is not None:
        return min(scoped, _MAX_WORKERS)
    return _workers_from_env(os.environ.get("REPRO_ENGINE_WORKERS"))


def plan_shards(total: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``shards`` contiguous spans.

    Spans are half-open ``(lo, hi)`` pairs, cover the range exactly once
    in order, never empty, and differ in length by at most one — so the
    partition (and therefore every sharded result) is a pure function of
    ``(total, shards)``.
    """
    if total <= 0:
        return []
    shards = max(1, min(shards, total))
    base, extra = divmod(total, shards)
    spans = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


#: The shared shard pool, created on first use under :data:`_pool_lock`.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _serial_thread() -> None:
    """Pool initializer: nested kernels in this thread stay serial."""
    config._workers.set(1)


def _forget_pool() -> None:
    """After ``fork`` the child has none of the parent's threads."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pool_size() -> int:
    """One pool thread per usable CPU: shards are CPU-bound."""
    return min(cpu_budget(), _MAX_WORKERS)


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_pool_size(),
                                       thread_name_prefix="repro-shard",
                                       initializer=_serial_thread)
        return _pool


def run_sharded(kernel: Callable[[Any, Any], Any], payload: Any,
                shard_args: Sequence[Any],
                workers: int | None = None) -> list[Any]:
    """Evaluate ``kernel(payload, arg)`` per shard, possibly in parallel.

    Args:
        kernel: a function taking ``(payload, shard_arg)``.
        payload: the read-only state every shard needs, passed by
            reference; kernels must treat it as immutable.
        shard_args: one small argument per shard (e.g. ``(lo, hi)``
            spans from :func:`plan_shards`).
        workers: worker count override; defaults to :func:`shard_workers`.
            With ``1`` (or a single shard) the shards run in the calling
            thread; otherwise each is one task on the shared pool.

    Returns:
        The per-shard results, in ``shard_args`` order — identical to
        ``[kernel(payload, a) for a in shard_args]``.

    Raises:
        Whatever the kernel raises, as itself, once every shard of the
        call has finished.
    """
    if workers is None:
        workers = shard_workers()
    if workers <= 1 or len(shard_args) <= 1:
        return [kernel(payload, arg) for arg in shard_args]
    pool = _shared_pool()
    futures = [pool.submit(kernel, payload, arg) for arg in shard_args]
    wait(futures)
    return [future.result() for future in futures]
