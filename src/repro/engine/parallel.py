"""Multi-core sharded execution for the bulk engine kernels.

The vectorized kernels of :mod:`repro.engine` are single-threaded: numpy
releases the GIL but one process still drives one core.  This module
adds the *sharding* layer the ROADMAP asks for — kernels split their
work (offset lists, point ranges, sensor id ranges) into contiguous
shards, evaluate the shards on a :class:`~concurrent.futures.
ProcessPoolExecutor`, and merge the partial results into exactly the
output the serial kernel would have produced.

Determinism is non-negotiable: every sharded kernel in this library is
required (and tested) to return *bit-identical* results for any worker
count, because

* collision scans merge by concatenation followed by the same canonical
  sort the serial path applies;
* coset-table lookups partition the input rows, so concatenating the
  shard outputs reproduces the serial order; and
* random-MAC decisions are pure functions of ``(seed, sensor, slot)``
  through the counter-based :class:`repro.utils.rng.StreamRNG`, so a
  worker computing sensors ``lo..hi`` sees the very same draws the
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

Inside a shard worker the count is always ``1``: pool workers are
daemonic and cannot fork grandchildren.

Worker processes are started with the ``fork`` method when the platform
offers it, so the (potentially large) shared payload — point windows,
presorted key arrays, coset tables — reaches the workers through
copy-on-write pages instead of pickling; platforms without ``fork``
transparently fall back to pickling the payload once per worker.  The
payload travels in each pool's own initializer arguments and the parent
keeps no per-call module state, so concurrent threads can run sharded
calls side by side.

**Resilience.**  The pool lane is allowed to fail without failing the
call: a shard whose worker crashes (or whose result never arrives
within the per-shard ``timeout``) is retried with exponential backoff
up to ``retries`` times, and a shard the pool cannot produce at all is
recomputed *serially in the parent* — the guaranteed fallback lane.
Because every shard kernel in this library is a pure function of
``(payload, shard_arg)``, a result produced by the retry or serial
lane is bit-identical to the one the healthy pool would have returned.
Only a shard that also fails in the serial lane (a genuine kernel
error) raises, as a :class:`ShardFailure` carrying the failing shard
index with the original exception chained.  Worker crash/hang faults
injected by an armed :class:`repro.faults.FaultPlan` enter through the
worker-side dispatch wrapper, so the parent's serial lane never
replays them.
"""

from __future__ import annotations

import os
import time
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any

from repro.engine.config import scoped_workers
from repro.faults.injection import active_plan as _active_plan
from repro.faults.plan import InjectedWorkerCrash

__all__ = [
    "ShardFailure",
    "cpu_budget",
    "shard_workers",
    "plan_shards",
    "run_sharded",
]

#: Upper bound on the resolved worker count; a fleet of hundreds of
#: processes is never what a caller meant on one machine.
_MAX_WORKERS = 64

#: Pool-lane retries per shard before the serial fallback lane takes
#: over, and the base of the exponential backoff between attempts.
_DEFAULT_RETRIES = 2
_RETRY_BACKOFF = 0.05


class ShardFailure(RuntimeError):
    """A shard failed in the pool *and* in the serial fallback lane.

    Raised by :func:`run_sharded` only when a shard's kernel fails
    deterministically (the original exception is chained as the cause);
    transient pool trouble — worker crashes, timeouts, broken pools,
    unpicklable payloads — is healed by the retry and serial lanes and
    never surfaces as this error.

    Attributes:
        shard_index: position of the failing shard in ``shard_args``.
    """

    def __init__(self, message: str, shard_index: int):
        super().__init__(message)
        self.shard_index = shard_index


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


#: True inside a shard worker process: nested kernels must stay serial
#: (pool workers are daemonic and cannot fork grandchildren).  Only the
#: pool initializer sets it, in the child — never the parent, whose
#: other threads keep resolving their own worker counts while a pool
#: runs.
_in_worker = False

#: Payload handed to shard kernels; the pool initializer installs it in
#: each worker.  The parent never sets it.
_payload: Any = None


def shard_workers() -> int:
    """The worker count sharded kernels will use (``1`` = serial).

    The config of the innermost :func:`~repro.engine.config.use_config`
    block wins — sessions and simulators enter one around their own
    calls — then ``REPRO_ENGINE_WORKERS``, consulted *now* so mutating
    the environment after import takes effect, then ``1``.  Capped at
    64, and always ``1`` inside a shard worker.
    """
    if _in_worker:
        return 1
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


def _worker_init(payload: Any) -> None:
    """Pool initializer: install the payload and mark the worker."""
    global _payload, _in_worker
    _payload = payload
    _in_worker = True


def _invoke(kernel: Callable[[Any, Any], Any], shard: int, attempt: int,
            shard_arg: Any) -> Any:
    """Worker-side dispatch: the fault seam, then the kernel itself.

    The armed :class:`~repro.faults.plan.FaultPlan` (inherited at fork
    time; absent in spawn-started workers) may hang or crash this
    ``(shard, attempt)`` before the kernel runs — which is exactly what
    makes injected worker faults invisible to the parent's serial
    fallback lane: the seam lives here, not in the kernel.
    """
    plan = _active_plan()
    if plan is not None and _in_worker:
        if plan.hangs_shard(shard, attempt):
            time.sleep(plan.hang_seconds)
        if plan.crashes_shard(shard, attempt):
            raise InjectedWorkerCrash(
                f"injected crash of shard {shard} (attempt {attempt})")
    return kernel(_payload, shard_arg)


def _pool_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - fork-less platform
        return multiprocessing.get_context()


def _resolve_timeout(timeout: float | None) -> float | None:
    """The per-shard timeout in effect for one :func:`run_sharded` call.

    An explicit ``timeout`` wins.  With none given, an armed
    :class:`~repro.faults.plan.FaultPlan` that hangs workers installs
    its own ``shard_timeout`` (so a hung-worker injection completes
    within the timeout + backoff budget without every caller having to
    thread a timeout through); otherwise there is no timeout — the
    pre-fault-layer behavior, byte for byte.
    """
    if timeout is not None:
        return timeout
    plan = _active_plan()
    if plan is not None and plan.hang_shard is not None:
        return plan.shard_timeout
    return None


def run_sharded(kernel: Callable[[Any, Any], Any], payload: Any,
                shard_args: Sequence[Any],
                workers: int | None = None, *,
                timeout: float | None = None,
                retries: int | None = None) -> list[Any]:
    """Evaluate ``kernel(payload, arg)`` per shard, possibly in parallel.

    Args:
        kernel: a *module-level* function (workers import it by
            reference) taking ``(payload, shard_arg)``.
        payload: the read-only state every shard needs.  Shipped to the
            workers by fork inheritance when possible, pickled otherwise;
            kernels must treat it as immutable.
        shard_args: one small argument per shard (e.g. ``(lo, hi)``
            spans from :func:`plan_shards`).
        workers: worker count override; defaults to :func:`shard_workers`.
        timeout: per-shard seconds before the pool lane gives up on a
            shard (``None`` — the default — waits forever, unless an
            armed fault plan hangs workers, in which case the plan's
            ``shard_timeout`` applies).
        retries: pool-lane retries per crashed shard before the serial
            fallback lane recomputes it in the parent (default 2).
            A timed-out shard goes straight to the serial lane — its
            worker is still wedged, so resubmitting only queues behind
            the hang.

    Returns:
        The per-shard results, in ``shard_args`` order — identical to
        ``[kernel(payload, a) for a in shard_args]`` by construction,
        whichever lane (pool, retry, serial fallback) produced each
        shard.

    Raises:
        ShardFailure: when a shard fails in the serial lane too (a
            deterministic kernel error), with the failing shard index
            attached and the original error chained.
    """
    shard_args = list(shard_args)
    if workers is None:
        workers = shard_workers()
    if _in_worker:
        workers = 1
    workers = min(workers, len(shard_args))
    if workers <= 1:
        return [_serial_shard(kernel, payload, index, arg)
                for index, arg in enumerate(shard_args)]
    if retries is None:
        retries = _DEFAULT_RETRIES
    timeout = _resolve_timeout(timeout)
    # The payload rides in the initializer arguments: under ``fork`` the
    # children inherit them copy-on-write (nothing is pickled), under
    # other start methods they are pickled once per worker.  Either way
    # each pool carries its own call's payload, so concurrent callers in
    # other threads never see it.
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context(),
                               initializer=_worker_init, initargs=(payload,))
    #: Flips when a shard timed out: its worker is still wedged on the
    #: old task, so the teardown must not wait for it — the pool is
    #: abandoned (shutdown(wait=False)) and reaps itself once the hung
    #: task finishes, keeping this call inside the timeout + backoff
    #: budget instead of blocking on a worker that may never return.
    abandoned = False
    try:
        futures: list[Future[Any] | None] = []
        for index, arg in enumerate(shard_args):
            futures.append(_submit_shard(pool, kernel, index, 0, arg))
        results: list[Any] = []
        for index, arg in enumerate(shard_args):
            result, timed_out = _collect_shard(
                pool, kernel, futures[index], index, arg, timeout, retries)
            abandoned = abandoned or timed_out
            if result is _SERIAL_LANE:
                result = _serial_shard(kernel, payload, index, arg)
            results.append(result)
        return results
    finally:
        pool.shutdown(wait=not abandoned, cancel_futures=True)


#: Sentinel: the pool lane gave up on this shard; recompute serially.
_SERIAL_LANE = object()


def _submit_shard(pool: ProcessPoolExecutor,
                  kernel: Callable[[Any, Any], Any], index: int,
                  attempt: int, arg: Any) -> Future[Any] | None:
    """Submit one shard attempt; ``None`` when the pool cannot take it."""
    try:
        return pool.submit(_invoke, kernel, index, attempt, arg)
    except RuntimeError:
        # Shut-down or broken pool: nothing to wait for, the serial
        # lane owns this shard.
        return None


def _collect_shard(pool: ProcessPoolExecutor,
                   kernel: Callable[[Any, Any], Any],
                   future: Future[Any] | None, index: int, arg: Any,
                   timeout: float | None,
                   retries: int) -> tuple[Any, bool]:
    """One shard's pool-lane result, retrying crashes with backoff.

    Returns ``(result, timed_out)``; ``result`` is :data:`_SERIAL_LANE`
    when the pool lane failed and the caller must recompute the shard
    serially.  Crashed attempts (worker raised, worker died, payload or
    result failed to pickle) are resubmitted up to ``retries`` times;
    a timeout is terminal for the pool lane — the worker is wedged, so
    the shard goes straight to the serial lane and the pool is marked
    for abandonment.
    """
    attempt = 0
    while True:
        if future is None:
            return _SERIAL_LANE, False
        try:
            return future.result(timeout=timeout), False
        except TimeoutError:
            warnings.warn(
                f"shard {index} timed out after {timeout}s; recomputing "
                f"serially in the parent", RuntimeWarning, stacklevel=4)
            return _SERIAL_LANE, True
        except Exception as error:
            if attempt >= retries:
                warnings.warn(
                    f"shard {index} failed the pool lane "
                    f"{attempt + 1} time(s) ({type(error).__name__}: "
                    f"{error}); recomputing serially in the parent",
                    RuntimeWarning, stacklevel=4)
                return _SERIAL_LANE, False
            time.sleep(_RETRY_BACKOFF * (2 ** attempt))
            attempt += 1
            future = _submit_shard(pool, kernel, index, attempt, arg)


def _serial_shard(kernel: Callable[[Any, Any], Any], payload: Any,
                  index: int, arg: Any) -> Any:
    """The serial lane: the kernel in the parent, shard index attached.

    This is both the plain ``workers <= 1`` path and the guaranteed
    fallback for shards the pool lane lost; a kernel error here is
    deterministic and raises :class:`ShardFailure` naming the shard.
    """
    try:
        return kernel(payload, arg)
    except Exception as error:
        raise ShardFailure(
            f"shard {index} failed in the serial lane: "
            f"{type(error).__name__}: {error}", shard_index=index) from error
