"""Typed engine configuration: the explicit alternative to env vars.

Historically the engine was configured through process-global state:
``REPRO_ENGINE_WORKERS`` picked the shard worker count, and knobs like
the simulator's decision window were module constants.  That is workable for a library, but the ROADMAP's
service-grade surface needs *per-call* configuration that can be typed,
validated, passed around, and tested — without mutating the process.

:class:`EngineConfig` is that object.  Every field is optional; a
``None`` field means "fall back to the ambient resolution", which keeps
the env var working but demotes it to a default producer:

1. an explicit field on the :class:`EngineConfig` in effect,
2. an explicit :func:`repro.engine.parallel.set_workers` call (the
   strict, imperative API — it outranks the *default* config but not a
   config passed per call, which applies itself innermost),
3. the session default installed via :func:`set_default_config` /
   :func:`use_config`,
4. ``REPRO_ENGINE_WORKERS``, re-read lazily at resolution time (never
   captured at import),
5. the built-in default (serial workers).

There is one kernel implementation, on numpy; the config never picks
between engines.

The module lives in :mod:`repro.engine` so that the engine and the
network simulator can accept ``config=`` parameters without importing
the high-level facade (:mod:`repro.api` re-exports everything here).
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

__all__ = [
    "EngineConfig",
    "active_kernel_failure_policy",
    "default_config",
    "installed_default",
    "set_default_config",
    "use_config",
    "use_kernel_failure_policy",
]

_KERNEL_FAILURE_CHOICES = ("degrade", "raise")


@dataclass(frozen=True)
class EngineConfig:
    """One validated bundle of engine knobs.

    Attributes:
        workers: shard worker count for the multi-core kernels (``1`` is
            serial).  ``None`` falls back to ``set_workers`` /
            ``REPRO_ENGINE_WORKERS`` / serial.
        bulk_decisions: drive random-MAC protocols through their
            vectorized ``decision_block`` (the default); ``False`` pins
            the scalar ``wants_to_send`` reference path.
        decision_window: slots of random-MAC decisions precomputed per
            block for non-carrier-sense protocols.  Purely a batching
            knob — the counter-based rng makes results identical for
            every window size.  ``None`` uses the simulator default.
        on_kernel_failure: degradation policy when a numpy engine
            kernel fails mid-call — ``"degrade"`` answers from the
            exact path with a structured
            :class:`~repro.engine.collisions.EngineDegradedWarning`,
            ``"raise"`` propagates the kernel error.  ``None`` falls
            back to the installed default config and then to
            ``"degrade"`` (an answered request beats a traceback; the
            exact path is pinned to the brute-force reference by the
            test suite).
    """

    workers: int | None = None
    bulk_decisions: bool = True
    decision_window: int | None = None
    on_kernel_failure: str | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and (
                not isinstance(self.workers, int)
                or isinstance(self.workers, bool) or self.workers < 1):
            raise ValueError(
                f"workers must be a positive int or None, "
                f"got {self.workers!r}")
        if not isinstance(self.bulk_decisions, bool):
            raise ValueError(
                f"bulk_decisions must be a bool, got {self.bulk_decisions!r}")
        if self.decision_window is not None and (
                not isinstance(self.decision_window, int)
                or isinstance(self.decision_window, bool)
                or self.decision_window < 1):
            raise ValueError(
                f"decision_window must be a positive int or None, "
                f"got {self.decision_window!r}")
        if self.on_kernel_failure is not None \
                and self.on_kernel_failure not in _KERNEL_FAILURE_CHOICES:
            raise ValueError(
                f"unknown on_kernel_failure policy "
                f"{self.on_kernel_failure!r}; expected one of "
                f"{_KERNEL_FAILURE_CHOICES} (or None for the ambient "
                f"fallback)")

    # ------------------------------------------------------------------
    def resolve_workers(self) -> int:
        """The worker count sharded kernels will use (``1`` = serial)."""
        from repro.engine.parallel import _MAX_WORKERS, shard_workers
        if self.workers is None:
            return shard_workers()
        return min(self.workers, _MAX_WORKERS)

    def resolve_on_kernel_failure(self) -> str:
        """The degradation policy in effect: ``"degrade"`` or ``"raise"``."""
        if self.on_kernel_failure is None:
            return active_kernel_failure_policy()
        return self.on_kernel_failure

    def replace(self, **changes: Any) -> EngineConfig:
        """A copy with some fields changed (the dataclass ``replace``)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """The config as a JSON-able dict (round-trips via
        :meth:`from_dict`) — how configs travel inside the service
        transport's session wire envelopes."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> EngineConfig:
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected (a typo'd knob silently ignored is a
        config-hygiene bug); field values re-validate through
        ``__post_init__`` like any constructor call.
        """
        fields = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ValueError(
                f"unknown EngineConfig field(s) {unknown}; expected a "
                f"subset of {sorted(fields)}")
        return cls(**dict(data))

    @classmethod
    def from_env(cls) -> EngineConfig:
        """Snapshot the env fallback into an explicit field.

        Useful to freeze the process-wide default into a value that no
        later ``os.environ`` mutation can shift.
        """
        import os

        from repro.engine.parallel import _workers_from_env
        return cls(workers=_workers_from_env(
            os.environ.get("REPRO_ENGINE_WORKERS")))

    @contextmanager
    def apply(self) -> Iterator[None]:
        """Make the explicit fields the ambient engine state for a block.

        Only non-``None`` fields are applied (via
        :func:`~repro.engine.parallel.use_workers` /
        :func:`use_kernel_failure_policy`), so an all-default config is
        a no-op.  This is how per-call ``config=`` parameters reach
        kernels whose dispatch reads the ambient state.
        """
        from repro.engine.parallel import use_workers
        with ExitStack() as stack:
            if self.workers is not None:
                stack.enter_context(use_workers(self.workers))
            if self.on_kernel_failure is not None:
                stack.enter_context(
                    use_kernel_failure_policy(self.on_kernel_failure))
            yield


# ----------------------------------------------------------------------
# The session default: one process-wide EngineConfig that the ambient
# resolution (shard_workers, the kernel-failure policy) consults before
# the env,
# plus a context-local overlay for scoped installs.  Two stores because
# they answer different questions: set_default_config configures the
# *process* (visible to every thread — a service's worker threads must
# see the operator's default), while use_config configures the *calling
# context* (a thread or asyncio task serving one request must never
# leak its config into concurrently running requests).
# ----------------------------------------------------------------------
_default: EngineConfig | None = None

#: Sentinel distinguishing "no overlay installed" from an explicit
#: ``use_config(None)`` (which must hide the process default for the
#: block, exactly as the old global-swap implementation did).
_UNSET: Any = object()

#: Scoped default installed by :func:`use_config`; context-local so
#: concurrent threads/tasks with different configs cannot
#: cross-contaminate each other (regression-pinned by the service
#: suite's two-thread resolution test).
_default_override: ContextVar[EngineConfig | None] = ContextVar(
    "repro_engine_config_default", default=_UNSET)


def installed_default() -> EngineConfig | None:
    """The default config in effect, or ``None`` when none is installed.

    The context-local :func:`use_config` overlay outranks the
    process-wide :func:`set_default_config` value — the resolution the
    worker and kernel-failure lookups consult.
    """
    override = _default_override.get()
    return _default if override is _UNSET else override


def default_config() -> EngineConfig:
    """The installed default config, or an all-``None`` one when unset."""
    installed = installed_default()
    return installed if installed is not None else EngineConfig()


def set_default_config(config: EngineConfig | None) -> None:
    """Install (or with ``None`` clear) the process-default config.

    Fields set on the default outrank the env var for every call that
    does not pass its own config; ``None`` fields keep falling through
    to the env.  The value is process-wide; a scoped :func:`use_config` block outranks it within
    the installing context only.
    """
    global _default
    if config is not None and not isinstance(config, EngineConfig):
        raise TypeError(
            f"expected an EngineConfig or None, got {type(config).__name__}")
    _default = config


@contextmanager
def use_config(config: EngineConfig | None) -> Iterator[None]:
    """Temporarily install a default config (tests, CI legs, requests).

    Context-local: the install is visible to the current thread/task
    (and to anything it forks) but never to concurrently running
    threads or asyncio tasks, so a service can serve two sessions with
    different configs side by side without a lock.
    """
    if config is not None and not isinstance(config, EngineConfig):
        raise TypeError(
            f"expected an EngineConfig or None, got {type(config).__name__}")
    token = _default_override.set(config)
    try:
        yield
    finally:
        _default_override.reset(token)


# ----------------------------------------------------------------------
# The degradation policy: what the numpy kernel dispatch does when a
# kernel fails mid-call.  Resolution mirrors workers: explicit
# context > default config field > the built-in "degrade".  The
# explicit pin is context-local: config.apply() enters it around every
# facade call, and two service threads applying different configs must
# not see each other's policy.
# ----------------------------------------------------------------------
_kernel_failure: ContextVar[str | None] = ContextVar(
    "repro_engine_kernel_failure_policy", default=None)


def active_kernel_failure_policy() -> str:
    """The degradation policy in effect: ``"degrade"`` or ``"raise"``.

    Resolution order: an explicit :func:`use_kernel_failure_policy`
    block, then the installed default config's ``on_kernel_failure``
    field, then ``"degrade"`` — the engine answers from the exact path
    (plus a structured warning) rather than losing the call to a
    transient kernel failure.
    """
    pinned = _kernel_failure.get()
    if pinned is not None:
        return pinned
    default = default_config().on_kernel_failure
    return default if default is not None else "degrade"


@contextmanager
def use_kernel_failure_policy(policy: str) -> Iterator[None]:
    """Pin the kernel-failure policy for a block (innermost wins)."""
    if policy not in _KERNEL_FAILURE_CHOICES:
        raise ValueError(
            f"unknown on_kernel_failure policy {policy!r}; expected one "
            f"of {_KERNEL_FAILURE_CHOICES}")
    token = _kernel_failure.set(policy)
    try:
        yield
    finally:
        _kernel_failure.reset(token)
