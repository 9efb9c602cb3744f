"""Typed engine configuration: one knob, one scoped override, one env var.

A sensor's slot depends only on which coset of the tiling lattice it
sits in, so no engine setting may change an answer.  The one setting
that earns its place is how many cores compute it: the shard worker
count, the number of threads of the engine's shard pool one kernel
call may use.  :class:`EngineConfig` carries it as a typed, validated value
that sessions, simulators and wire envelopes pass around.

:func:`repro.engine.parallel.shard_workers` resolves the count in one
place, in this order:

1. the config of the calling :class:`~repro.api.Session` or
   :class:`~repro.net.simulator.BroadcastSimulator` (each enters
   :func:`use_config` around its own calls),
2. the innermost :func:`use_config` block,
3. ``REPRO_ENGINE_WORKERS``, re-read lazily at resolution time,
4. ``1`` — serial.

Each thread of the shard pool pins its own scoped count to ``1`` when
it starts, so a kernel that shards again runs serially.

The module lives in :mod:`repro.engine` so that the engine and the
network simulator can accept ``config=`` parameters without importing
the high-level facade (:mod:`repro.api` re-exports everything here).
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

__all__ = ["EngineConfig", "use_config"]


@dataclass(frozen=True)
class EngineConfig:
    """The engine's one knob, validated.

    Attributes:
        workers: shard worker count for the multi-core kernels (``1`` is
            serial).  ``None`` falls back to an enclosing
            :func:`use_config` block, then ``REPRO_ENGINE_WORKERS``,
            then serial.
    """

    workers: int | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and (
                not isinstance(self.workers, int)
                or isinstance(self.workers, bool) or self.workers < 1):
            raise ValueError(
                f"workers must be a positive int or None, "
                f"got {self.workers!r}")

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


#: The worker count of the innermost :func:`use_config` block that set
#: one.  Context-local, so concurrent threads or asyncio tasks serving
#: different sessions never see each other's count.
_workers: ContextVar[int | None] = ContextVar(
    "repro_engine_workers", default=None)


def scoped_workers() -> int | None:
    """The worker count of the innermost :func:`use_config` block, if any."""
    return _workers.get()


@contextmanager
def use_config(config: EngineConfig | None) -> Iterator[None]:
    """Install a config for a block (sessions, tests, CI legs, requests).

    Context-local: the install is visible to the current thread or task
    but never to concurrently running ones.
    A config without a worker count, or ``None``, installs nothing and
    leaves the enclosing block or the env var in charge — which is how
    sessions and simulators enter their own config around every call.
    """
    if config is not None and not isinstance(config, EngineConfig):
        raise TypeError(
            f"expected an EngineConfig or None, got {type(config).__name__}")
    if config is None or config.workers is None:
        yield
        return
    token = _workers.set(config.workers)
    try:
        yield
    finally:
        _workers.reset(token)
