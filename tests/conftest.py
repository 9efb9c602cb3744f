"""Fixtures shared by the test suite."""

import warnings

import pytest

import repro.engine.collisions as collisions_module
import repro.engine.slots as slots_module
from repro.engine.collisions import EngineDegradedWarning
from repro.faults.injection import use_plan
from repro.faults.plan import FaultPlan


@pytest.fixture(params=["dense", "sorted", "exact"])
def scan_lane(request, monkeypatch):
    """Answer the test's collision scans from one of the engine's paths.

    * ``dense`` — the engine's own choice: the stencil scan for windows
      that fill their bounding box exactly once, the sorted-key scan for
      the rest;
    * ``sorted`` — the sorted-key scan for every window, dense or not;
    * ``exact`` — arms a numpy-failure budget no test exhausts, so every
      :func:`scan_collisions` call degrades with an
      :class:`EngineDegradedWarning` and is answered by the exact scan
      (:func:`scan_collisions_touching` with every point touched) — the
      path that serves windows beyond int64 keys and calls degraded by a
      kernel failure.

    A test taking this fixture must hold on every lane; on the
    ``sorted`` and ``exact`` lanes the fixture also checks that the
    forced scan really ran.
    """
    if request.param == "dense":
        yield request.param
        return
    calls = []
    if request.param == "sorted":
        sorted_scan = collisions_module._scan_sorted

        def forced(*args):
            calls.append(len(args[0]))
            return sorted_scan(*args)

        monkeypatch.setattr(collisions_module, "_scan_dense", forced)
        monkeypatch.setattr(collisions_module, "_scan_sorted", forced)
        yield request.param
        assert calls, "no collision scan ran on the sorted lane"
        return
    with use_plan(FaultPlan(numpy_failures=1 << 30)), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", EngineDegradedWarning)
        yield request.param
    assert any(isinstance(warning.message, EngineDegradedWarning)
               for warning in caught), \
        "no collision scan degraded on the exact lane"


@pytest.fixture(params=["int64", "exact"])
def coset_lane(request, monkeypatch):
    """Place the test's batch slot lookups inside or beyond int64 reach.

    Yields a function that moves a list of points: unchanged on the
    ``int64`` lane, translated past ``2**40`` in every coordinate (with
    alternating signs) on the ``exact`` lane, where
    :class:`~repro.engine.slots.CosetTable` cannot reduce in int64 and
    must take its exact path.  On the exact lane the fixture also checks
    that the exact path really ran.
    """
    if request.param == "int64":
        yield list
        return
    calls = []
    exact = slots_module.CosetTable._lookup_exact

    def counted(self, points):
        calls.append(len(points))
        return exact(self, points)

    monkeypatch.setattr(slots_module.CosetTable, "_lookup_exact", counted)

    def place(points):
        return [tuple(c + (-1) ** i * (2 ** 40 + 12345 * 2 ** i)
                      for i, c in enumerate(point)) for point in points]

    yield place
    assert calls, "no batch lookup ran on the exact lane"
