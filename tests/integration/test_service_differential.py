"""Integration: scenario corpus through the service == direct Sessions.

This is the service's acceptance oracle.  Scenario-corpus specs replay
twice — once as direct ``Session`` method calls, once as requests
against a shared :class:`~repro.service.server.SchedulingService` with
cross-session batching enabled — and every canonicalized response
(collision lists, verification sources, session-lifetime cache
counters, slot arrays, saved JSON) must match bit for bit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.config import EngineConfig
from repro.scenarios.generators import iter_corpus
from repro.service.differential import (
    replay_direct,
    replay_specs,
    replay_specs_wire,
    run_differential,
)

FAMILIES = ("grid_sweep", "churn", "mobile")
SEED = 2008
COUNT = 2


@pytest.fixture(scope="module")
def corpus():
    return list(iter_corpus(FAMILIES, SEED, COUNT))


@pytest.mark.parametrize("workers", [1, 2])
def test_service_replay_bit_identical_to_direct(corpus, workers):
    config = EngineConfig(workers=workers)
    service_legs = replay_specs(corpus, config, max_batch=32)
    service_legs.pop("__batched_dispatches__")
    for spec in corpus:
        direct = replay_direct(spec, config)
        served = service_legs[spec.label()]
        assert len(served) == len(direct), spec.label()
        for index, (expected, actual) in enumerate(zip(direct, served)):
            assert actual == expected, (
                f"{spec.label()} response {index} diverged with "
                f"{workers} worker(s)")


def test_run_differential_report_clean():
    report = run_differential(families=FAMILIES, seed=SEED, count=1)
    assert report["ok"], report["mismatches"]
    assert report["specs"] == len(FAMILIES)
    assert report["responses_compared"] > 0
    # Each script ends in two consecutive assigns, so the oracle
    # compares coalesced answers, not only single dispatches.
    assert report["batched_dispatches"] > 0
    assert "backends" not in report


def test_wire_transport_replay_bit_identical_to_direct(corpus):
    """The same corpus, replayed through the socket front end — sessions
    serialized through the wire envelope, requests pipelined in one
    bulk frame — must still answer bit for bit what direct ``Session``
    calls answer, counters included."""
    wire_legs = replay_specs_wire(corpus, max_batch=32)
    wire_legs.pop("__batched_dispatches__")
    for spec in corpus:
        direct = replay_direct(spec)
        served = wire_legs[spec.label()]
        assert len(served) == len(direct), spec.label()
        for index, (expected, actual) in enumerate(zip(direct, served)):
            assert actual == expected, (
                f"{spec.label()} response {index} diverged over the "
                f"wire")


def test_run_differential_wire_report_clean():
    report = run_differential(families=FAMILIES, seed=SEED, count=1,
                              transport="wire")
    assert report["ok"], report["mismatches"]
    assert report["transport"] == "wire"
    assert report["responses_compared"] > 0
    assert report["batched_dispatches"] > 0


def test_serve_entry_point_over_a_real_process_boundary(tmp_path):
    """``python -m repro.service serve --announce`` in a subprocess:
    the handshake line announces the bound port, a client drives the
    full surface over the socket, and ``shutdown`` exits cleanly."""
    from repro.api import Box, Session
    from repro.service.transport import ServiceClient
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--port", "0", "--announce"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env={"PYTHONPATH": src_dir, "PATH": "/usr/bin:/bin"},
        cwd=tmp_path)
    try:
        handshake = json.loads(process.stdout.readline())
        with ServiceClient(handshake["host"], handshake["port"],
                           timeout=30) as client:
            session = Session.for_chebyshev(1, window=Box((0, 0), (5, 5)))
            client.open_session("s", session)
            served = client.assign("s", [(0, 0), (3, 4)])
            direct = session.assign([(0, 0), (3, 4)])
            assert [int(s) for s in served.slots] == \
                [int(s) for s in direct.slots]
            assert client.save("s") == session.save()
            assert client.shutdown()
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
        process.stdout.close()


def test_adversarial_edit_specs_also_transparent():
    """The edit-heavy family exercises restrict/edit/delta paths."""
    specs = list(iter_corpus(("adversarial_edits",), SEED, 1))
    service_legs = replay_specs(specs)
    service_legs.pop("__batched_dispatches__")
    for spec in specs:
        assert service_legs[spec.label()] == replay_direct(spec)
