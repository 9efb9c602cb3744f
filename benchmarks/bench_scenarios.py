"""Benchmarks for the scenario subsystem: generation and oracle cost.

Two budgets matter operationally: spec *generation* must be cheap
enough to mint corpora by the thousand (it is pure counter-rng
arithmetic plus validation, no schedule construction — except the
schedule-aware adversarial family), and one small spec through the full
8-path oracle must stay well under a second so the CI stress tier can
afford dozens of specs per leg.
"""

import time

import pytest

from repro.scenarios.generators import family_names, generate
from repro.scenarios.oracle import full_matrix, run_oracle

#: Families whose builders never construct a schedule (adversarial_edits
#: does, deliberately — it reads the slots it attacks).
_PURE_FAMILIES = ("grid_sweep", "heterogeneous_mix", "churn", "mobile")


@pytest.mark.parametrize("family", _PURE_FAMILIES)
def test_generation_throughput(benchmark, family):
    def mint_corpus():
        return [generate(family, 2008, index) for index in range(50)]

    corpus = benchmark(mint_corpus)
    assert len({spec.to_json() for spec in corpus}) == 50


def test_oracle_full_matrix_small_spec(benchmark, report, record_scaling):
    spec = generate("churn", 2008, 0)
    matrix = full_matrix()

    start = time.perf_counter()
    oracle_report = benchmark.pedantic(run_oracle, args=(spec,),
                                       kwargs={"paths": matrix},
                                       rounds=3, iterations=1)
    seconds = (time.perf_counter() - start) / 3
    assert oracle_report.ok
    record_scaling("scenario-oracle/8-path-small", seconds=seconds,
                   window=len(spec.window_points()))
    report("Scenario oracle — 8-path differential check",
           f"{spec.label()}: {len(matrix)} paths in {seconds * 1e3:.0f} ms")
    # The CI stress tier budgets whole corpora; one small spec across
    # all 8 paths must stay comfortably sub-second.
    assert seconds < 1.0


def test_generation_is_schedule_free_fast():
    """Minting 1000 pure-family specs stays in interactive territory."""
    start = time.perf_counter()
    total = 0
    for family in _PURE_FAMILIES:
        total += len([generate(family, 7, i) for i in range(250)])
    elapsed = time.perf_counter() - start
    assert total == 1000
    assert elapsed < 30.0  # generous: CI machines vary wildly


def test_every_family_generates_and_validates():
    for family in family_names():
        spec = generate(family, 2025, 1)
        assert spec.window_points()
