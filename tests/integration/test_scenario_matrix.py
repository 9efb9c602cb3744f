"""The pinned-seed scenario corpus through the full differential oracle.

Every CI leg replays this corpus — 28 specs, 4 per generator family,
seed 2008 — across the complete engine matrix ``{1, 2 workers} x
{full, incremental}`` (4 paths per spec) and tolerates zero divergences, invariant violations or departures from the
brute-force reference.  The
``grid_sweep`` picks include the two *stress* cycle entries (indices 14
and 15), whose windows are large enough that the 2-worker column
genuinely runs a sharded kernel (the random-MAC decision blocks) on
the shard thread pool.

A failing parametrization prints the exact ``python -m repro.scenarios
run ...`` command that replays the offending spec standalone.
"""

import json
import subprocess
import sys

import pytest

from repro.scenarios.generators import family_names, generate
from repro.scenarios.oracle import full_matrix, run_oracle

SEED = 2008

#: The pinned corpus: (family, index) at SEED.  grid_sweep trades two
#: small-window indices for the stress entries of its kind cycle.
CORPUS = [
    *[("adversarial_edits", i) for i in range(4)],
    *[("churn", i) for i in range(4)],
    *[("faulty_byzantine", i) for i in range(4)],
    *[("faulty_flaky", i) for i in range(4)],
    ("grid_sweep", 0), ("grid_sweep", 5),
    ("grid_sweep", 14), ("grid_sweep", 15),
    *[("heterogeneous_mix", i) for i in range(4)],
    *[("mobile", i) for i in range(4)],
]

MATRIX = full_matrix()


class TestCorpusShape:
    def test_corpus_is_big_enough(self):
        assert len(CORPUS) >= 20

    def test_corpus_covers_every_family(self):
        assert {family for family, _ in CORPUS} == set(family_names())

    def test_matrix_is_the_full_cross_product(self):
        assert len(MATRIX) == 4
        assert {p.workers for p in MATRIX} == {1, 2}
        assert {p.mode for p in MATRIX} == {"full", "incremental"}

    def test_stress_specs_exercise_the_sharded_kernels(self):
        # At least one corpus member must clear the sorted-key scan's
        # probe cutoff, below which that kernel stays serial.
        from repro.engine.collisions import _MIN_PARALLEL_PROBES
        biggest = 0
        for family, index in CORPUS:
            spec = generate(family, SEED, index)
            if spec.dimension != 2 or spec.construction == "multi":
                continue
            session = spec.base_session()
            offsets = session.schedule.prototile.difference_set() \
                - {(0, 0)}
            probes = len(spec.window_points()) * len(offsets)
            biggest = max(biggest, probes)
        assert biggest >= _MIN_PARALLEL_PROBES


@pytest.mark.parametrize("family,index", CORPUS,
                         ids=[f"{f}-{i}" for f, i in CORPUS])
def test_every_engine_path_agrees(family, index):
    spec = generate(family, SEED, index)
    report = run_oracle(spec, paths=MATRIX)
    assert report.ok, (
        f"{len(report.violations)} violation(s) on {spec.label()}:\n  "
        + "\n  ".join(report.violations)
        + f"\nreproduce standalone: {spec.cli_command()}")


class TestCliReproduction:
    """The printed repro command must actually work, end to end."""

    def test_run_command_replays_one_spec(self, tmp_path):
        spec = generate("churn", SEED, 0)
        report_path = tmp_path / "report.json"
        command = spec.cli_command().split()[1:]  # drop the "python"
        result = subprocess.run(
            [sys.executable, *command, "--json", str(report_path)],
            capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "[OK]" in result.stdout
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["results"][0]["family"] == "churn"
        assert payload["paths_per_spec"] == 4

    def test_corpus_command_sweeps_families(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.scenarios", "corpus",
             "--families", "adversarial_edits,mobile", "--count", "1",
             "--workers", "1"],
            capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.count("[OK]") == 2
