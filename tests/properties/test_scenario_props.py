"""Property-based pinning of the scenario subsystem.

Three contracts, for arbitrary coordinates and arbitrary valid specs:

* **purity** — a spec is a pure function of ``(family, seed, index)``:
  regeneration, JSON round-trips and re-materialization never change
  anything;
* **closure** — every spec the strategy space can express validates,
  serializes and materializes into a working session;
* **differential agreement** — on a reduced engine matrix (serial), the
  full-rescan and incremental lanes of both the facade and the legacy
  surface agree on every strategy-drawn spec, and with the brute-force
  reference.  (The full 8-path matrix runs on the pinned corpus in the
  integration suite — properties keep the per-example cost small
  instead.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.generators import family_names, generate
from repro.scenarios.oracle import full_matrix, run_oracle, run_path
from repro.scenarios.spec import spec_from_dict, spec_from_json
from tests.properties.strategies import scenario_specs

SETTINGS = dict(max_examples=20, deadline=None)

#: Cheap four-path matrix for per-example differential checks.
REDUCED_MATRIX = full_matrix(workers=(1,))

coordinates = st.tuples(st.sampled_from(family_names()),
                        st.integers(0, 2 ** 32), st.integers(0, 40))


class TestGeneratorPurity:
    @given(coordinates)
    @settings(**SETTINGS)
    def test_regeneration_is_identical(self, coordinate):
        family, seed, index = coordinate
        assert generate(family, seed, index) == generate(family, seed, index)

    @given(coordinates)
    @settings(**SETTINGS)
    def test_generated_specs_round_trip_json(self, coordinate):
        family, seed, index = coordinate
        spec = generate(family, seed, index)
        assert spec_from_json(spec.to_json()) == spec
        assert spec_from_dict(spec.to_dict()) == spec

    @given(coordinates)
    @settings(**SETTINGS)
    def test_neighbor_indices_differ(self, coordinate):
        """Streams are keyed by index: adjacent specs are distinct values.

        (Distinct up to their labels always; the window draws make the
        bodies almost surely distinct too, but only the label claim is a
        guarantee.)
        """
        family, seed, index = coordinate
        a, b = generate(family, seed, index), generate(family, seed,
                                                       index + 1)
        assert (a.family, a.seed, a.index) != (b.family, b.seed, b.index)


class TestSpecClosure:
    @given(scenario_specs())
    @settings(**SETTINGS)
    def test_strategy_specs_round_trip_json(self, spec):
        assert spec_from_json(spec.to_json()) == spec

    @given(scenario_specs())
    @settings(**SETTINGS)
    def test_materialization_is_deterministic(self, spec):
        window = spec.window_points()
        first = spec.materialize()
        second = spec.materialize()
        assert list(first.assign(window).slots) \
            == list(second.assign(window).slots)
        assert first.num_slots == second.num_slots

    @given(scenario_specs())
    @settings(**SETTINGS)
    def test_rounds_start_at_base_window(self, spec):
        rounds = spec.rounds()
        assert rounds[0] == spec.window_points()
        assert len(rounds) == 1 + len(spec.drift)


class TestDifferentialAgreement:
    @given(scenario_specs(allow_simulation=False))
    @settings(**SETTINGS)
    def test_reduced_matrix_agrees(self, spec):
        report = run_oracle(spec, paths=REDUCED_MATRIX)
        assert report.ok, "\n".join(report.violations)

    @given(scenario_specs(allow_edits=False, allow_drift=False))
    @settings(max_examples=10, deadline=None)
    def test_facade_equals_legacy_with_simulation(self, spec):
        facade, legacy = (run_path(spec, path) for path in full_matrix(
            workers=(1,), modes=("full",)))
        assert facade == legacy
