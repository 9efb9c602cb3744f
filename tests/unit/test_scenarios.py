"""Unit tests for repro.scenarios: spec, generators, oracle, CLI."""

import json

import pytest

from repro.api import Session
from repro.scenarios import (
    FAMILIES,
    ScenarioSpec,
    family_names,
    full_matrix,
    generate,
    generate_corpus,
    run_oracle,
    run_path,
    spec_from_dict,
    spec_from_json,
)
from repro.scenarios.__main__ import main as scenarios_main
from repro.scenarios.generators import EXACT_TILES
from repro.tiles.shapes import GALLERY

#: Cheapest matrix that still covers both modes.
CHEAP = full_matrix(workers=(1,))


def _spec(**overrides) -> ScenarioSpec:
    fields = dict(family="unit", seed=0, index=0,
                  construction="prototile", prototile="chebyshev-1",
                  window_lo=(0, 0), window_hi=(3, 3))
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestSpecValidation:
    def test_unknown_construction_rejected(self):
        with pytest.raises(ValueError, match="unknown construction"):
            _spec(construction="voronoi")

    def test_unknown_prototile_rejected(self):
        with pytest.raises(ValueError, match="unknown gallery prototile"):
            _spec(prototile="heptomino")

    def test_multi_needs_sz_pattern(self):
        with pytest.raises(ValueError, match="S/Z pattern"):
            _spec(construction="multi", prototile=None, pattern="SX")

    def test_swapped_window_corners_rejected(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            _spec(window_lo=(4, 0), window_hi=(0, 4))

    def test_window_dimension_must_match_construction(self):
        with pytest.raises(ValueError, match="dimensional"):
            _spec(construction="chebyshev", prototile=None, dimension=3,
                  window_lo=(0, 0), window_hi=(2, 2))

    def test_killing_every_sensor_rejected(self):
        points = _spec(window_lo=(0, 0), window_hi=(1, 0)).window_points()
        with pytest.raises(ValueError, match="every window sensor failed"):
            _spec(window_lo=(0, 0), window_hi=(1, 0),
                  failures=tuple(points))

    def test_edits_and_drift_exclude_each_other(self):
        with pytest.raises(ValueError, match="do not compose"):
            _spec(edits=((((0, 0), 1),),), drift=((1, 0),))

    def test_forced_collisions_contradict_clean_expectation(self):
        with pytest.raises(ValueError, match="cannot both"):
            _spec(edits=((((0, 0), 1),),),
                  forced_collisions=(((0, 0), (0, 1)),),
                  expect_collision_free=True)


class TestSpecBehavior:
    def test_window_points_exclude_failures(self):
        spec = _spec(failures=((0, 0), (1, 1)))
        points = spec.window_points()
        assert (0, 0) not in points and (1, 1) not in points
        assert len(points) == 14

    def test_rounds_apply_drift_cumulatively(self):
        spec = _spec(drift=((1, 0), (0, 2)))
        rounds = spec.rounds()
        assert rounds[1][0] == (1, 0)
        assert rounds[2][0] == (1, 2)

    def test_full_field_json_round_trip(self):
        spec = _spec(failures=((2, 2),),
                     edits=((((0, 0), 3), ((1, 0), 2)), (((0, 0), 0),)),
                     forced_collisions=(((0, 0), (1, 0)),),
                     expect_collision_free=False,
                     protocol="aloha", protocol_params=(("p", 0.2),),
                     sim_slots=12, sim_seed=99)
        assert spec_from_json(spec.to_json()) == spec
        assert spec_from_dict(json.loads(spec.to_json())) == spec

    def test_round_trip_of_non_canonical_field_combinations(self):
        # Fields that generator families only set in canonical combos
        # must still survive serialization on their own: a prototile
        # spec carrying ball parameters, sim knobs without a protocol.
        spec = _spec(radius=2, sim_slots=9, sim_seed=5)
        assert spec_from_json(spec.to_json()) == spec

    def test_materialize_without_edits_is_the_base_session(self):
        session = _spec().materialize()
        assert isinstance(session, Session)
        assert session.num_slots == GALLERY["chebyshev-1"].size

    def test_materialize_with_edits_restricts_and_applies(self):
        spec = _spec(edits=((((0, 0), 5),),))
        session = spec.materialize()
        assert session.assign([(0, 0)]).slots[0] == 5
        # Untouched points keep their Theorem 1 slots.
        base = spec.base_session()
        assert session.assign([(3, 3)]).slots[0] \
            == base.assign([(3, 3)]).slots[0]

    def test_cli_command_names_the_coordinate(self):
        spec = generate("churn", 7, 3)
        assert spec.cli_command() \
            == "python -m repro.scenarios run churn --seed 7 --index 3"


class TestGenerators:
    def test_seven_families_registered(self):
        assert family_names() == ("adversarial_edits", "churn",
                                  "faulty_byzantine", "faulty_flaky",
                                  "grid_sweep", "heterogeneous_mix",
                                  "mobile")

    def test_unknown_family_lists_known_ones(self):
        with pytest.raises(KeyError, match="churn"):
            generate("quantum", 0, 0)

    def test_corpus_indices_are_consecutive(self):
        corpus = generate_corpus("mobile", 11, 3, start=2)
        assert [spec.index for spec in corpus] == [2, 3, 4]

    def test_specs_label_their_own_coordinates(self):
        for family in family_names():
            spec = generate(family, 5, 9)
            assert (spec.family, spec.seed, spec.index) == (family, 5, 9)

    def test_seed_changes_the_stream(self):
        assert generate("churn", 1, 0) != generate("churn", 2, 0)

    def test_grid_sweep_cycles_every_exact_tile(self):
        names = {generate("grid_sweep", 3, i).prototile
                 for i in range(16)}
        assert set(EXACT_TILES) <= names

    def test_exact_tiles_exclude_the_u_pentomino(self):
        assert "U" not in EXACT_TILES

    def test_adversarial_even_indices_force_a_collision(self):
        spec = generate("adversarial_edits", 4, 0)
        assert spec.forced_collisions
        assert spec.expect_collision_free is False

    def test_adversarial_odd_indices_revert_to_clean(self):
        spec = generate("adversarial_edits", 4, 1)
        assert not spec.forced_collisions
        assert spec.expect_collision_free is True
        assert len(spec.edits) == 2

    def test_family_descriptions_exist(self):
        for family in FAMILIES.values():
            assert family.description


class TestOracle:
    def test_clean_spec_passes_the_cheap_matrix(self):
        report = run_oracle(_spec(), paths=CHEAP)
        assert report.ok and report.reference is not None
        assert report.to_row()["ok"] is True

    def test_full_and_incremental_observe_identically(self):
        spec = generate("heterogeneous_mix", 2008, 1)
        full, incremental = (run_path(spec, path)
                             for path in full_matrix(workers=(1,)))
        assert full == incremental

    def test_reference_catches_a_consistently_wrong_engine(self,
                                                           monkeypatch):
        # Every path shares CosetTable, so a shifted lookup fools the
        # cross-path comparison and (being a slot permutation) the
        # theorem invariants; only the brute-force reference sees it.
        from repro.engine.slots import CosetTable
        lookup_array = CosetTable.lookup_array
        monkeypatch.setattr(
            CosetTable, "lookup_array",
            lambda self, points: (lookup_array(self, points) + 1) % 9)
        report = run_oracle(_spec(), paths=CHEAP)
        assert any("per-point slot_of" in v for v in report.violations)

    def test_false_clean_expectation_is_a_violation(self):
        report = run_oracle(_spec(expect_collision_free=False),
                            paths=CHEAP)
        assert not report.ok
        assert any("expected final collisions" in v
                   for v in report.violations)

    def test_unforced_forced_collision_is_a_violation(self):
        # A no-op edit leaves the Theorem 1 schedule clean, so the
        # claimed forced pair cannot be present.
        base = _spec().base_session()
        slot = int(base.assign([(0, 0)]).slots[0])
        spec = _spec(edits=((((0, 0), slot),),),
                     forced_collisions=(((0, 0), (0, 1)),))
        report = run_oracle(spec, paths=CHEAP)
        assert not report.ok
        assert any("forced collision" in v for v in report.violations)

    def test_summary_of_a_failure_prints_the_repro_command(self):
        report = run_oracle(_spec(expect_collision_free=False),
                            paths=CHEAP)
        assert "python -m repro.scenarios run" in report.summary()

    def test_matrix_axes_are_narrowable(self):
        assert len(full_matrix()) == 4
        assert len(full_matrix(workers=(1,), modes=("full",))) == 1


class TestCli:
    def test_list_names_every_family(self, capsys):
        assert scenarios_main(["list"]) == 0
        out = capsys.readouterr().out
        for family in family_names():
            assert family in out

    def test_show_prints_the_spec_json(self, capsys):
        assert scenarios_main(["show", "mobile", "--seed", "3",
                               "--index", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["family"], data["seed"], data["index"]) \
            == ("mobile", 3, 2)

    def test_run_writes_a_json_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = scenarios_main(["run", "churn", "--index", "1",
                               "--workers", "1", "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert payload["results"][0]["reproduce"].endswith("--index 1")

    def test_corpus_rejects_unknown_families(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            scenarios_main(["corpus", "--families", "churns",
                            "--count", "1"])
        assert excinfo.value.code == 2
        assert "unknown families: churns" in capsys.readouterr().err

    def test_corpus_exit_code_reflects_failures(self, capsys, monkeypatch):
        # Sabotage one family builder so the sweep must fail loudly.
        from repro.scenarios import generators
        broken = _spec(family="churn", expect_collision_free=False)
        monkeypatch.setitem(
            generators.FAMILIES, "churn",
            generators.ScenarioFamily(
                "churn", "sabotaged",
                lambda seed, index: broken.__class__(
                    **{**broken.__dict__, "seed": seed, "index": index})))
        code = scenarios_main(["corpus", "--families", "churn",
                               "--count", "1", "--workers", "1"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
