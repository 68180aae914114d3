"""Tests for the "roaming" run kind on the RunKind plugin API."""

import pytest

from repro.errors import SimulationError
from repro.experiments import (
    ExperimentSpec,
    ParallelRunner,
    ScenarioSpec,
    run_experiment,
    run_kind_names,
)

FREE = tuple(range(4, 18))


def roaming_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        scenario=ScenarioSpec(
            free_indices=FREE, duration_us=120e6, seed=13
        ),
        kind="roaming",
        citywide_aps=10,
        roaming_clients=8,
        citywide_extent_km=3.0,
        citywide_mic_events=3,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRegistration:
    def test_roaming_in_run_kinds(self):
        assert "roaming" in run_kind_names()

    def test_requires_clients_and_aps(self):
        with pytest.raises(SimulationError, match="roaming_clients"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="roaming",
                citywide_aps=10,
            )
        with pytest.raises(SimulationError, match="citywide_aps"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="roaming",
                roaming_clients=5,
            )

    def test_rejects_invalid_knobs(self):
        with pytest.raises(SimulationError):
            roaming_spec(roaming_clients=0)
        with pytest.raises(SimulationError):
            roaming_spec(roaming_speed_mps=0.0)
        with pytest.raises(SimulationError):
            roaming_spec(roaming_recheck_m=-5.0)
        with pytest.raises(SimulationError):
            roaming_spec(citywide_extent_km=0.0)
        with pytest.raises(SimulationError):
            roaming_spec(citywide_mic_events=-1)

    def test_rejects_ignored_scenario_features(self):
        from repro.experiments import MicSpec

        with pytest.raises(SimulationError):
            roaming_spec(channel=(7, 5.0))
        with pytest.raises(SimulationError):
            roaming_spec(timeline_interval_us=1e6)
        with pytest.raises(SimulationError):
            roaming_spec(
                scenario=ScenarioSpec(
                    free_indices=FREE,
                    mics=(MicSpec(5, ((0.0, 1.0),)),),
                )
            )

    def test_roaming_knobs_rejected_on_other_kinds(self):
        with pytest.raises(SimulationError, match="roaming_clients"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="whitefi",
                roaming_clients=10,
            )
        # The citywide kind shares the deployment knobs but not the
        # mobility ones.
        with pytest.raises(SimulationError, match="roaming_speed_mps"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="citywide",
                citywide_aps=10,
                roaming_speed_mps=20.0,
            )

    def test_deployment_knobs_shared_with_citywide(self):
        # citywide_aps / extent / mic_events are legal on both wsdb
        # kinds; construction must not raise.
        roaming_spec()
        ExperimentSpec(
            ScenarioSpec(free_indices=FREE),
            kind="citywide",
            citywide_aps=10,
            citywide_extent_km=3.0,
            citywide_mic_events=3,
        )


class TestExecution:
    def test_metrics_and_typed_fields(self):
        result = run_experiment(roaming_spec())
        assert result.kind == "roaming"
        assert result.duration_us == 120e6
        assert result.metric("num_clients") == 8
        assert result.metric("num_aps") == 10
        assert result.metric("requeries") > 0
        assert 0.0 <= result.metric("connected_fraction") <= 1.0
        assert 0.0 <= result.metric("violation_free_fraction") <= 1.0
        assert result.metric("db_queries") > 0
        assert 0.0 <= result.metric("db_hit_rate") <= 1.0
        ticks = int(120e6 // result.metric("tick_us")) + 1
        assert (
            result.metric("connected_ticks")
            + result.metric("disconnected_ticks")
            == 8 * ticks
        )

    def test_recheck_knob_reaches_the_database(self):
        # A coarser re-check cell means fewer boundary crossings and
        # fewer queries than the 100 m default on identical paths.
        coarse = run_experiment(roaming_spec(roaming_recheck_m=400.0))
        fine = run_experiment(roaming_spec(roaming_recheck_m=50.0))
        assert coarse.metric("recheck_m") == 400.0
        assert coarse.metric("requeries") < fine.metric("requeries")

    def test_spec_json_round_trip(self):
        spec = roaming_spec(
            roaming_speed_mps=20.0, roaming_recheck_m=150.0
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.spec_hash == spec.spec_hash

    def test_deterministic_per_seed(self):
        a = run_experiment(roaming_spec())
        b = run_experiment(roaming_spec())
        assert a.to_json() == b.to_json()
        c = run_experiment(roaming_spec().with_seed(99))
        assert c.to_json() != a.to_json()

    def test_parallel_sequential_byte_identical(self):
        specs = [roaming_spec(), roaming_spec().with_seed(21)]
        sequential = ParallelRunner(max_workers=1).run_grid(specs)
        parallel = ParallelRunner(max_workers=2).run_grid(specs)
        assert [r.to_json() for r in sequential] == [
            r.to_json() for r in parallel
        ]

    def test_result_json_round_trip(self):
        from repro.experiments import ExperimentResult

        result = run_experiment(roaming_spec())
        clone = ExperimentResult.from_json(result.to_json())
        assert clone == result


class TestEngineKnob:
    def test_engine_accepted_and_normalized(self):
        assert roaming_spec(engine="vector").params.engine == "vector"
        assert roaming_spec(engine="scalar").params.engine == "scalar"
        assert roaming_spec().params.engine == "scalar"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="unknown engine"):
            roaming_spec(engine="turbo")

    def test_engine_rejected_outside_owner_kinds(self):
        with pytest.raises(SimulationError, match="does not use engine"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="citywide",
                citywide_aps=5,
                engine="vector",
            )
        with pytest.raises(SimulationError, match="does not use engine"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="whitefi",
                engine="scalar",
            )

    def test_vector_engine_result_matches_scalar(self):
        scalar = run_experiment(roaming_spec(engine="scalar"))
        vector = run_experiment(roaming_spec(engine="vector"))
        default = run_experiment(roaming_spec())
        assert vector.metrics == scalar.metrics
        assert default.metrics == scalar.metrics

    def test_engine_participates_in_spec_hash(self):
        # Same semantics, different spec: the cache key must separate
        # them (the spec records the engine even though reports match).
        assert (
            roaming_spec(engine="vector").spec_hash
            != roaming_spec().spec_hash
        )
