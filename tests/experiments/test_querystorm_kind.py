"""Tests for the "querystorm" run kind on the RunKind plugin API."""

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


def storm_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        scenario=ScenarioSpec(
            free_indices=FREE, duration_us=60e6, seed=13
        ),
        kind="querystorm",
        citywide_aps=8,
        roaming_clients=6,
        citywide_extent_km=3.0,
        citywide_mic_events=2,
        storm_shards=4,
        storm_offered_qps=80.0,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRegistration:
    def test_querystorm_in_run_kinds(self):
        assert "querystorm" in run_kind_names()

    def test_requires_shards_and_aps(self):
        with pytest.raises(SimulationError, match="storm_shards"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="querystorm",
                citywide_aps=8,
            )
        with pytest.raises(SimulationError, match="citywide_aps"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="querystorm",
                storm_shards=4,
            )

    def test_rejects_invalid_knobs(self):
        with pytest.raises(SimulationError):
            storm_spec(storm_shards=0)
        with pytest.raises(SimulationError):
            storm_spec(storm_offered_qps=-1.0)
        with pytest.raises(SimulationError):
            storm_spec(storm_rate_limit_qps=0.0)
        with pytest.raises(SimulationError, match="storm_shed_policy"):
            storm_spec(storm_shed_policy="drop-table")
        with pytest.raises(SimulationError):
            storm_spec(roaming_clients=-1)
        with pytest.raises(SimulationError):
            storm_spec(roaming_speed_mps=0.0)
        with pytest.raises(SimulationError):
            storm_spec(roaming_recheck_m=-5.0)
        with pytest.raises(SimulationError):
            storm_spec(citywide_extent_km=0.0)
        with pytest.raises(SimulationError):
            storm_spec(citywide_mic_events=-1)

    def test_infeasible_shard_grid_fails_at_construction(self):
        # More shard columns than response cells per axis must fail
        # eagerly (spec construction), not mid-fan-out in a runner.
        with pytest.raises(SimulationError, match="response cells"):
            storm_spec(
                storm_shards=64,
                citywide_extent_km=0.5,
                roaming_recheck_m=100.0,
            )
        # The same count is fine once the recheck cell shrinks.
        storm_spec(
            storm_shards=64, citywide_extent_km=0.5, roaming_recheck_m=50.0
        )

    def test_clientless_storm_is_legal(self):
        # A pure storm (no mobile population) is a valid service-tier
        # load test; roaming itself still demands >= 1 client.
        storm_spec(roaming_clients=0)
        storm_spec(roaming_clients=None)
        with pytest.raises(SimulationError, match="roaming_clients"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="roaming",
                citywide_aps=8,
                roaming_clients=0,
            )

    def test_rejects_ignored_scenario_features(self):
        from repro.experiments import MicSpec

        with pytest.raises(SimulationError):
            storm_spec(channel=(7, 5.0))
        with pytest.raises(SimulationError):
            storm_spec(timeline_interval_us=1e6)
        with pytest.raises(SimulationError):
            storm_spec(
                scenario=ScenarioSpec(
                    free_indices=FREE,
                    mics=(MicSpec(5, ((0.0, 1.0),)),),
                )
            )

    def test_storm_knobs_rejected_on_other_kinds(self):
        with pytest.raises(SimulationError, match="storm_shards"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="whitefi",
                storm_shards=4,
            )
        # The roaming kind shares the mobility knobs but not the
        # cluster ones.
        with pytest.raises(SimulationError, match="storm_push"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="roaming",
                citywide_aps=8,
                roaming_clients=5,
                storm_push=True,
            )

    def test_mobility_knobs_shared_with_roaming(self):
        # roaming_* and citywide_* are legal on both kinds.
        storm_spec(roaming_speed_mps=10.0, roaming_recheck_m=150.0)
        ExperimentSpec(
            ScenarioSpec(free_indices=FREE),
            kind="roaming",
            citywide_aps=8,
            roaming_clients=5,
            roaming_speed_mps=10.0,
            roaming_recheck_m=150.0,
        )


class TestExecution:
    def test_metrics_and_typed_fields(self):
        result = run_experiment(storm_spec())
        assert result.kind == "querystorm"
        assert result.duration_us == 60e6
        assert result.metric("num_shards") == 4
        assert result.metric("shard_grid") == (2, 2)
        assert result.metric("num_clients") == 6
        assert result.metric("storm_queries") > 0
        assert result.metric("frontend_requests") >= result.metric(
            "storm_queries"
        )
        assert result.metric("frontend_shed") == 0  # no rate limit set
        assert 0.0 <= result.metric("connected_fraction") <= 1.0
        assert 0.0 <= result.metric("violation_free_fraction") <= 1.0
        assert result.metric("db_queries") > 0
        assert result.metric("db_candidates_per_query") > 0
        assert len(result.metric("per_shard")) == 4

    def test_push_knob_reaches_the_driver(self):
        pull = run_experiment(storm_spec())
        push = run_experiment(storm_spec(storm_push=True))
        assert pull.metric("push") is False
        assert push.metric("push") is True
        assert pull.metric("push_stats", default=None) is None
        assert push.metric("push_subscriptions") == 6

    def test_rate_limit_and_policy_reach_the_frontend(self):
        # A starved frontend sheds via the declarative surface too —
        # the admission path is not bench-only.
        limited = run_experiment(
            storm_spec(storm_offered_qps=300.0, storm_rate_limit_qps=50.0)
        )
        assert limited.metric("rate_limit_qps") == 50.0
        assert limited.metric("frontend_shed") > 0
        assert limited.metric("frontend_served_stale") == 0
        stale = run_experiment(
            storm_spec(
                storm_offered_qps=300.0,
                storm_rate_limit_qps=50.0,
                storm_shed_policy="serve-stale",
            )
        )
        assert stale.metric("shed_policy") == "serve-stale"
        assert stale.metric("frontend_served_stale") > 0

    def test_shards_knob_reaches_the_router(self):
        one = run_experiment(storm_spec(storm_shards=1))
        many = run_experiment(storm_spec(storm_shards=9))
        assert one.metric("num_shards") == 1
        assert len(many.metric("per_shard")) == 9
        # Same scenario, same physics: the mobile population's story
        # is identical at any shard count.
        for key in ("requeries", "handoffs", "violation_ticks"):
            assert one.metric(key) == many.metric(key)

    def test_spec_json_round_trip(self):
        spec = storm_spec(
            storm_push=True, roaming_speed_mps=20.0, storm_offered_qps=120
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.spec_hash == spec.spec_hash
        assert clone.params.storm_offered_qps == 120.0

    def test_deterministic_per_seed(self):
        a = run_experiment(storm_spec())
        b = run_experiment(storm_spec())
        assert a.to_json() == b.to_json()
        c = run_experiment(storm_spec().with_seed(99))
        assert c.to_json() != a.to_json()

    def test_parallel_sequential_byte_identical(self):
        specs = [storm_spec(), storm_spec(storm_push=True).with_seed(21)]
        sequential = ParallelRunner(max_workers=1).run_grid(specs)
        parallel = ParallelRunner(max_workers=2).run_grid(specs)
        assert [r.to_json() for r in sequential] == [
            r.to_json() for r in parallel
        ]

    def test_result_json_round_trip(self):
        from repro.experiments import ExperimentResult

        result = run_experiment(storm_spec())
        clone = ExperimentResult.from_json(result.to_json())
        assert clone == result


class TestEngineKnob:
    def test_engine_accepted(self):
        assert storm_spec(engine="vector").params.engine == "vector"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="unknown engine"):
            storm_spec(engine="simd")

    def test_vector_engine_result_matches_scalar(self):
        scalar = run_experiment(storm_spec(engine="scalar", storm_push=True))
        vector = run_experiment(storm_spec(engine="vector", storm_push=True))
        assert vector.metrics == scalar.metrics
