"""Tests for the "replay" run kind: a recorded storm trace re-driven
through the cluster with querystorm-comparable metrics."""

import pytest

from repro.errors import SimulationError
from repro.experiments import run_experiment, run_kind_names
from repro.experiments.scenario import ScenarioBuilder
from repro.experiments.spec import ExperimentSpec, ScenarioSpec
from repro.traces.record import TraceRecorder
from repro.wsdb.cluster import simulate_querystorm

FREE = tuple(range(4, 18))

#: Extra metric keys the replay probe layers on top of querystorm's.
REPLAY_EXTRAS = ("storm_trace", "replayed_queries")


def storm_scenario() -> ScenarioSpec:
    return ScenarioSpec(free_indices=FREE, duration_us=40e6, seed=11)


def storm_knobs() -> dict:
    return dict(
        scenario=storm_scenario(),
        storm_shards=2,
        storm_offered_qps=40.0,
        storm_push=True,
        citywide_aps=6,
        citywide_mic_events=4,
        roaming_clients=8,
    )


def replay_spec(trace_path, **overrides) -> ExperimentSpec:
    knobs = storm_knobs()
    knobs.update(overrides)
    return ExperimentSpec(kind="replay", storm_trace=str(trace_path), **knobs)


@pytest.fixture
def recorded_trace(tmp_path):
    """A trace recorded from the run the querystorm kind would execute."""
    spec = ExperimentSpec(kind="querystorm", **storm_knobs())
    params = spec.params
    router = ScenarioBuilder(spec.scenario).build_wsdb_cluster(
        num_shards=params.storm_shards,
        extent_m=params.extent_m,
        cache_resolution_m=params.roaming_recheck_m,
    )
    path = tmp_path / "storm.jsonl.gz"
    with TraceRecorder(path) as recorder:
        simulate_querystorm(
            router,
            num_aps=params.citywide_aps,
            num_clients=params.roaming_clients,
            duration_us=spec.scenario.duration_us,
            seed=spec.scenario.seed,
            offered_qps=params.storm_offered_qps,
            push=True,
            speed_mps=params.roaming_speed_mps,
            recheck_m=params.roaming_recheck_m,
            mic_events=params.citywide_mic_events,
            recorder=recorder,
        )
    return path


class TestRegistration:
    def test_replay_in_run_kinds(self):
        assert "replay" in run_kind_names()

    def test_requires_storm_trace(self):
        with pytest.raises(SimulationError, match="storm_trace"):
            ExperimentSpec(kind="replay", **storm_knobs())

    def test_inherits_querystorm_validation(self, tmp_path):
        with pytest.raises(SimulationError, match="storm_shards"):
            replay_spec(tmp_path / "t.jsonl.gz", storm_shards=0)
        # The inherited message names the actual kind, not 'querystorm'.
        with pytest.raises(SimulationError, match="'replay'"):
            replay_spec(tmp_path / "t.jsonl.gz", storm_shards=None)

    def test_storm_trace_is_querystorm_and_replay_only(self):
        with pytest.raises(SimulationError, match="storm_trace"):
            ExperimentSpec(
                scenario=storm_scenario(),
                kind="roaming",
                citywide_aps=6,
                roaming_clients=4,
                storm_trace="x.jsonl.gz",
            )


class TestSpecHash:
    def test_trace_path_participates(self, tmp_path):
        a = replay_spec(tmp_path / "a.jsonl.gz")
        b = replay_spec(tmp_path / "b.jsonl.gz")
        assert a.spec_hash != b.spec_hash

    def test_querystorm_accepts_trace_knob(self, tmp_path):
        knobs = storm_knobs()
        plain = ExperimentSpec(kind="querystorm", **knobs)
        traced = ExperimentSpec(
            kind="querystorm", storm_trace=str(tmp_path / "t.gz"), **knobs
        )
        assert plain.spec_hash != traced.spec_hash


class TestExecution:
    def test_replay_metrics_match_source_querystorm(self, recorded_trace):
        source = run_experiment(ExperimentSpec(kind="querystorm", **storm_knobs()))
        replay = run_experiment(replay_spec(recorded_trace))

        assert replay.kind == "replay"
        assert replay.metric("storm_trace") == str(recorded_trace)
        assert replay.metric("replayed_queries") == source.metric(
            "storm_queries"
        )

        source_metrics = dict(source.metrics)
        replay_metrics = dict(replay.metrics)
        for key in REPLAY_EXTRAS:
            replay_metrics.pop(key)
        assert replay_metrics == source_metrics

    def test_vector_replay_matches_scalar_source(self, recorded_trace):
        pytest.importorskip("numpy")
        source = run_experiment(ExperimentSpec(kind="querystorm", **storm_knobs()))
        replay = run_experiment(replay_spec(recorded_trace, engine="vector"))
        source_metrics = dict(source.metrics)
        replay_metrics = dict(replay.metrics)
        for key in REPLAY_EXTRAS:
            replay_metrics.pop(key)
        source_metrics.pop("engine", None)
        replay_metrics.pop("engine", None)
        assert replay_metrics == source_metrics

    def test_missing_trace_file_raises(self, tmp_path):
        with pytest.raises(SimulationError, match="no trace file"):
            run_experiment(replay_spec(tmp_path / "absent.jsonl.gz"))
