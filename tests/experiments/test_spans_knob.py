"""Tests for the ``spans`` / ``span_sample`` knobs on the spec layer.

The knobs are owned by the roaming, querystorm, and replay kinds.
``spans="on"`` attaches a sim-clock :class:`SpanRecorder` to the run
and surfaces its table under the ``"spans"`` metrics key; ``"off"``
(the default) leaves every result byte-identical to a pre-spans run.
``span_sample`` refines ``spans="on"`` with a deterministic sampling
policy and is rejected without it.
"""

import pytest

from repro.errors import SimulationError
from repro.experiments import (
    ExperimentResult,
    ExperimentSpec,
    ScenarioSpec,
    run_experiment,
)
from repro.telemetry.spans import SPANS_SCHEMA

FREE = tuple(range(4, 18))


def storm_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        scenario=ScenarioSpec(
            free_indices=FREE, duration_us=3e6, seed=13
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


def roaming_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        scenario=ScenarioSpec(
            free_indices=FREE, duration_us=3e6, seed=13
        ),
        kind="roaming",
        citywide_aps=8,
        roaming_clients=6,
        citywide_extent_km=3.0,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestValidation:
    def test_modes_accepted(self):
        for mode in (None, "off", "on"):
            assert storm_spec(spans=mode).params.spans == (mode or "off")

    def test_bogus_mode_rejected(self):
        with pytest.raises(SimulationError, match="spans"):
            storm_spec(spans="maybe")

    @pytest.mark.parametrize("sample", ["off", "head-2", "head-16", "tail"])
    def test_sample_values_accepted(self, sample):
        spec = storm_spec(spans="on", span_sample=sample)
        assert spec.params.span_sample == sample

    def test_sample_requires_spans_on(self):
        with pytest.raises(SimulationError, match="span_sample"):
            storm_spec(span_sample="tail")
        with pytest.raises(SimulationError, match="span_sample"):
            storm_spec(spans="off", span_sample="tail")

    def test_bogus_sample_rejected(self):
        with pytest.raises(SimulationError, match="span_sample"):
            storm_spec(spans="on", span_sample="head-0")

    def test_foreign_on_whitefi_kind(self):
        with pytest.raises(SimulationError, match="spans"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="whitefi",
                spans="on",
            )

    def test_knobs_change_spec_hash(self):
        base = storm_spec().spec_hash
        on = storm_spec(spans="on").spec_hash
        sampled = storm_spec(spans="on", span_sample="head-2").spec_hash
        assert len({base, on, sampled}) == 3


class TestExecution:
    @pytest.mark.parametrize("spec_fn", [storm_spec, roaming_spec])
    def test_on_surfaces_table(self, spec_fn):
        result = run_experiment(spec_fn(spans="on"))
        table = result.metric("spans")
        table = dict(table)
        assert table["schema"] == SPANS_SCHEMA
        assert table["traces"] > 0
        assert table["spans"]

    def test_off_and_default_match_exactly(self):
        r_none = run_experiment(storm_spec())
        r_off = run_experiment(storm_spec(spans="off"))
        assert "spans" not in dict(r_none.metrics)
        assert dict(r_off.metrics) == dict(r_none.metrics)

    def test_result_roundtrips_with_table(self):
        result = run_experiment(storm_spec(spans="on"))
        restored = ExperimentResult.from_json(result.to_json())
        assert restored == result
        assert "spans" in dict(restored.metrics)

    def test_sampling_drops_traces_but_not_counts(self):
        full = dict(run_experiment(storm_spec(spans="on")).metric("spans"))
        sampled = dict(
            run_experiment(
                storm_spec(spans="on", span_sample="head-4")
            ).metric("spans")
        )
        assert sampled["sample"] == "head-4"
        assert list(sampled["latency_counts"]) == list(
            full["latency_counts"]
        )
        assert sampled["traces"] < full["traces"]

    def test_composes_with_telemetry(self):
        result = run_experiment(storm_spec(spans="on", telemetry="on"))
        metrics = dict(result.metrics)
        assert "spans" in metrics and "telemetry" in metrics
