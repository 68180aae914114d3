"""Tests for the ``telemetry`` knob on the experiment spec layer.

The knob is owned by the citywide, roaming, querystorm, and replay
kinds.  ``"on"`` attaches a sim-clock :class:`MetricsRegistry` to the
run and surfaces its snapshot under the ``"telemetry"`` metrics key;
``"off"`` (the default) leaves every result byte-identical to a
pre-telemetry run.
"""

import pytest

from repro.errors import SimulationError
from repro.experiments import (
    ExperimentResult,
    ExperimentSpec,
    ScenarioSpec,
    run_experiment,
)

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
            assert storm_spec(telemetry=mode).params.telemetry == (mode or "off")

    def test_bogus_mode_rejected(self):
        with pytest.raises(SimulationError, match="telemetry"):
            storm_spec(telemetry="bogus")

    def test_foreign_on_whitefi_kind(self):
        with pytest.raises(SimulationError, match="telemetry"):
            ExperimentSpec(
                ScenarioSpec(free_indices=FREE),
                kind="whitefi",
                telemetry="on",
            )

    def test_knob_changes_spec_hash(self):
        assert (
            storm_spec(telemetry="on").spec_hash
            != storm_spec().spec_hash
        )


class TestExecution:
    @pytest.mark.parametrize("spec_fn", [storm_spec, roaming_spec])
    def test_on_surfaces_snapshot(self, spec_fn):
        result = run_experiment(spec_fn(telemetry="on"))
        metrics = dict(result.metrics)
        assert "telemetry" in metrics
        snapshot = dict(metrics["telemetry"])
        assert dict(snapshot["counters"])  # non-empty

    def test_off_and_default_match_exactly(self):
        r_none = run_experiment(storm_spec())
        r_off = run_experiment(storm_spec(telemetry="off"))
        assert "telemetry" not in dict(r_none.metrics)
        assert dict(r_off.metrics) == dict(r_none.metrics)

    def test_result_roundtrips_with_snapshot(self):
        result = run_experiment(storm_spec(telemetry="on"))
        restored = ExperimentResult.from_json(result.to_json())
        assert restored == result
        assert "telemetry" in dict(restored.metrics)
