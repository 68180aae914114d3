"""Tests for declarative scenario/experiment specs and JSON round-trips."""

import pytest

from repro.errors import SimulationError
from repro.experiments import (
    BackgroundPoolSpec,
    BackgroundSpec,
    ExperimentSpec,
    MicSpec,
    ScenarioSpec,
    SpatialSpec,
    TrafficSpec,
)


def rich_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        free_indices=(2, 3, 4, 7, 8),
        num_channels=30,
        num_clients=3,
        backgrounds=(
            BackgroundSpec(2, 30_000.0),
            BackgroundSpec(3, 10_000.0, churn=(1_000_000.0, 2_000_000.0)),
            BackgroundSpec(4, 5_000.0, active_windows=((0.0, 1e6), (2e6, 3e6))),
        ),
        background_pool=BackgroundPoolSpec(
            random_count=4, per_free_channel=1, inter_packet_delay_us=20_000.0
        ),
        traffic=TrafficSpec(downlink=True, uplink=False, payload_bytes=500),
        spatial=SpatialSpec(flip_probability=0.05),
        duration_us=1e6,
        warmup_us=2e5,
        seed=42,
    )


def protocol_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        free_indices=(2, 3, 4, 7, 8),
        num_channels=30,
        mics=(MicSpec(7, sessions=((1e6, 2e6),)),),
        duration_us=1e6,
        seed=42,
    )


class TestScenarioSpec:
    def test_json_round_trip(self):
        for spec in (rich_scenario(), protocol_scenario()):
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_round_trip_preserves_canonical_json(self):
        spec = rich_scenario()
        assert ScenarioSpec.from_json(spec.to_json()).to_json() == spec.to_json()

    def test_lists_normalized_to_tuples(self):
        spec = ScenarioSpec(free_indices=[1, 2, 3])
        assert spec.free_indices == (1, 2, 3)
        assert spec == ScenarioSpec(free_indices=(1, 2, 3))

    def test_with_seed(self):
        spec = rich_scenario()
        reseeded = spec.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.with_seed(42) == spec

    def test_churn_and_windows_exclusive(self):
        with pytest.raises(SimulationError):
            BackgroundSpec(
                5, 10_000.0, churn=(1.0, 1.0), active_windows=((0.0, 1.0),)
            )

    def test_negative_pool_counts_raise(self):
        with pytest.raises(SimulationError):
            BackgroundPoolSpec(random_count=-1)

    def test_bad_flip_probability_raises(self):
        with pytest.raises(SimulationError):
            SpatialSpec(flip_probability=1.5)


class TestExperimentSpec:
    def test_json_round_trip_all_kinds(self):
        scenario = rich_scenario()
        specs = [
            ExperimentSpec(scenario, kind="whitefi", reeval_interval_us=1e6),
            ExperimentSpec(scenario, kind="static", channel=(3, 10.0)),
            ExperimentSpec(scenario, kind="opt", probe_duration_us=5e5),
            ExperimentSpec(protocol_scenario(), kind="protocol", run_until_us=9e6),
        ]
        for spec in specs:
            assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_unknown_kind_raises(self):
        with pytest.raises(SimulationError):
            ExperimentSpec(rich_scenario(), kind="quantum")

    def test_static_requires_channel(self):
        with pytest.raises(SimulationError):
            ExperimentSpec(rich_scenario(), kind="static")

    def test_mics_rejected_outside_protocol_runs(self):
        # Non-protocol kinds never instantiate the incumbent field; a
        # silent no-op would fake Section 5.3 conditions.
        with pytest.raises(SimulationError):
            ExperimentSpec(protocol_scenario(), kind="whitefi")

    def test_backgrounds_rejected_in_protocol_runs(self):
        with pytest.raises(SimulationError):
            ExperimentSpec(rich_scenario(), kind="protocol")

    def test_unknown_field_raises(self):
        spec = ExperimentSpec(rich_scenario())
        data = spec.to_dict()
        data["typo_field"] = 1
        with pytest.raises(SimulationError):
            ExperimentSpec.from_dict(data)

    def test_spec_hash_stable_and_seed_sensitive(self):
        spec = ExperimentSpec(rich_scenario())
        assert spec.spec_hash == ExperimentSpec.from_json(spec.to_json()).spec_hash
        assert spec.spec_hash != spec.with_seed(99).spec_hash

    def test_spec_hash_differs_across_kinds(self):
        scenario = rich_scenario()
        a = ExperimentSpec(scenario, kind="whitefi")
        b = ExperimentSpec(scenario, kind="opt")
        assert a.spec_hash != b.spec_hash


def plain_scenario(**overrides) -> ScenarioSpec:
    defaults = dict(free_indices=(2, 3, 4, 7, 8), seed=42)
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestDiscoveryKindSpec:
    def test_json_round_trip_and_canonical_form(self):
        spec = ExperimentSpec(
            plain_scenario(), kind="discovery", discovery_algorithm="j-sift"
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert ExperimentSpec.from_json(spec.to_json()).to_json() == spec.to_json()

    def test_spec_hash_stable_and_algorithm_sensitive(self):
        l_sift = ExperimentSpec(
            plain_scenario(), kind="discovery", discovery_algorithm="l-sift"
        )
        assert l_sift.spec_hash == ExperimentSpec.from_json(
            l_sift.to_json()
        ).spec_hash
        j_sift = ExperimentSpec(
            plain_scenario(), kind="discovery", discovery_algorithm="j-sift"
        )
        assert l_sift.spec_hash != j_sift.spec_hash
        assert l_sift.spec_hash != l_sift.with_seed(99).spec_hash

    def test_requires_algorithm(self):
        with pytest.raises(SimulationError, match="requires discovery_algorithm"):
            ExperimentSpec(plain_scenario(), kind="discovery")

    def test_unknown_algorithm_lists_known_ones(self):
        with pytest.raises(SimulationError, match="l-sift"):
            ExperimentSpec(
                plain_scenario(), kind="discovery", discovery_algorithm="warp"
            )

    def test_rejects_ignored_scenario_features(self):
        for overrides in (
            dict(backgrounds=(BackgroundSpec(2, 30_000.0),)),
            dict(mics=(MicSpec(7, sessions=((1e6, 2e6),)),)),
            dict(spatial=SpatialSpec(flip_probability=0.1)),
            dict(traffic=TrafficSpec(uplink=False)),
        ):
            with pytest.raises(SimulationError):
                ExperimentSpec(
                    plain_scenario(**overrides),
                    kind="discovery",
                    discovery_algorithm="l-sift",
                )

    def test_algorithm_rejected_on_other_kinds(self):
        with pytest.raises(SimulationError, match="discovery_algorithm"):
            ExperimentSpec(
                plain_scenario(), kind="whitefi", discovery_algorithm="l-sift"
            )


class TestSiftKindSpec:
    def sift_spec(self, **overrides) -> ExperimentSpec:
        defaults = dict(
            kind="sift",
            sift_width_mhz=10.0,
            sift_rate_mbps=0.5,
            sift_num_packets=20,
        )
        defaults.update(overrides)
        return ExperimentSpec(plain_scenario(), **defaults)

    def test_json_round_trip_and_canonical_form(self):
        spec = self.sift_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert ExperimentSpec.from_json(spec.to_json()).to_json() == spec.to_json()

    def test_numeric_knobs_normalized_to_one_canonical_form(self):
        # 5 vs 5.0 must share one canonical JSON form (one cache key).
        a = self.sift_spec(sift_width_mhz=20, sift_rate_mbps=1)
        b = self.sift_spec(sift_width_mhz=20.0, sift_rate_mbps=1.0)
        assert a == b
        assert a.spec_hash == b.spec_hash

    def test_spec_hash_stable_and_knob_sensitive(self):
        spec = self.sift_spec()
        assert spec.spec_hash == ExperimentSpec.from_json(spec.to_json()).spec_hash
        assert spec.spec_hash != self.sift_spec(sift_rate_mbps=1.0).spec_hash
        assert spec.spec_hash != self.sift_spec(sift_width_mhz=20.0).spec_hash
        assert spec.spec_hash != spec.with_seed(99).spec_hash

    def test_requires_width_and_rate(self):
        with pytest.raises(SimulationError, match="sift_width_mhz"):
            ExperimentSpec(plain_scenario(), kind="sift")
        with pytest.raises(SimulationError, match="sift_width_mhz"):
            ExperimentSpec(plain_scenario(), kind="sift", sift_rate_mbps=0.5)

    def test_rejects_invalid_knobs(self):
        with pytest.raises(SimulationError, match="not a WhiteFi width"):
            self.sift_spec(sift_width_mhz=7.0)
        with pytest.raises(SimulationError, match="sift_rate_mbps"):
            self.sift_spec(sift_rate_mbps=0.0)
        with pytest.raises(SimulationError, match="sift_num_packets"):
            self.sift_spec(sift_num_packets=0)

    def test_sift_knobs_rejected_on_other_kinds(self):
        with pytest.raises(SimulationError, match="sift_width_mhz"):
            ExperimentSpec(plain_scenario(), kind="opt", sift_width_mhz=10.0)
        with pytest.raises(SimulationError, match="sift_rate_mbps"):
            ExperimentSpec(
                plain_scenario(),
                kind="static",
                channel=(3, 5.0),
                sift_rate_mbps=0.5,
            )


class TestForeignKnobOwnership:
    # Every knob states intent when set; a kind that would silently
    # ignore it must reject it.
    def test_run_until_us_only_for_protocol(self):
        with pytest.raises(SimulationError, match="run_until_us"):
            ExperimentSpec(
                plain_scenario(), kind="static", channel=(3, 5.0), run_until_us=2e6
            )

    def test_whitefi_tuning_only_for_whitefi(self):
        with pytest.raises(SimulationError, match="hysteresis_margin"):
            ExperimentSpec(plain_scenario(), kind="opt", hysteresis_margin=0.0)
        with pytest.raises(SimulationError, match="ap_weight"):
            ExperimentSpec(
                plain_scenario(),
                kind="discovery",
                discovery_algorithm="l-sift",
                ap_weight=2.0,
            )
        # ...and the owner kind still accepts them.
        spec = ExperimentSpec(
            plain_scenario(), kind="whitefi", hysteresis_margin=0.0, ap_weight=2.0
        )
        assert spec.params.hysteresis_margin == 0.0


def test_custom_traffic_rejected_in_protocol_runs():
    scenario = ScenarioSpec(
        free_indices=(2, 3, 4),
        mics=(MicSpec(3, sessions=((1e6, 2e6),)),),
        traffic=TrafficSpec(uplink=False),
    )
    with pytest.raises(SimulationError):
        ExperimentSpec(scenario, kind="protocol")
