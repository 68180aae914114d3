"""Tests for per-kind parameter blocks: each RunKind owns its knobs.

A spec is ``scenario + kind + params``.  The flat keyword constructor
builds the kind's block, the block checks every knob at spec build, and
the registry is the one record of which kinds own which knob.
"""

import dataclasses
import json
import math

import pytest

from repro.errors import SimulationError
from repro.experiments import (
    ExperimentSpec,
    RunKind,
    ScenarioSpec,
    register_run_kind,
    run_experiment,
    unregister_run_kind,
)
from repro.experiments.kinds import QuerystormParams, SiftParams
from repro.experiments.registry import KindParams, assemble_result, get_run_kind
from repro.experiments.scenario import ScenarioBuilder
from repro.wsdb.citywide import simulate_citywide
from repro.wsdb.cluster import simulate_querystorm
from repro.wsdb.mobility import simulate_roaming

NAN = math.nan
INF = math.inf
FREE = tuple(range(4, 18))


def scenario() -> ScenarioSpec:
    return ScenarioSpec(free_indices=FREE, duration_us=1e6, seed=5)


#: The smallest legal knob set of every built-in kind.
BASE = {
    "static": dict(channel=(7, 10.0)),
    "whitefi": {},
    "opt": {},
    "protocol": {},
    "discovery": dict(discovery_algorithm="l-sift"),
    "sift": dict(sift_width_mhz=10.0, sift_rate_mbps=1.0),
    "citywide": dict(citywide_aps=4),
    "roaming": dict(citywide_aps=4, roaming_clients=3),
    "querystorm": dict(citywide_aps=4, storm_shards=2),
    "replay": dict(citywide_aps=4, storm_shards=2, storm_trace="t.jsonl.gz"),
}


def spec(kind: str, **knobs) -> ExperimentSpec:
    return ExperimentSpec(scenario(), kind=kind, **{**BASE[kind], **knobs})


class TestSpecShape:
    def test_fields_are_scenario_kind_params(self):
        names = [f.name for f in dataclasses.fields(ExperimentSpec)]
        assert names == ["scenario", "kind", "params"]

    @pytest.mark.parametrize("kind", sorted(BASE))
    def test_json_holds_only_the_kinds_knobs(self, kind):
        built = spec(kind)
        data = json.loads(built.to_json())
        knobs = {f.name for f in dataclasses.fields(built.params)}
        assert set(data) == {"scenario", "kind"} | knobs
        assert ExperimentSpec.from_json(built.to_json()) == built

    def test_params_block_accepted_directly(self):
        built = spec("sift", sift_num_packets=30)
        again = ExperimentSpec(scenario(), kind="sift", params=built.params)
        assert again == built
        assert again.spec_hash == built.spec_hash

    def test_params_block_of_another_kind_rejected(self):
        with pytest.raises(SimulationError, match="SiftParams"):
            ExperimentSpec(scenario(), kind="sift", params=spec("opt").params)
        with pytest.raises(SimulationError, match="no flat knobs"):
            ExperimentSpec(
                scenario(),
                kind="sift",
                params=spec("sift").params,
                sift_num_packets=3,
            )

    def test_none_knob_means_the_block_default(self):
        assert spec("roaming", engine=None) == spec("roaming")
        assert spec("roaming").params.engine == "scalar"
        assert spec("querystorm").params.storm_shed_policy == "reject"
        assert spec("citywide").params.citywide_extent_km == 20.0

    def test_foreign_tuning_knob_rejected(self):
        with pytest.raises(SimulationError, match="does not use reeval"):
            spec("opt", reeval_interval_us=1e6)
        with pytest.raises(SimulationError, match="does not use probe"):
            spec("whitefi", probe_duration_us=1e6)

    def test_required_knob_named(self):
        with pytest.raises(SimulationError, match="'static' requires channel"):
            ExperimentSpec(scenario(), kind="static")

    def test_knobs_coerced_to_one_canonical_form(self):
        assert spec("static", channel=[7.0, 10]).params.channel == (7, 10.0)
        assert spec("citywide", citywide_aps=4.0).params.citywide_aps == 4

    def test_uncoercible_knob_rejected(self):
        with pytest.raises(SimulationError, match="sift_num_packets"):
            spec("sift", sift_num_packets="many")
        with pytest.raises(SimulationError, match="channel"):
            spec("static", channel=(7,))


class TestPaperKnobChecks:
    """Inputs that would hang a paper kind's run, crash it mid-run, or
    run it silently to nonsense."""

    @pytest.mark.parametrize("value", [0.0, NAN, -1.0, INF])
    def test_reeval_interval(self, value):
        with pytest.raises(SimulationError, match="reeval_interval_us"):
            spec("whitefi", reeval_interval_us=value)

    @pytest.mark.parametrize("kind", ["static", "whitefi"])
    @pytest.mark.parametrize("value", [0.0, NAN, -5.0])
    def test_timeline_interval(self, kind, value):
        with pytest.raises(SimulationError, match="timeline_interval_us"):
            spec(kind, timeline_interval_us=value)

    @pytest.mark.parametrize("value", [0.0, NAN])
    def test_probe_duration(self, value):
        with pytest.raises(SimulationError, match="probe_duration_us"):
            spec("opt", probe_duration_us=value)

    @pytest.mark.parametrize("value", [NAN, -1.0])
    def test_run_until(self, value):
        with pytest.raises(SimulationError, match="run_until_us"):
            spec("protocol", run_until_us=value)

    def test_hysteresis_margin(self):
        with pytest.raises(SimulationError, match="hysteresis_margin"):
            spec("whitefi", hysteresis_margin=NAN)
        assert spec("whitefi", hysteresis_margin=0.0).params.hysteresis_margin == 0

    def test_unknown_aggregation(self):
        with pytest.raises(SimulationError, match="unknown aggregation"):
            spec("whitefi", aggregation="mean")
        assert spec("whitefi", aggregation="min").params.aggregation == "min"

    def test_static_channel_width(self):
        with pytest.raises(SimulationError, match="not a WhiteFi width"):
            spec("static", channel=(7, 7.0))


class TestWsdbAndSiftKnobChecks:
    @pytest.mark.parametrize("kind", ["citywide", "roaming", "querystorm"])
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_extent_must_be_finite(self, kind, value):
        with pytest.raises(SimulationError, match="citywide_extent_km"):
            spec(kind, citywide_extent_km=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_sift_rate_must_be_finite(self, value):
        with pytest.raises(SimulationError, match="sift_rate_mbps"):
            spec("sift", sift_rate_mbps=value)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("roaming_speed_mps", INF),
            ("roaming_recheck_m", NAN),
            ("storm_rate_limit_qps", NAN),
            ("storm_offered_qps", INF),
            ("storm_offered_qps", -1.0),
        ],
    )
    def test_querystorm_rates_must_be_finite(self, knob, value):
        with pytest.raises(SimulationError, match=knob):
            spec("querystorm", **{knob: value})

    def test_blocks_check_when_built_directly(self):
        with pytest.raises(SimulationError, match="sift_rate_mbps"):
            SiftParams(sift_width_mhz=5.0, sift_rate_mbps=NAN)
        with pytest.raises(SimulationError, match="engine"):
            QuerystormParams(citywide_aps=1, storm_shards=1, engine="gpu")


class TestBlockDefaultsMatchDrivers:
    """A knob left unset runs exactly what the driver's own default
    runs: each concrete block default equals the driver default."""

    def expected(self, built, key, simulate, builder, **knobs):
        scenario = built.scenario
        report = simulate(
            builder(ScenarioBuilder(scenario)),
            duration_us=scenario.duration_us,
            seed=scenario.seed,
            **knobs,
        )
        raw = {"spec": built, key: report}
        return assemble_result(get_run_kind(built.kind), built, raw).to_json()

    def test_citywide(self):
        built = spec("citywide")
        assert run_experiment(built).to_json() == self.expected(
            built,
            "city",
            simulate_citywide,
            lambda b: b.build_citywide_db(),
            num_aps=4,
        )

    def test_roaming(self):
        built = spec("roaming")
        assert run_experiment(built).to_json() == self.expected(
            built,
            "roaming",
            simulate_roaming,
            lambda b: b.build_citywide_db(),
            num_aps=4,
            num_clients=3,
        )

    def test_querystorm(self):
        built = spec("querystorm")
        assert run_experiment(built).to_json() == self.expected(
            built,
            "storm",
            simulate_querystorm,
            lambda b: b.build_wsdb_cluster(num_shards=2),
            num_aps=4,
            num_clients=0,
        )


@dataclasses.dataclass(frozen=True, kw_only=True)
class WarpParams(KindParams):
    warp_factor: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.warp_factor > 9:
            raise SimulationError("warp_factor must be <= 9")


class WarpKind(RunKind):
    name = "warp"
    params = WarpParams

    def execute(self, spec):
        return {"spec": spec}


class BareKind(RunKind):
    name = "bare"

    def execute(self, spec):
        return {"spec": spec}


@pytest.fixture
def warp_kind():
    kind = register_run_kind(WarpKind())
    yield kind
    unregister_run_kind("warp")


class TestRegistryOwnership:
    def test_plugin_knob_accepted_by_its_kind(self, warp_kind):
        built = ExperimentSpec(scenario(), kind="warp", warp_factor=3)
        assert built.params == WarpParams(warp_factor=3.0)
        assert ExperimentSpec.from_json(built.to_json()) == built
        assert run_experiment(built).kind == "warp"
        with pytest.raises(SimulationError, match="<= 9"):
            ExperimentSpec(scenario(), kind="warp", warp_factor=10)

    def test_other_kinds_name_the_plugin_as_owner(self, warp_kind):
        with pytest.raises(
            SimulationError,
            match="kind 'whitefi' does not use warp_factor; "
            "it only applies to kind 'warp'",
        ):
            spec("whitefi", warp_factor=2.0)

    def test_builtin_owner_lists_come_from_the_registry(self):
        with pytest.raises(
            SimulationError,
            match="it only applies to kind 'querystorm' / 'replay' / 'roaming'$",
        ):
            spec("citywide", engine="vector")

    def test_unregistered_knob_becomes_unknown(self):
        register_run_kind(WarpKind())
        unregister_run_kind("warp")
        with pytest.raises(SimulationError, match="unknown experiment spec"):
            spec("whitefi", warp_factor=2.0)

    def test_default_block_rejects_every_knob(self):
        register_run_kind(BareKind())
        try:
            assert ExperimentSpec(scenario(), kind="bare").params == KindParams()
            with pytest.raises(SimulationError, match="'bare' does not use"):
                ExperimentSpec(scenario(), kind="bare", channel=(7, 10.0))
        finally:
            unregister_run_kind("bare")
