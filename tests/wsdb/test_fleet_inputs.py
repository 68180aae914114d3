"""Non-finite driver inputs fail fast, on both kinds and both engines.

An infinite speed never finishes its waypoint walk, a NaN one silently
diverges the engines, and NaN/inf durations, ticks and loads used to
escape as bare ``ValueError``/``OverflowError``.  The drivers and the
run-kind specs now reject them up front with ``SimulationError``.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.experiments import ExperimentSpec, ScenarioSpec
from repro.wsdb.cluster.querystorm import simulate_querystorm
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.mobility import ENGINES, simulate_roaming
from repro.wsdb.model import Metro
from repro.wsdb.service import WhiteSpaceDatabase

NON_FINITE = (math.inf, -math.inf, math.nan)

#: Driver inputs both kinds take, plus the storm-only load.
FLEET_INPUTS = ("speed_mps", "recheck_m", "duration_us", "tick_us")


def run_roaming(engine, **overrides):
    kwargs = dict(num_aps=3, num_clients=3, duration_us=5e6, seed=0)
    kwargs.update(overrides)
    db = WhiteSpaceDatabase(Metro(extent_m=3_000.0, num_channels=30))
    return simulate_roaming(db, engine=engine, **kwargs)


def run_querystorm(engine, **overrides):
    kwargs = dict(
        num_aps=3, num_clients=3, duration_us=5e6, seed=0, offered_qps=10.0
    )
    kwargs.update(overrides)
    router = ShardRouter(Metro(extent_m=3_000.0, num_channels=30), 4)
    return simulate_querystorm(router, engine=engine, **kwargs)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("name", FLEET_INPUTS)
class TestDriverInputs:
    def test_roaming_rejects(self, name, value, engine):
        with pytest.raises(SimulationError, match=name):
            run_roaming(engine, **{name: value})

    def test_querystorm_rejects(self, name, value, engine):
        with pytest.raises(SimulationError, match=name):
            run_querystorm(engine, **{name: value})


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_querystorm_rejects_offered_qps(value, engine):
    with pytest.raises(SimulationError, match="offered_qps"):
        run_querystorm(engine, offered_qps=value)


@pytest.mark.parametrize("engine", ENGINES)
def test_finite_inputs_still_run(engine):
    # The guard rejects only what it should: the same small worlds run.
    assert run_roaming(engine)["num_clients"] == 3
    assert run_querystorm(engine)["storm_queries"] > 0


def spec(kind, **knobs):
    base = dict(
        scenario=ScenarioSpec(
            free_indices=tuple(range(4, 18)), duration_us=10e6, seed=1
        ),
        kind=kind,
        citywide_aps=4,
        roaming_clients=3,
        citywide_extent_km=3.0,
    )
    if kind == "querystorm":
        base["storm_shards"] = 4
    base.update(knobs)
    return ExperimentSpec(**base)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
class TestSpecKnobs:
    @pytest.mark.parametrize("kind", ("roaming", "querystorm"))
    @pytest.mark.parametrize(
        "knob", ("roaming_speed_mps", "roaming_recheck_m")
    )
    def test_mobility_knob_rejected_at_build(self, knob, kind, value):
        with pytest.raises(SimulationError, match=knob):
            spec(kind, **{knob: value})

    @pytest.mark.parametrize(
        "knob", ("storm_offered_qps", "storm_rate_limit_qps")
    )
    def test_storm_knob_rejected_at_build(self, knob, value):
        with pytest.raises(SimulationError, match=knob):
            spec("querystorm", **{knob: value})
