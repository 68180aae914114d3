"""Runs with a wall-clock ``PhaseProfiler`` attached.

Profiling observes only: a report with a profiler attached equals the
report without one, on both kinds and both engines.  Both engines run
one driver, so they also time the same tick phases.
"""

import pytest

from repro.telemetry.profiler import PhaseProfiler
from repro.wsdb.cluster.querystorm import simulate_querystorm
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.mobility import ENGINES, simulate_roaming
from repro.wsdb.model import generate_metro
from repro.wsdb.service import WhiteSpaceDatabase

TICK_PHASES = {
    "advance",
    "recheck-detect",
    "batch-lookup",
    "associate",
    "compliance",
}


def run_roaming(engine, profiler=None):
    metro = generate_metro(range(0, 10), seed=5, extent_m=3_000.0)
    return simulate_roaming(
        WhiteSpaceDatabase(metro),
        num_aps=12,
        num_clients=25,
        duration_us=3e6,
        tick_us=100_000,
        seed=5,
        mic_events=2,
        engine=engine,
        profiler=profiler,
    )


def run_querystorm(engine, profiler=None):
    metro = generate_metro(range(0, 10), seed=5, extent_m=3_000.0)
    return simulate_querystorm(
        ShardRouter(metro, num_shards=4),
        num_aps=12,
        num_clients=25,
        duration_us=3e6,
        tick_us=100_000,
        seed=5,
        offered_qps=100.0,
        rate_limit_qps=110.0,
        burst_size=15,
        push=True,
        mic_events=2,
        engine=engine,
        profiler=profiler,
    )


RUNS = {"roaming": run_roaming, "querystorm": run_querystorm}


@pytest.mark.parametrize("kind", sorted(RUNS))
@pytest.mark.parametrize("engine", ENGINES)
def test_report_identical_with_profiler(kind, engine):
    run = RUNS[kind]
    profiler = PhaseProfiler()
    assert run(engine, profiler) == run(engine)
    assert set(profiler.seconds()) == TICK_PHASES


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_engines_record_same_phases(kind):
    calls = {}
    for engine in ENGINES:
        profiler = PhaseProfiler()
        RUNS[kind](engine, profiler)
        calls[engine] = {
            name: row["calls"] for name, row in profiler.report().items()
        }
    assert calls["scalar"] == calls["vector"]
