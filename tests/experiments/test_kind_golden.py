"""Cross-commit pins for every built-in run kind's archived result.

The parity and round-trip tests compare runs within one tree.  These
tests pin one small spec per built-in kind (plus the vector/spans and
serve-stale variants of the wsdb kinds) to a digest of its
``run_experiment`` result JSON recorded from a known-good tree.

``spec_hash`` is removed everywhere before hashing (OPT nests one per
baseline record), so a change to the spec encoding alone does not move
a digest; a change to what any kind simulates or reports does.  The
replay case also drops its ``storm_trace`` metric, which echoes a
temporary file path.

A deliberate change to a kind's output regenerates the table with
``PYTHONPATH=src python tests/experiments/test_kind_golden.py`` and
says why in its commit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile

import pytest

from repro.experiments import (
    BackgroundPoolSpec,
    ExperimentSpec,
    MicSpec,
    ScenarioSpec,
    run_experiment,
)
from repro.experiments.scenario import ScenarioBuilder
from repro.traces.record import TraceRecorder
from repro.wsdb.cluster import simulate_querystorm

FREE = tuple(range(5, 12))
PROTOCOL_FREE = (5, 6, 7, 8, 9, 12, 13, 14, 18, 27)
WSDB_FREE = tuple(range(4, 18))


def world(**overrides) -> ScenarioSpec:
    knobs = dict(
        free_indices=FREE, duration_us=600_000.0, warmup_us=100_000.0, seed=7
    )
    knobs.update(overrides)
    return ScenarioSpec(**knobs)


def wsdb_world() -> ScenarioSpec:
    return ScenarioSpec(free_indices=WSDB_FREE, duration_us=20e6, seed=11)


#: The deployment every querystorm/replay case shares.
STORM = dict(
    citywide_aps=6,
    citywide_extent_km=6.0,
    citywide_mic_events=4,
    roaming_clients=8,
    storm_shards=2,
    storm_offered_qps=40.0,
    storm_push=True,
)


def record_storm(path: pathlib.Path) -> None:
    """Record the plain querystorm case's query stream to *path*."""
    router = ScenarioBuilder(wsdb_world()).build_wsdb_cluster(
        num_shards=STORM["storm_shards"], extent_m=6_000.0
    )
    with TraceRecorder(path) as recorder:
        simulate_querystorm(
            router,
            num_aps=STORM["citywide_aps"],
            num_clients=STORM["roaming_clients"],
            duration_us=20e6,
            seed=11,
            offered_qps=STORM["storm_offered_qps"],
            push=True,
            mic_events=STORM["citywide_mic_events"],
            recorder=recorder,
        )


def specs(trace: pathlib.Path) -> dict[str, ExperimentSpec]:
    """Every case of the matrix; *trace* feeds the replay case."""
    churny = world(
        background_pool=BackgroundPoolSpec(
            per_free_channel=1,
            inter_packet_delay_us=20_000.0,
            churn=(200_000.0, 200_000.0),
        ),
        duration_us=1_200_000.0,
    )
    return {
        "static": ExperimentSpec(
            world(),
            kind="static",
            channel=(7, 10.0),
            timeline_interval_us=200_000.0,
        ),
        "whitefi": ExperimentSpec(
            churny,
            kind="whitefi",
            reeval_interval_us=300_000.0,
            timeline_interval_us=400_000.0,
        ),
        "opt": ExperimentSpec(world(), kind="opt", probe_duration_us=200_000.0),
        "protocol": ExperimentSpec(
            world(
                free_indices=PROTOCOL_FREE,
                mics=(MicSpec(7, sessions=((2_000_000.0, 1e12),)),),
                seed=3,
            ),
            kind="protocol",
            run_until_us=8_000_000.0,
        ),
        "discovery": ExperimentSpec(
            world(), kind="discovery", discovery_algorithm="j-sift"
        ),
        "sift": ExperimentSpec(
            world(),
            kind="sift",
            sift_width_mhz=10.0,
            sift_rate_mbps=1.0,
            sift_num_packets=20,
        ),
        "citywide": ExperimentSpec(
            wsdb_world(),
            kind="citywide",
            citywide_aps=12,
            citywide_extent_km=8.0,
            citywide_mic_events=3,
            telemetry="on",
        ),
        "roaming": ExperimentSpec(
            wsdb_world(),
            kind="roaming",
            citywide_aps=6,
            citywide_extent_km=4.0,
            citywide_mic_events=3,
            roaming_clients=20,
        ),
        "roaming-vector-spans": ExperimentSpec(
            wsdb_world(),
            kind="roaming",
            citywide_aps=6,
            citywide_extent_km=4.0,
            citywide_mic_events=3,
            roaming_clients=20,
            roaming_speed_mps=30.0,
            engine="vector",
            spans="on",
            span_sample="head-2",
        ),
        "querystorm": ExperimentSpec(wsdb_world(), kind="querystorm", **STORM),
        "querystorm-serve-stale": ExperimentSpec(
            wsdb_world(),
            kind="querystorm",
            storm_rate_limit_qps=20.0,
            storm_shed_policy="serve-stale",
            telemetry="on",
            **STORM,
        ),
        "replay": ExperimentSpec(
            wsdb_world(), kind="replay", storm_trace=str(trace), **STORM
        ),
    }


def scrub(obj):
    """*obj* without any ``spec_hash`` key or ``storm_trace`` metric."""
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items() if k != "spec_hash"}
    if isinstance(obj, list):
        return [
            scrub(v)
            for v in obj
            if not (isinstance(v, list) and v[:1] == ["storm_trace"])
        ]
    return obj


def digest(result) -> str:
    text = json.dumps(
        scrub(json.loads(result.to_json())),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


GOLDEN: dict[str, str] = {
    "citywide": "6597cf39eaf4a1e0",
    "discovery": "21746da1e312eb73",
    "opt": "b2c29e53387a5a68",
    "protocol": "f301c901075a8769",
    "querystorm": "e6e8d5d023ad6642",
    "querystorm-serve-stale": "4dec80deede29bb6",
    "replay": "ab6021cc3c94981a",
    "roaming": "5696cec6a033e1ce",
    "roaming-vector-spans": "3ae80037e25531ec",
    "sift": "77921692d2f46ae3",
    "static": "cfa4d496adb557eb",
    "whitefi": "3c26d1da4c183bb9",
}


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    trace = tmp_path_factory.mktemp("kind-golden") / "storm.jsonl.gz"
    record_storm(trace)
    return specs(trace)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_result_matches_golden(cases, case):
    assert digest(run_experiment(cases[case])) == GOLDEN[case]


def test_golden_covers_every_case(tmp_path):
    assert sorted(GOLDEN) == sorted(specs(tmp_path / "unused.jsonl.gz"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        trace = pathlib.Path(tmp) / "storm.jsonl.gz"
        record_storm(trace)
        print("GOLDEN: dict[str, str] = {")
        for case, spec in sorted(specs(trace).items()):
            print(f'    "{case}": "{digest(run_experiment(spec))}",')
        print("}")
