"""Cross-commit pins for everything the wsdb drivers observe.

The other observer tests compare within one tree: scalar against
vector, or a run with sinks attached against one without.  A change
that shifts both engines the same way (a renamed span, a trace event
stamped with another cell, a histogram observed at another time)
passes all of them.  These tests pin a small run matrix to digests
recorded from a known-good tree, one digest per output section:

* ``report`` — the report without its ``telemetry``/``spans`` tables;
* ``trace`` — the recorder's events in canonical order;
* ``spans`` — the span table;
* ``metrics`` — the telemetry snapshot.

A deliberate change to any of these outputs regenerates the table with
``PYTHONPATH=src python tests/wsdb/test_observer_golden.py`` and says
why in its commit.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.telemetry import MetricsRegistry, SpanRecorder
from repro.traces.record import TraceRecorder
from repro.wsdb.citywide import simulate_citywide
from repro.wsdb.cluster.querystorm import simulate_querystorm
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.mobility import ENGINES, simulate_roaming
from repro.wsdb.model import generate_metro
from repro.wsdb.service import WhiteSpaceDatabase

SEED = 7

#: Span sampling modes: None runs with no span recorder attached.
SPAN_MODES = (None, "off", "head-3", "tail")

#: Frontend admission setups of the querystorm matrix.
ADMISSION = {
    # Push notifications, with shed requests answered from the stale store.
    "push-stale": dict(
        push=True, rate_limit_qps=110.0, burst_size=15, policy="serve-stale"
    ),
    # Shed requests refused, so re-checks defer and retry.
    "reject": dict(rate_limit_qps=110.0, burst_size=15, policy="reject"),
    # No token bucket at all.
    "unlimited": dict(),
}

#: A storm whose stamps fall between ticks, so storm requests wait in
#: the frontend and observe a nonzero enqueue-to-serve latency.
SUBTICK_STORM = tuple(
    (k * 37_000.0, (k * 211.0) % 3_000.0, (k * 587.0) % 3_000.0)
    for k in range(100)
)


def metro():
    return generate_metro(range(0, 10), seed=SEED, extent_m=3_000.0)


def sinks(spans):
    """(recorder, telemetry, spans) for one observed run.

    The recorder is read in memory and never closed, so it writes no
    file.
    """
    return (
        TraceRecorder("unused.jsonl.gz"),
        MetricsRegistry(),
        None if spans is None else SpanRecorder(spans),
    )


def run_roaming(engine, spans, observed=True):
    recorder, telemetry, span_rec = sinks(spans) if observed else (None,) * 3
    # Default 60 s TTL: a violation window recovers mid-run and another
    # is still open when the run ends.
    report = simulate_roaming(
        WhiteSpaceDatabase(metro()),
        num_aps=15,
        num_clients=30,
        duration_us=4_000_000.0,
        tick_us=250_000.0,
        seed=SEED,
        mic_events=6,
        engine=engine,
        recorder=recorder,
        telemetry=telemetry,
        spans=span_rec,
    )
    return report, recorder


def run_querystorm(engine, spans, admission, observed=True, storm=None):
    recorder, telemetry, span_rec = sinks(spans) if observed else (None,) * 3
    report = simulate_querystorm(
        # 500 m cells, so storm requests share cells and coalesce.
        ShardRouter(
            metro(), num_shards=4, ttl_us=2_000_000.0, cache_resolution_m=500.0
        ),
        num_aps=15,
        num_clients=30,
        duration_us=4_000_000.0,
        tick_us=100_000.0,
        seed=SEED,
        offered_qps=100.0,
        mic_events=10,
        engine=engine,
        storm_source=storm,
        recorder=recorder,
        telemetry=telemetry,
        spans=span_rec,
        **ADMISSION[admission],
    )
    return report, recorder


def run_citywide(observed=True):
    recorder, telemetry, _ = sinks(None) if observed else (None,) * 3
    report = simulate_citywide(
        WhiteSpaceDatabase(metro()),
        num_aps=25,
        duration_us=60e6,
        seed=SEED,
        mic_events=6,
        recorder=recorder,
        telemetry=telemetry,
    )
    return report, recorder


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sections(report, recorder) -> dict[str, str]:
    """One digest per observed output section of a run."""
    out = {
        "report": digest(
            {k: v for k, v in report.items() if k not in ("telemetry", "spans")}
        ),
        "metrics": digest(report.get("telemetry")),
        "spans": digest(report.get("spans")),
    }
    if recorder is not None:
        out["trace"] = digest([e.to_dict() for e in recorder.sorted_events()])
    return out


def cases():
    """Every (case id, zero-argument run) of the matrix."""
    for engine in ENGINES:
        for spans in SPAN_MODES:
            yield (
                f"roaming-{engine}-{spans}",
                lambda e=engine, s=spans: run_roaming(e, s),
            )
            for admission in ADMISSION:
                yield (
                    f"querystorm-{engine}-{spans}-{admission}",
                    lambda e=engine, s=spans, a=admission: run_querystorm(
                        e, s, a
                    ),
                )
        yield (
            f"querystorm-{engine}-subtick",
            lambda e=engine: run_querystorm(
                e, "off", "reject", storm=SUBTICK_STORM
            ),
        )
    yield "citywide", run_citywide


CASES = dict(cases())

GOLDEN: dict[str, dict[str, str]] = {
    "citywide": {
        "report": "db0fb2527dcab35b",
        "trace": "227a1c644617acfb",
        "spans": "74234e98afe7498f",
        "metrics": "5b015c1edc05792c",
    },
    "querystorm-scalar-None-push-stale": {
        "report": "bacd34144c9aca25",
        "trace": "f09271e64d9d49e8",
        "spans": "74234e98afe7498f",
        "metrics": "99cab6a9df8a67ad",
    },
    "querystorm-scalar-None-reject": {
        "report": "967b62cc2cdff18b",
        "trace": "318089811022cf5f",
        "spans": "74234e98afe7498f",
        "metrics": "752d61d5cd83df82",
    },
    "querystorm-scalar-None-unlimited": {
        "report": "c0d7bf82291757e3",
        "trace": "2a07db942bc082da",
        "spans": "74234e98afe7498f",
        "metrics": "3bb6c39ce416e993",
    },
    "querystorm-scalar-head-3-push-stale": {
        "report": "bacd34144c9aca25",
        "trace": "f09271e64d9d49e8",
        "spans": "e1909b0a23b4e34a",
        "metrics": "99cab6a9df8a67ad",
    },
    "querystorm-scalar-head-3-reject": {
        "report": "967b62cc2cdff18b",
        "trace": "318089811022cf5f",
        "spans": "bb597032b7c56b53",
        "metrics": "752d61d5cd83df82",
    },
    "querystorm-scalar-head-3-unlimited": {
        "report": "c0d7bf82291757e3",
        "trace": "2a07db942bc082da",
        "spans": "06e9affc4e278529",
        "metrics": "3bb6c39ce416e993",
    },
    "querystorm-scalar-off-push-stale": {
        "report": "bacd34144c9aca25",
        "trace": "f09271e64d9d49e8",
        "spans": "c0946792c7ea6895",
        "metrics": "99cab6a9df8a67ad",
    },
    "querystorm-scalar-off-reject": {
        "report": "967b62cc2cdff18b",
        "trace": "318089811022cf5f",
        "spans": "4406c37b05df6c58",
        "metrics": "752d61d5cd83df82",
    },
    "querystorm-scalar-off-unlimited": {
        "report": "c0d7bf82291757e3",
        "trace": "2a07db942bc082da",
        "spans": "3e0f7056ae24249f",
        "metrics": "3bb6c39ce416e993",
    },
    "querystorm-scalar-subtick": {
        "report": "eb5cf9fc0348fede",
        "trace": "aaf22c09ee741995",
        "spans": "d5948592994db20b",
        "metrics": "d407521cd4a5592f",
    },
    "querystorm-scalar-tail-push-stale": {
        "report": "bacd34144c9aca25",
        "trace": "f09271e64d9d49e8",
        "spans": "4d5b4bd500a6596e",
        "metrics": "99cab6a9df8a67ad",
    },
    "querystorm-scalar-tail-reject": {
        "report": "967b62cc2cdff18b",
        "trace": "318089811022cf5f",
        "spans": "95b4a8fdff2267bd",
        "metrics": "752d61d5cd83df82",
    },
    "querystorm-scalar-tail-unlimited": {
        "report": "c0d7bf82291757e3",
        "trace": "2a07db942bc082da",
        "spans": "50990cc9792b8d87",
        "metrics": "3bb6c39ce416e993",
    },
    "querystorm-vector-None-push-stale": {
        "report": "bacd34144c9aca25",
        "trace": "f09271e64d9d49e8",
        "spans": "74234e98afe7498f",
        "metrics": "99cab6a9df8a67ad",
    },
    "querystorm-vector-None-reject": {
        "report": "967b62cc2cdff18b",
        "trace": "318089811022cf5f",
        "spans": "74234e98afe7498f",
        "metrics": "752d61d5cd83df82",
    },
    "querystorm-vector-None-unlimited": {
        "report": "c0d7bf82291757e3",
        "trace": "2a07db942bc082da",
        "spans": "74234e98afe7498f",
        "metrics": "3bb6c39ce416e993",
    },
    "querystorm-vector-head-3-push-stale": {
        "report": "bacd34144c9aca25",
        "trace": "f09271e64d9d49e8",
        "spans": "e1909b0a23b4e34a",
        "metrics": "99cab6a9df8a67ad",
    },
    "querystorm-vector-head-3-reject": {
        "report": "967b62cc2cdff18b",
        "trace": "318089811022cf5f",
        "spans": "bb597032b7c56b53",
        "metrics": "752d61d5cd83df82",
    },
    "querystorm-vector-head-3-unlimited": {
        "report": "c0d7bf82291757e3",
        "trace": "2a07db942bc082da",
        "spans": "06e9affc4e278529",
        "metrics": "3bb6c39ce416e993",
    },
    "querystorm-vector-off-push-stale": {
        "report": "bacd34144c9aca25",
        "trace": "f09271e64d9d49e8",
        "spans": "c0946792c7ea6895",
        "metrics": "99cab6a9df8a67ad",
    },
    "querystorm-vector-off-reject": {
        "report": "967b62cc2cdff18b",
        "trace": "318089811022cf5f",
        "spans": "4406c37b05df6c58",
        "metrics": "752d61d5cd83df82",
    },
    "querystorm-vector-off-unlimited": {
        "report": "c0d7bf82291757e3",
        "trace": "2a07db942bc082da",
        "spans": "3e0f7056ae24249f",
        "metrics": "3bb6c39ce416e993",
    },
    "querystorm-vector-subtick": {
        "report": "eb5cf9fc0348fede",
        "trace": "aaf22c09ee741995",
        "spans": "d5948592994db20b",
        "metrics": "d407521cd4a5592f",
    },
    "querystorm-vector-tail-push-stale": {
        "report": "bacd34144c9aca25",
        "trace": "f09271e64d9d49e8",
        "spans": "4d5b4bd500a6596e",
        "metrics": "99cab6a9df8a67ad",
    },
    "querystorm-vector-tail-reject": {
        "report": "967b62cc2cdff18b",
        "trace": "318089811022cf5f",
        "spans": "95b4a8fdff2267bd",
        "metrics": "752d61d5cd83df82",
    },
    "querystorm-vector-tail-unlimited": {
        "report": "c0d7bf82291757e3",
        "trace": "2a07db942bc082da",
        "spans": "50990cc9792b8d87",
        "metrics": "3bb6c39ce416e993",
    },
    "roaming-scalar-None": {
        "report": "708d411c10d4db52",
        "trace": "c4b69322ad23068f",
        "spans": "74234e98afe7498f",
        "metrics": "ded294511a816e20",
    },
    "roaming-scalar-head-3": {
        "report": "708d411c10d4db52",
        "trace": "c4b69322ad23068f",
        "spans": "6c6f32c2e918ac15",
        "metrics": "ded294511a816e20",
    },
    "roaming-scalar-off": {
        "report": "708d411c10d4db52",
        "trace": "c4b69322ad23068f",
        "spans": "10307611d6e14ac2",
        "metrics": "ded294511a816e20",
    },
    "roaming-scalar-tail": {
        "report": "708d411c10d4db52",
        "trace": "c4b69322ad23068f",
        "spans": "a23a8eb5a553419d",
        "metrics": "ded294511a816e20",
    },
    "roaming-vector-None": {
        "report": "708d411c10d4db52",
        "trace": "c4b69322ad23068f",
        "spans": "74234e98afe7498f",
        "metrics": "ded294511a816e20",
    },
    "roaming-vector-head-3": {
        "report": "708d411c10d4db52",
        "trace": "c4b69322ad23068f",
        "spans": "6c6f32c2e918ac15",
        "metrics": "ded294511a816e20",
    },
    "roaming-vector-off": {
        "report": "708d411c10d4db52",
        "trace": "c4b69322ad23068f",
        "spans": "10307611d6e14ac2",
        "metrics": "ded294511a816e20",
    },
    "roaming-vector-tail": {
        "report": "708d411c10d4db52",
        "trace": "c4b69322ad23068f",
        "spans": "a23a8eb5a553419d",
        "metrics": "ded294511a816e20",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_observed_outputs_match_golden(case):
    assert sections(*CASES[case]()) == GOLDEN[case]


@pytest.mark.parametrize("engine", ENGINES)
def test_unobserved_reports_match_golden(engine):
    """With every sink off, reports still equal the observed runs'."""
    report, _ = run_roaming(engine, None, observed=False)
    assert sections(report, None)["report"] == (
        GOLDEN[f"roaming-{engine}-None"]["report"]
    )
    for admission in ADMISSION:
        report, _ = run_querystorm(engine, None, admission, observed=False)
        assert sections(report, None)["report"] == (
            GOLDEN[f"querystorm-{engine}-None-{admission}"]["report"]
        )


def test_unobserved_citywide_matches_golden():
    report, _ = run_citywide(observed=False)
    assert sections(report, None)["report"] == GOLDEN["citywide"]["report"]


if __name__ == "__main__":
    print("GOLDEN: dict[str, dict[str, str]] = {")
    for case in sorted(CASES):
        got = sections(*CASES[case]())
        print(f'    "{case}": {{')
        for section in ("report", "trace", "spans", "metrics"):
            print(f'        "{section}": "{got[section]}",')
        print("    },")
    print("}")
