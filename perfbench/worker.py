"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage::

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

Modes:

* ``measure`` -- set up, run once untraced, report host times, peak
  RSS, the report digest and invariant failures;
* ``check``   -- the full-size run again with the goodput probe and the
  served-response sampler attached: the guard metrics, the brute-force
  safety oracle over the sample, and the reduced-size scalar-vs-vector
  parity runs;
* ``traced``  -- the full-size run with every layer wrapped in timing
  spans; per-layer metrics, span table written under ``.perfbench/``.

The last stdout line is one JSON object.  ``setup_s`` is measured from
the first line of this file, so it includes the imports of ``numpy``
and ``repro``.  Every mode also times ``host_probe_s`` -- a fixed
pure-Python routine that touches no program code -- right before and
right after the run; ``run.py`` divides host times by it (see
README.md, "Host speed").
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def host_probe_s() -> float:
    """Seconds a fixed pure-Python routine takes on this host right now."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(60_000):
        key = (i % 331, i % 127)
        table[key] = table.get(key, 0) + 1
        acc += math.sqrt(i + 1.0)
    rows = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    json.loads(json.dumps(rows))
    return time.perf_counter() - start

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: Wrapped public functions: (module, owner attribute or None, attribute,
#: span name).  An owner names the class whose method is wrapped; None
#: wraps the module attribute itself, on the module its caller imported
#: it into.
TRACED = (
    ("repro.wsdb.vector", None, "spawn_clients", "wsdb.mobility.spawn_clients"),
    ("repro.wsdb.vector", "VectorFleet", "advance", "wsdb.vector.advance"),
    ("repro.wsdb.vector", "VectorFleet", "recheck_due", "wsdb.vector.recheck_due"),
    ("repro.wsdb.vector", "VectorFleet", "commit_recheck", "wsdb.vector.commit_recheck"),
    ("repro.wsdb.vector", "VectorFleet", "associate_and_score",
     "wsdb.vector.associate_and_score"),
    ("repro.wsdb.vector", "VectorFleet", "set_snapshot", "wsdb.vector.set_snapshot"),
    ("repro.wsdb.service", "WhiteSpaceDatabase", "channels_in_cells",
     "wsdb.service.channels_in_cells"),
    ("repro.wsdb.service", "WhiteSpaceDatabase", "channels_in_cell",
     "wsdb.service.channels_in_cell"),
    ("repro.wsdb.service", "WhiteSpaceDatabase", "register_mic",
     "wsdb.service.register_mic"),
    ("repro.wsdb.index", "GridIndex", "covering_rect", "wsdb.index.covering_rect"),
    ("repro.wsdb.cluster.frontend", "BatchFrontend", "query",
     "wsdb.cluster.frontend.query"),
    ("repro.wsdb.cluster.frontend", "BatchFrontend", "query_batch",
     "wsdb.cluster.frontend.query_batch"),
    ("repro.wsdb.cluster.frontend", "BatchFrontend", "register_mic",
     "wsdb.cluster.frontend.register_mic"),
    ("repro.wsdb.cluster.router", "ShardRouter", "register_mic",
     "wsdb.cluster.router.register_mic"),
    ("repro.wsdb.cluster.push", "PushRegistry", "subscribe", "wsdb.cluster.push.subscribe"),
    ("repro.wsdb.cluster.push", "PushRegistry", "notify_zone",
     "wsdb.cluster.push.notify_zone"),
    ("repro.wsdb.vector", None, "boot_aps", "wsdb.citywide.boot_aps"),
    ("repro.wsdb.vector", None, "displace_covered_aps", "wsdb.citywide.displace_covered_aps"),
    ("repro.wsdb.vector", None, "snapshot_assigned_aps",
     "wsdb.citywide.snapshot_assigned_aps"),
    ("repro.sim.engine", "Engine", "run_until", "sim.engine.run_until"),
    ("repro.sim.medium", "Medium", "begin", "sim.medium.begin"),
    ("repro.sim.medium", "Medium", "is_busy", "sim.medium.is_busy"),
    ("repro.sim.sensors", "GroundTruthSensor", "observe", "sim.sensors.observe"),
    ("repro.core.assignment", "ChannelAssigner", "evaluate", "core.assignment.evaluate"),
    ("repro.experiments.scenario", "ScenarioBuilder", "build_sift_capture",
     "experiments.scenario.build_sift_capture"),
    ("repro.sift.analyzer", "SiftAnalyzer", "scan", "sift.analyzer.scan"),
)

SPAN_NAMES = tuple(name for *_, name in TRACED)

#: Per-layer counters read off the program's own report; a workload
#: that does not load a layer reports 0 for it.
REPORT_COUNTS = (
    "wsdb.service.hit_ratio",
    "wsdb.service.evictions",
    "wsdb.service.invalidations",
    "wsdb.index.candidates_per_miss",
    "wsdb.cluster.frontend.requests",
    "wsdb.cluster.frontend.coalesced_ratio",
    "wsdb.cluster.frontend.shed_ratio",
    "wsdb.cluster.frontend.stale_ratio",
    "wsdb.cluster.router.fanout",
    "wsdb.cluster.push.notifications",
)


def emit(result: dict) -> None:
    print(json.dumps(result, sort_keys=True))


def install_tracing(tracer, counts: dict) -> None:
    """Wrap every ``TRACED`` function; hooks fill *counts*."""
    import importlib

    from workloads import patch

    engines: dict = {}
    counts.update(
        commit_clients=0, batch_cells=0, batch_unique=0, samples=0,
        tick_starts=[], engines=engines,
    )

    def commit(args, result, start, end):
        counts["commit_clients"] += len(args[1])

    def batch(args, result, start, end):
        cells = args[1]
        counts["batch_cells"] += len(cells)
        counts["batch_unique"] += len(set(cells))

    def tick(args, result, start, end):
        counts["tick_starts"].append(start)
        tracer.group += 1

    def run_until(args, result, start, end):
        engines[id(args[0])] = args[0]

    def scan(args, result, start, end):
        counts["samples"] += len(args[1].samples)

    hooks = {
        "wsdb.vector.commit_recheck": {"on_exit": commit},
        "wsdb.service.channels_in_cells": {"on_exit": batch},
        "wsdb.vector.associate_and_score": {"on_exit": tick},
        "wsdb.index.covering_rect": {"consume": True},
        "sim.engine.run_until": {"on_exit": run_until},
        "sift.analyzer.scan": {"on_exit": scan},
    }
    for module, owner, attr, name in TRACED:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        options = hooks.get(name, {})
        patch(target, attr, lambda fn, n=name, o=options: tracer.wrap(n, fn, **o))


def layer_metrics(tracer, counts: dict, workload, report, run_s: float) -> dict:
    from tracer import percentile

    layers: dict[str, float] = {}
    for name in SPAN_NAMES:
        self_s, _, calls = tracer.stats(name)
        layers[f"{name}.self_s"] = self_s
        layers[f"{name}.calls"] = calls
    layers["wsdb.vector.commit_recheck.clients"] = counts["commit_clients"]
    layers["wsdb.service.batch_unique_ratio"] = (
        counts["batch_unique"] / counts["batch_cells"]
        if counts["batch_cells"]
        else 0.0
    )
    layers.update(dict.fromkeys(REPORT_COUNTS, 0))
    layers.update(workload.layer_counts(report))
    requests = layers["wsdb.cluster.frontend.requests"]
    _, batch_s, _ = tracer.stats("wsdb.cluster.frontend.query_batch")
    layers["wsdb.cluster.frontend.us_per_request"] = (
        batch_s / requests * 1e6 if requests else 0.0
    )
    events = sum(e.events_fired for e in counts["engines"].values())
    _, engine_s, _ = tracer.stats("sim.engine.run_until")
    layers["sim.engine.events"] = events
    layers["sim.engine.events_per_s"] = events / engine_s if engine_s else 0.0
    _, scan_s, _ = tracer.stats("sift.analyzer.scan")
    layers["sift.analyzer.samples_per_s"] = (
        counts["samples"] / scan_s if scan_s else 0.0
    )
    starts = counts["tick_starts"]
    gaps_ms = [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]
    layers["tick.p50_ms"] = percentile(gaps_ms, 50)
    layers["tick.p90_ms"] = percentile(gaps_ms, 90)
    layers["trace.run_s"] = run_s
    layers["trace.unattributed_s"] = run_s - tracer.root_s
    layers["trace.spans"] = len(tracer.t0)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("measure", "check", "traced"), required=True
    )
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, GoodputProbe, ServedSample, canonical_digest

    workload = WORKLOADS[args.workload]
    world = workload.setup(args.seed)
    setup_s = time.perf_counter() - T_START

    result: dict = {"setup_s": setup_s}
    mark = None
    if args.mode == "check":
        # Observers ride the check run only, so timed runs carry no
        # benchmark code; the digest shows they changed nothing.
        probe = GoodputProbe()
        probe.install()
        if workload.safety_stride is not None:
            sample = ServedSample(workload.safety_stride)
            workload.install_sampler(sample)
    if args.mode == "traced":
        from tracer import Tracer, span_cost_us

        result["span_cost_us"] = span_cost_us()
        tracer = Tracer()
        counts: dict = {}
        install_tracing(tracer, counts)

        def mark(k: int) -> None:
            tracer.group = k

    probe_before_s = host_probe_s()
    start = time.perf_counter()
    report = workload.run(world, mark)
    run_s = time.perf_counter() - start
    result["run_s"] = run_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["host_probe_s"] = (probe_before_s + host_probe_s()) / 2

    result["digest"] = canonical_digest(report)
    errors = workload.invariants(report)
    if args.mode == "check":
        result["guards"] = workload.guards(report, probe)
        if workload.safety_stride is not None:
            metro, resolution_m = workload.safety_world(world)
            errors += sample.violations(metro, resolution_m)
            result["safety"] = {
                "served": sample.served,
                "sampled": len(sample.samples),
                "paths": sample.paths(),
            }
            if not sample.samples:
                errors.append("safety sample is empty")
        errors += workload.parity(args.seed)
    if args.mode == "traced":
        result["layers"] = layer_metrics(tracer, counts, workload, report, run_s)
        result["heavy"] = workload.heavy
        out = ROOT / ".perfbench" / f"spans-{args.workload}.npz"
        tracer.write(out)
        result["spans_path"] = str(out.relative_to(ROOT))
    result["errors"] = errors
    emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
