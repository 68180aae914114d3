"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload roam|storm|churn|whitefi \
        --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (``worker.py``), one at a
time, with ``PYTHONHASHSEED=0`` and BLAS threads pinned to 1, so peak
RSS and import cost belong to one workload and one run.  Each
repetition is one closed call: start it, wait for it to end.

``--trace 0`` runs the check pass once, then untraced repetitions until
``--seconds`` have passed (at least three), and prints every end-to-end
metric of ``BENCHMARK.json``.  ``--trace 1`` runs the check pass, one
untraced and one traced repetition, and prints every per-layer metric.
The last stdout line is the JSON result; the lines before it are a
human-readable summary, the report digest and the check outcomes.

The exit code is 0 when every check passed, 1 when a check failed and
2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("roam", "storm", "churn", "whitefi")
MIN_REPS = 3
MAX_REPS = 60
CHILD_TIMEOUT_S = 60.0
ENV_PINS = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
GUARDS = ("connected_frac", "violation_free_frac", "answered_frac", "goodput_mbps")
#: Reference time of ``worker.host_probe_s``: host times are reported
#: as if the host ran the probe in exactly this long.
PROBE_REF_S = 0.1


class Runner:
    """Spawns repetitions and keeps the tally: ``attempted`` and
    ``failed`` count repetitions; ``errors`` also holds the checks made
    across repetitions."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env = {**os.environ, **ENV_PINS}

    def call(self, mode: str) -> dict | None:
        self.attempted += 1
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} repetition exceeded {CHILD_TIMEOUT_S:g} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return self._fail(f"{mode} repetition exited {proc.returncode}: {tail[0]}")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            return self._fail(f"{mode} repetition printed no JSON result")
        if result["errors"]:
            self.failed += 1
            self.errors += [f"{mode}: {e}" for e in result["errors"]]
        return result

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        return None


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples
    above it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def measure(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    check = runner.call("check")
    reps: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    while len(reps) < MAX_REPS:
        # Stop before a repetition that would overrun the window.
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            break
        began = time.perf_counter()
        rep = runner.call("measure")
        walls.append(time.perf_counter() - began)
        if rep is None:
            break
        reps.append(rep)
    return check, reps


def host_scaled(rep: dict, key: str) -> float:
    """A repetition's host time at the reference host speed."""
    return rep[key] * PROBE_REF_S / rep["host_probe_s"]


def print_timing(name: str, unit: str, values: list[float], note: str = "") -> float:
    median = statistics.median(values)
    high = high_percentile(values)
    tail = (
        f"p{high[0]:.0f} {high[1]:.4f}"
        if high
        else "no percentile has >= 10 samples above it"
    )
    print(
        f"  {name:<20} {median:12.4f} {unit:<7} median of n={len(values)} "
        f"(min {min(values):.4f}, max {max(values):.4f}; {tail}){note}"
    )
    return median


def end_to_end(runner: Runner, seconds: float, units: dict) -> dict:
    check, reps = measure(runner, seconds)
    runs = [r for r in (check, *reps) if r is not None]
    digests = {r["digest"] for r in runs}
    if len(digests) > 1:
        runner.errors.append("report digest differs between repetitions of one seed")
    print(
        f"perfbench {runner.workload} seed={runner.seed}: {len(reps)} timed "
        "repetitions, each in a fresh interpreter, plus one check run"
    )
    metrics: dict[str, float] = {}
    if reps:
        for name in ("run_s", "setup_s"):
            raw = statistics.median(r[name] for r in reps)
            metrics[name] = print_timing(
                name, "s", [host_scaled(r, name) for r in reps],
                f"; raw wall median {raw:.4f} s",
            )
        metrics["peak_rss_mb"] = print_timing(
            "peak_rss_mb", "MB", [r["peak_rss_mb"] for r in reps]
        )
        probe = statistics.median(r["host_probe_s"] for r in reps)
        print(
            f"  host probe median {probe:.4f} s; host times above are scaled "
            f"to a {PROBE_REF_S:g} s probe"
        )
    if check is not None:
        for name in GUARDS:
            metrics[name] = check["guards"][name]
            print(f"  {name:<20} {metrics[name]:12.6g} {units[name]:<7} deterministic")
    for digest in sorted(digests):
        print(f"digest {runner.workload} seed={runner.seed}: {digest}")
    if check is not None and "safety" in check:
        safety = check["safety"]
        paths = ", ".join(f"{k}={v}" for k, v in sorted(safety["paths"].items()))
        print(
            f"safety sample: {safety['sampled']} of {safety['served']} served "
            f"responses re-checked by linear scan ({paths})"
        )
    return metrics


def per_layer(runner: Runner) -> dict:
    check = runner.call("check")
    base = runner.call("measure")
    traced = runner.call("traced")
    runs = [r for r in (check, base, traced) if r is not None]
    if len({r["digest"] for r in runs}) > 1:
        runner.errors.append("report digest differs between traced and untraced runs")
    if base is None or traced is None:
        return {}
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = host_scaled(traced, "run_s") / host_scaled(
        base, "run_s"
    )
    layers["trace.span_cost_us"] = traced["span_cost_us"]
    print(
        f"perfbench {runner.workload} seed={runner.seed}: traced run "
        f"{traced['run_s']:.3f} s vs untraced {base['run_s']:.3f} s; "
        f"spans in {traced['spans_path']}"
    )
    shares = sorted(
        (
            (value, name[: -len(".self_s")])
            for name, value in layers.items()
            if name.endswith(".self_s") and value > 0
        ),
        reverse=True,
    )
    run_s = traced["run_s"]
    for value, name in shares:
        print(f"  {name:<42} {value:9.4f} s {value / run_s:6.1%} of traced run_s")
    print(
        f"  {'(unattributed)':<42} {layers['trace.unattributed_s']:9.4f} s "
        f"{layers['trace.unattributed_s'] / run_s:6.1%} of traced run_s"
    )
    heavy = sum(layers[f"{name}.self_s"] for name in traced["heavy"])
    print(
        f"  heavy layers ({', '.join(traced['heavy'])}): "
        f"{heavy / run_s:.1%} of traced run_s"
    )
    print(f"digest {runner.workload} seed={runner.seed}: {runs[0]['digest']}")
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="the repository benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the repro package is missing under src/", file=sys.stderr)
        return 2
    declared = declared_metrics()
    runner = Runner(args.workload, args.seed)
    if args.trace:
        units = declared["per_layer"]
        values = per_layer(runner)
    else:
        units = declared["end_to_end"]
        values = end_to_end(runner, args.seconds, units)
    missing = sorted(set(units) - set(values))
    if missing and not runner.errors:
        runner.errors.append(f"metrics not produced: {', '.join(missing)}")
    for error in runner.errors:
        print(f"CHECK FAILED: {error}")
    correct = not runner.errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                    if name in values
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
