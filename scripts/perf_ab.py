"""Same-host A/B of the repository benchmark against a pinned git ref.

Usage (from the repository root)::

    python3 scripts/perf_ab.py --base <ref> --workload W --pairs N \
        [--seed S ...] [--seconds T]

The base side is ``<ref>`` checked out into a temporary ``git worktree``;
the change side is the working tree this script runs from.  Each pair
runs ``perfbench/run.py --trace 0`` once on each side, one after the
other, and alternates which side goes first so a drift in host speed
falls on both sides alike.  With several ``--seed`` values the pairs
cycle through them.  ``perfbench/`` is only called, never edited.

For each end-to-end metric the summary gives the median and the
interquartile range (IQR) per side, the change/base ratio of the
medians, and in how many pairs the change was better.  ``--base HEAD``
on a clean tree is an A/A run: its IQR and win split are the host's
noise band.

Exit code: 0 when every run passed its checks and every seed's report
digest is the same on both sides; 1 otherwise.  The worktree is
removed on exit.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
DIGEST_LINE = re.compile(r"^digest (\S+) seed=(-?\d+): ([0-9a-f]+)$")


def parse_run(stdout: str) -> tuple[dict[str, float], dict[int, str], bool]:
    """(metric values, seed -> report digest, correct) of one run's output.

    The metrics come from the final JSON line ``perfbench/run.py``
    prints; the digests from its ``digest <workload> seed=<n>: <hex>``
    lines.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run printed nothing")
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    digests: dict[int, str] = {}
    for line in lines[:-1]:
        match = DIGEST_LINE.match(line.strip())
        if match:
            digests[int(match.group(2))] = match.group(3)
    return metrics, digests, bool(result["correct"])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    pairs: list[dict[str, dict[str, float]]], better: dict[str, str]
) -> list[dict]:
    """One row per end-to-end metric over paired runs.

    Each pair maps a side (``base``/``change``) to its metric values;
    *better* maps a metric name to ``"lower"`` or ``"higher"``.  A pair
    counts as a change win when the change's value is strictly better.
    """
    rows = []
    for name, direction in better.items():
        if not all(name in pair[side] for pair in pairs for side in SIDES):
            continue
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        row: dict = {"metric": name, "better": direction, "pairs": len(pairs)}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            row[side] = {"median": median, "iqr": q3 - q1}
        base_median = row["base"]["median"]
        row["ratio"] = row["change"]["median"] / base_median if base_median else None
        row["wins"] = sum(
            (c < b) if direction == "lower" else (c > b)
            for b, c in zip(values["base"], values["change"])
        )
        row["ties"] = sum(b == c for b, c in zip(values["base"], values["change"]))
        rows.append(row)
    return rows


def format_table(rows: list[dict], units: dict[str, str]) -> str:
    header = (
        f"{'metric':<20} {'unit':<7} {'base median':>12} {'base IQR':>10} "
        f"{'change median':>14} {'change IQR':>10} {'change/base':>11} "
        f"{'change wins':>12}"
    )
    out = [header]
    for row in rows:
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
        wins = f"{row['wins']}/{row['pairs']}"
        if row["ties"]:
            wins += f" ({row['ties']} tied)"
        out.append(
            f"{row['metric']:<20} {units.get(row['metric'], ''):<7} "
            f"{row['base']['median']:>12.4f} {row['base']['iqr']:>10.4f} "
            f"{row['change']['median']:>14.4f} {row['change']['iqr']:>10.4f} "
            f"{ratio:>11} {wins:>12}"
        )
    return "\n".join(out)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_side(root: Path, workload: str, seed: int, seconds: float) -> str:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"perfbench exited {proc.returncode} in {root}: {tail[0]}")
    return proc.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument(
        "--seed", type=int, action="append",
        help="seed(s) the pairs cycle through (default 1)",
    )
    parser.add_argument(
        "--seconds", type=float, default=25.0,
        help="perfbench --seconds per run (default 25)",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = args.seed or [1]
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}

    commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    tmp = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    worktree = tmp / "base"
    # A SIGTERM must still reach the ``finally`` that removes the worktree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        git("worktree", "add", "--detach", str(worktree), commit)
        roots = {"base": worktree, "change": ROOT}
        print(
            f"perf_ab {args.workload}: base {commit[:10]} ({args.base}) vs "
            f"change (working tree {ROOT.name}), {args.pairs} pairs, "
            f"seeds {', '.join(map(str, seeds))}, --seconds {args.seconds:g}",
            flush=True,
        )
        pairs: list[dict[str, dict[str, float]]] = []
        failures: list[str] = []
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair: dict[str, dict[str, float]] = {}
            digests: dict[str, str | None] = {}
            for side in order:
                stdout = run_side(roots[side], args.workload, seed, args.seconds)
                metrics, seen, correct = parse_run(stdout)
                if not correct:
                    failures.append(f"pair {i + 1} {side} seed={seed}: a check failed")
                pair[side] = metrics
                digests[side] = seen.get(seed)
            if digests["base"] is None or digests["base"] != digests["change"]:
                failures.append(
                    f"seed={seed}: digest differs (base {digests['base']}, "
                    f"change {digests['change']})"
                )
            pairs.append(pair)
            print(
                f"pair {i + 1}/{args.pairs} seed={seed} ({order[0]} first): "
                f"run_s base {pair['base'].get('run_s', float('nan')):.4f} "
                f"change {pair['change'].get('run_s', float('nan')):.4f}",
                flush=True,
            )
        print(format_table(summarize(pairs, better), units))
        for failure in failures:
            print(f"FAILED: {failure}")
        return 1 if failures else 0
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(worktree)],
            cwd=ROOT, capture_output=True,
        )
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
