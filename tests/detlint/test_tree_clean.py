"""Meta-test: the live src/repro tree is finding-free against the
shipped policy and baseline.

This is the determinism gate run *as a test*, so `pytest` alone (the
tier-1 command) fails on a new hazard even before `make detlint` or CI
gets a look.  It exercises the exact checked-in detlint.toml +
detlint.baseline.json the Makefile gate uses.
"""

from pathlib import Path

from repro.detlint.config import load_config
from repro.detlint.engine import lint_paths
from repro.detlint.findings import load_baseline

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def run_live_tree():
    config = load_config(REPO_ROOT / "detlint.toml")
    baseline = load_baseline(REPO_ROOT / "detlint.baseline.json")
    paths = [REPO_ROOT / p for p in config.paths]
    return lint_paths(paths, config=config, baseline=baseline, root=REPO_ROOT)


def test_live_tree_has_no_new_findings():
    report = run_live_tree()
    assert report.files_checked > 80  # the whole tree, not a subset
    offenders = [
        f"{f.id}: {f.message}" for f in report.new
    ]
    assert offenders == [], (
        "determinism linter found unsuppressed hazards:\n"
        + "\n".join(offenders)
    )


def test_live_baseline_is_empty_and_not_stale():
    # The gate landed strict: nothing grandfathered.  If this ever has
    # to change, the baseline file makes the debt explicit — but start
    # from zero.
    baseline = load_baseline(REPO_ROOT / "detlint.baseline.json")
    assert baseline.ids == frozenset()
    assert run_live_tree().stale_baseline == []


def test_live_suppressions_all_carry_reasons():
    report = run_live_tree()
    for finding in report.suppressed:
        assert finding.reason.strip(), f"{finding.id} suppressed without reason"
    # Today's accepted debt: the roaming and querystorm drivers in
    # repro/wsdb/vector.py (one per kind, both engines) that profile
    # tick phases while publishing sim metrics (documented discipline).
    assert len(report.suppressed) <= 4, (
        "suppression debt is growing; justify new pragmas in review "
        f"({[f.id for f in report.suppressed]})"
    )
