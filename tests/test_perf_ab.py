"""Parse and summary functions of ``scripts/perf_ab.py``, on canned output.

The script lives outside the package and is stdlib-only; load it by
path.  Nothing here runs git or the benchmark.
"""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "perf_ab", REPO_ROOT / "scripts" / "perf_ab.py"
)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

BETTER = {"run_s": "lower", "goodput_mbps": "higher"}


def canned_stdout(run_s, goodput=1.5, seed=1, digest="ab12", correct=True):
    result = {
        "correct": correct,
        "attempted": 4,
        "failed": 0,
        "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "goodput_mbps": {"value": goodput, "unit": "Mbit/s"},
        },
    }
    return "\n".join([
        f"perfbench whitefi seed={seed}: 3 timed repetitions, each in a fresh "
        "interpreter, plus one check run",
        f"  run_s  {run_s:12.4f} s  median of n=3",
        f"digest whitefi seed={seed}: {digest}",
        json.dumps(result),
    ])


class TestParseRun:
    def test_metrics_digest_and_verdict(self):
        metrics, digests, correct = perf_ab.parse_run(canned_stdout(1.25, seed=7))
        assert metrics == {"run_s": 1.25, "goodput_mbps": 1.5}
        assert digests == {7: "ab12"}
        assert correct

    def test_failed_check_is_reported(self):
        *_, correct = perf_ab.parse_run(canned_stdout(1.0, correct=False))
        assert not correct

    def test_no_digest_line(self):
        last = canned_stdout(1.0).splitlines()[-1]
        _, digests, _ = perf_ab.parse_run(last)
        assert digests == {}

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            perf_ab.parse_run("")


def pairs_of(base, change, goodput=1.5):
    return [
        {
            "base": {"run_s": b, "goodput_mbps": goodput},
            "change": {"run_s": c, "goodput_mbps": goodput},
        }
        for b, c in zip(base, change)
    ]


class TestSummarize:
    def test_median_iqr_ratio_and_wins(self):
        pairs = pairs_of([2.0, 2.2, 2.4, 2.6, 2.8], [1.0, 1.1, 1.2, 3.0, 1.4])
        run_s, goodput = perf_ab.summarize(pairs, BETTER)
        assert run_s["metric"] == "run_s"
        assert run_s["base"]["median"] == pytest.approx(2.4)
        assert run_s["base"]["iqr"] == pytest.approx(0.4)
        assert run_s["change"]["median"] == pytest.approx(1.2)
        assert run_s["ratio"] == pytest.approx(0.5)
        assert run_s["wins"] == 4 and run_s["ties"] == 0
        # A deterministic metric ties in every pair and wins none.
        assert goodput["wins"] == 0 and goodput["ties"] == 5
        assert goodput["ratio"] == 1.0

    def test_higher_is_better_direction(self):
        pairs = pairs_of([1.0, 1.0], [1.0, 1.0])
        pairs[0]["change"]["goodput_mbps"] = 2.0
        goodput = perf_ab.summarize(pairs, BETTER)[1]
        assert goodput["wins"] == 1 and goodput["ties"] == 1

    def test_single_pair_has_zero_iqr(self):
        (run_s, _) = perf_ab.summarize(pairs_of([2.0], [1.0]), BETTER)
        assert run_s["base"]["iqr"] == 0.0 and run_s["wins"] == 1

    def test_metric_missing_on_a_side_is_skipped(self):
        pairs = pairs_of([2.0], [1.0])
        del pairs[0]["base"]["goodput_mbps"]
        assert [r["metric"] for r in perf_ab.summarize(pairs, BETTER)] == ["run_s"]

    def test_table_has_one_line_per_metric(self):
        rows = perf_ab.summarize(pairs_of([2.0, 2.0], [1.0, 1.0]), BETTER)
        table = perf_ab.format_table(rows, {"run_s": "s"}).splitlines()
        assert len(table) == 3
        assert table[1].split()[:2] == ["run_s", "s"]
        assert table[1].split()[-1] == "2/2"
        assert "(2 tied)" in table[2]
