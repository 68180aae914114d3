"""Figure 6: accuracy of airtime utilization measurement using SIFT.

"The total time occupied by the packets doubles on halving the channel
width ... Since we send the same number of packets at a given width,
the total airtime is constant, even when we change the rate of injected
packets."  Error bars were within 2% of the mean.
"""

from __future__ import annotations

from statistics import mean

import pytest

from repro.sift.workloads import run_sift_on_iperf

RATES_MBPS = (0.25, 0.5, 1.0)
WIDTHS = (5.0, 10.0, 20.0)
RUNS = 3


def airtime_table() -> dict[float, dict[float, dict[str, float]]]:
    """Measured vs true busy time (ms) per (width, rate)."""
    table: dict[float, dict[float, dict[str, float]]] = {}
    for width in WIDTHS:
        table[width] = {}
        for rate in RATES_MBPS:
            runs = [
                run_sift_on_iperf(width, rate, seed=1000 + 17 * run)
                for run in range(RUNS)
            ]
            table[width][rate] = {
                "measured_ms": mean(r["busy_us_measured"] for r in runs) / 1000.0,
                "true_ms": mean(r["busy_us_true"] for r in runs) / 1000.0,
            }
    return table


def test_fig06_airtime_accuracy(benchmark, record_table):
    table = benchmark.pedantic(airtime_table, rounds=1, iterations=1)

    lines = ["Figure 6: SIFT airtime measurement (110 pkts; busy time in ms)"]
    lines.append(
        f"{'width':>8} | " + " | ".join(f"{r:g}M meas/true".rjust(16) for r in RATES_MBPS)
    )
    for width in WIDTHS:
        cells = []
        for rate in RATES_MBPS:
            cell = table[width][rate]
            cells.append(f"{cell['measured_ms']:7.1f}/{cell['true_ms']:<7.1f}")
        lines.append(f"{width:>6g}MHz | " + " | ".join(c.rjust(16) for c in cells))
    record_table("fig06_airtime", lines)

    for width in WIDTHS:
        for rate in RATES_MBPS:
            cell = table[width][rate]
            # SIFT measures the occupied time within a few percent.
            assert cell["measured_ms"] == pytest.approx(
                cell["true_ms"], rel=0.05
            )
        # Airtime constant across rates at a given width (2% error bars).
        busy = [table[width][r]["measured_ms"] for r in RATES_MBPS]
        assert max(busy) - min(busy) <= 0.1 * mean(busy)
    # Busy time doubles when the width halves.
    for rate in RATES_MBPS:
        assert table[10.0][rate]["measured_ms"] == pytest.approx(
            2 * table[20.0][rate]["measured_ms"], rel=0.1
        )
        assert table[5.0][rate]["measured_ms"] == pytest.approx(
            4 * table[20.0][rate]["measured_ms"], rel=0.1
        )
