#!/usr/bin/env python3
"""Roaming wsdb walkthrough: move, re-check, hand off, vacate.

Builds a dense little metro, boots a citywide AP deployment off the
geolocation database, then sends mobile clients roaming across it under
the FCC 100 m re-check rule — each client re-queries the database only
when it crosses a quantization-square boundary or its response's TTL
expires, and the cell-granular response protocol serves everyone in a
square from one cached answer.  A mid-session microphone registration
shows a client vacating its channel as its path enters the protection
zone.

Run:
    python examples/roaming_wsdb.py
"""

import time

from repro.wsdb import WhiteSpaceDatabase, generate_metro, simulate_roaming
from repro.wsdb.service import DEFAULT_CACHE_RESOLUTION_M


def main() -> None:
    # 1. A dense 2 km metro: TV sites on channels 0-11, channels 12+
    #    locally free between the contours.
    def fresh_db(resolution_m: float) -> WhiteSpaceDatabase:
        metro = generate_metro(
            range(12), extent_m=2_000.0, seed=99, num_channels=30
        )
        return WhiteSpaceDatabase(metro, cache_resolution_m=resolution_m)

    db = fresh_db(DEFAULT_CACHE_RESOLUTION_M)
    print(
        f"metro: {len(db.metro.sites)} TV sites on dial {db.metro.dial()}, "
        f"{db.metro.extent_m / 1e3:.0f} km plane"
    )

    # 2. Thirty clients roam for five minutes among eight APs, with a
    #    few microphone venues registering mid-session.
    report = simulate_roaming(
        db,
        num_aps=8,
        num_clients=30,
        duration_us=300e6,
        seed=7,
        mic_events=4,
    )
    print(
        f"\nroaming session: {report['num_clients']} clients, "
        f"{report['assigned_aps']}/{report['num_aps']} APs assigned, "
        f"{report['mic_events']} mic events"
    )
    print(
        f"  re-check rule: {report['requeries']} re-queries "
        f"({report['requeries_per_client']:.1f}/client — only on cell "
        "crossing or TTL expiry, never per tick)"
    )
    print(
        f"  mobility: {report['handoffs']} handoffs, "
        f"{report['vacations']} channel vacations "
        f"(paths entering mic protection zones)"
    )
    print(
        f"  compliance: connected {report['connected_fraction']:.1%} of "
        f"ticks, violation-free {report['violation_free_fraction']:.2%}"
    )

    # 3. The cell-granular protocol is what makes this workload cheap:
    #    every client in a 100 m square shares one cached response.
    stats = report["db"]
    print(
        f"\ncell-granular cache: {stats['queries']} queries, "
        f"{stats['cache_hits']} hits (hit rate {stats['hit_rate']:.0%}), "
        f"{stats['invalidations']} invalidated by mics, "
        f"{stats['expirations']} expired with their TTL buckets"
    )

    # 4. Shrink the response cell toward zero — every query point its
    #    own cache slot, the per-coordinate baseline — and the same
    #    session never hits the cache at all.
    baseline = simulate_roaming(
        fresh_db(0.001),
        num_aps=8,
        num_clients=30,
        duration_us=300e6,
        seed=7,
        mic_events=4,
        recheck_m=100.0,
    )["db"]
    print(
        f"per-coordinate baseline: {baseline['queries']} identical queries, "
        f"hit rate {baseline['hit_rate']:.0%} — dense mobile deployments "
        "need area responses"
    )

    # 5. The same session on both engines: one driver steps either the
    #    per-client reference fleet or the columnar vector fleet
    #    (repro.wsdb.vector), which batches the whole fleet's tick into
    #    numpy array passes and reproduces the reference report bit for
    #    bit.
    print("\nscalar vs vector engine (same seed, fresh databases):")
    reports = {}
    for engine in ("scalar", "vector"):
        t0 = time.perf_counter()
        reports[engine] = simulate_roaming(
            fresh_db(DEFAULT_CACHE_RESOLUTION_M),
            num_aps=8,
            num_clients=500,
            duration_us=300e6,
            seed=7,
            mic_events=4,
            engine=engine,
        )
        wall = time.perf_counter() - t0
        print(f"  {engine:>6}: 500 clients x 301 ticks in {wall:.2f}s")
    match = "identical" if reports["scalar"] == reports["vector"] else "DIVERGED"
    print(f"  reports: {match} — benchmarks/bench_scale.py takes this to 1M")


if __name__ == "__main__":
    main()
