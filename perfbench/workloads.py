"""The four benchmark workloads: world build, run, guards and checks.

Each workload drives the program only through public entry points
(``simulate_roaming``, ``simulate_querystorm`` with ``storm_source=``,
``run_experiment`` / ``ScenarioBuilder``) and returns a plain-data
report.  Everything the workload feeds the program -- metro, fleet
paths, mic events and the storm point streams -- derives from the
``--seed`` argument, so one seed always yields one input set and one
report digest.

Why these four (the full rationale is in README.md):

* ``roam``   -- read-heavy vector fleet: batch lookup + associate; the
  cluster tier is bypassed and the index is nearly idle (hits).
* ``storm``  -- the per-request frontend path (admission, dedup,
  routing, stale store, push subscribe) under a hot-spot storm.
* ``churn``  -- the write/miss side of the database: a working set
  larger than the cache, a short TTL and ~150 mic registrations.
* ``whitefi`` -- the paper's own layers (event engine, medium, MCham,
  SIFT); no ``wsdb`` code runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable

import numpy as np

from repro import constants
from repro.experiments import (
    BackgroundPoolSpec,
    ExperimentSpec,
    MicSpec,
    ScenarioBuilder,
    ScenarioSpec,
    TrafficSpec,
    run_experiment,
)
from repro.sim.rng import stream_seed
from repro.wsdb.citywide import REFERENCE_RATE_MBPS
from repro.wsdb.cluster import ShardRouter
from repro.wsdb.cluster.frontend import BatchFrontend
from repro.wsdb.cluster.querystorm import simulate_querystorm
from repro.wsdb.index import circle_intersects_cell
from repro.wsdb.mobility import simulate_roaming
from repro.wsdb.service import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_TTL_US,
    WhiteSpaceDatabase,
)
from repro.wsdb.vector import VectorFleet

#: TV incumbents on channels 0-11, channels 12-29 free (the dial of
#: ``bench_scale`` and ``make profile``).
WSDB_FREE = tuple(range(12, 30))
NUM_CHANNELS = 30
TICK_US = 1_000_000.0

#: The Section 5.4.1 simulation map: 17 free UHF channels.
SEVENTEEN_FREE = (2, 3, 4, 5, 6, 7, 10, 11, 12, 15, 16, 17, 18, 21, 22, 25, 28)


def canonical_digest(report: Any) -> str:
    """sha256 of the report's canonical JSON (tuples as lists)."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def wsdb_metro(seed: int, extent_m: float):
    """Fresh metro ground truth; mic registrations mutate it, so every
    run builds its own."""
    spec = ScenarioSpec(
        free_indices=WSDB_FREE, num_channels=NUM_CHANNELS, seed=seed
    )
    return ScenarioBuilder(spec).build_citywide_metro(extent_m)


def storm_stream(
    seed: int,
    offered_qps: float,
    ticks: int,
    extent_m: float,
    crowd_frac: float,
    crowd_sigma_m: float = 150.0,
) -> list[tuple[float, float, float]]:
    """A ``(t_us, x, y)`` storm: a venue crowd mixed with uniform load.

    Open loop on the sim clock: ``offered_qps`` requests per simulated
    second arrive on a fixed per-tick schedule whatever the frontend
    does with them.  A share ``crowd_frac`` is a Gaussian crowd around
    one venue (drawn from the seed); the rest is uniform over the
    plane.  ``crowd_frac=0`` is the uniform churn stream.
    """
    rng = random.Random(stream_seed(seed, "perfbench-storm"))
    vx = rng.uniform(0.25 * extent_m, 0.75 * extent_m)
    vy = rng.uniform(0.25 * extent_m, 0.75 * extent_m)
    points: list[tuple[float, float, float]] = []
    budget = 0.0
    for k in range(ticks + 1):
        t_us = k * TICK_US
        budget += offered_qps * TICK_US / 1e6
        n = int(budget)
        budget -= n
        for _ in range(n):
            if rng.random() < crowd_frac:
                x = min(max(rng.gauss(vx, crowd_sigma_m), 0.0), extent_m)
                y = min(max(rng.gauss(vy, crowd_sigma_m), 0.0), extent_m)
            else:
                x = rng.uniform(0.0, extent_m)
                y = rng.uniform(0.0, extent_m)
            points.append((t_us, x, y))
    return points


# -- outside-in observers ------------------------------------------------------


def patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` by ``make(original)``.

    ``owner`` is the module or class the caller looks the name up on
    (``repro.wsdb.vector`` imports ``spawn_clients`` by name, so that
    is where it is patched).  Processes are single-use, so nothing is
    restored.
    """
    setattr(owner, attr, make(getattr(owner, attr)))


class GoodputProbe:
    """Per-client capacity share of the fleet's APs, tick by tick.

    An AP's channel carries ``REFERENCE_RATE_MBPS`` per 5 MHz of width
    (the citywide model's rate unit), shared equally by the clients
    associated to it that tick.  Summed over clients this is the
    capacity of every AP that has at least one client; divided by all
    client-ticks it is the mean per-client goodput (disconnected ticks
    count zero).  Reads ``set_snapshot`` arguments and
    ``associate_and_score`` results only.
    """

    def __init__(self) -> None:
        self.capacity = np.zeros(0)
        self.total_mbps = 0.0

    def install(self) -> None:
        probe = self

        def on_snapshot(fn):
            def set_snapshot(fleet, live_aps, num_aps):
                probe.capacity = np.array(
                    [
                        REFERENCE_RATE_MBPS
                        * ap.channel.width_mhz
                        / constants.REFERENCE_WIDTH_MHZ
                        for ap, _ in live_aps
                    ]
                )
                return fn(fleet, live_aps, num_aps)

            return set_snapshot

        def on_tick(fn):
            def associate_and_score(fleet, *args, **kwargs):
                tick = fn(fleet, *args, **kwargs)
                connected, _new_ap, best_col = tick[0], tick[1], tick[2]
                if probe.capacity.size:
                    used = np.bincount(
                        best_col[connected], minlength=probe.capacity.size
                    )
                    probe.total_mbps += float(probe.capacity[used > 0].sum())
                return tick

            return associate_and_score

        patch(VectorFleet, "set_snapshot", on_snapshot)
        patch(VectorFleet, "associate_and_score", on_tick)


class ServedSample:
    """A deterministic stride sample of served ``(cell, t, channels)``.

    Every ``stride``-th response the program serves is kept, together
    with its serving path (``fresh``/``cached`` from the database's
    per-cell outcomes, ``admitted``/``stale`` from the frontend plan).
    """

    def __init__(self, stride: int) -> None:
        self.stride = stride
        self.served = 0
        self.samples: list[tuple[tuple[int, int], float, tuple, str]] = []

    def _take(self, cell, t_us, channels, path) -> None:
        if self.served % self.stride == 0:
            self.samples.append((cell, t_us, tuple(channels), path))
        self.served += 1

    def install_db(self) -> None:
        sample = self

        def wrap(fn):
            def channels_in_cells(db, cells, t_us=0.0):
                responses = fn(db, cells, t_us)
                for cell, resp, (hit, _) in zip(
                    cells, responses, db.last_outcomes
                ):
                    sample._take(cell, t_us, resp, "cached" if hit else "fresh")
                return responses

            return channels_in_cells

        patch(WhiteSpaceDatabase, "channels_in_cells", wrap)

    def install_frontend(self) -> None:
        sample = self

        def wrap(fn):
            def query_batch(frontend, points, t_us=0.0, *args, **kwargs):
                answers = fn(frontend, points, t_us, *args, **kwargs)
                for answer, (cell, admitted) in zip(answers, frontend.last_plan):
                    if answer is not None:
                        sample._take(
                            cell, t_us, answer, "admitted" if admitted else "stale"
                        )
                return answers

            return query_batch

        patch(BatchFrontend, "query_batch", wrap)

    def violations(self, metro, resolution_m: float) -> list[str]:
        """Brute-force safety: a linear scan over every incumbent.

        A served channel is unsafe when an incumbent on it is active at
        the serve time and its protected contour touches the served
        cell.  ``metro`` is read after the run, so it holds every mic
        registered during it; ``active_at`` excludes the ones not yet
        on air at the serve time.
        """
        errors = []
        entries = (*metro.sites, *metro.registrations)
        for (qx, qy), t_us, channels, path in self.samples:
            served = set(channels)
            for entry in entries:
                if (
                    entry.uhf_index in served
                    and entry.active_at(t_us)
                    and circle_intersects_cell(
                        entry.x_m, entry.y_m, entry.radius_m, qx, qy, resolution_m
                    )
                ):
                    errors.append(
                        f"unsafe {path} response: channel {entry.uhf_index} "
                        f"served in cell ({qx}, {qy}) at t={t_us:g} us inside "
                        f"an active contour"
                    )
        if len(errors) > 3:
            errors[3:] = [f"... {len(errors)} unsafe channels in the sample"]
        return errors

    def paths(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for *_, path in self.samples:
            counts[path] = counts.get(path, 0) + 1
        return counts


# -- shared wsdb report checks ------------------------------------------------


def client_ticks(report: dict) -> int:
    ticks = int(report["duration_us"] // report["tick_us"]) + 1
    return report["num_clients"] * ticks


def fleet_invariants(report: dict) -> list[str]:
    errors = []
    if report["connected_ticks"] + report["disconnected_ticks"] != client_ticks(report):
        errors.append("connected + disconnected != client-ticks")
    if sum(row[1] for row in report["per_client"]) != report["requeries"]:
        errors.append("sum of per-client re-queries != requeries")
    return errors


def db_invariants(stats: dict, where: str) -> list[str]:
    if stats["cache_hits"] + stats["cache_misses"] != stats["queries"]:
        return [f"{where}: hits + misses != queries"]
    return []


def frontend_invariants(report: dict) -> list[str]:
    errors = []
    for k, stats in enumerate(report["per_shard"]):
        errors += db_invariants(stats, f"shard {k}")
    f = report["frontend"]
    if f["admitted"] + f["shed"] != f["requests"]:
        errors.append("frontend: admitted + shed != requests")
    if f["served_stale"] > f["shed"]:
        errors.append("frontend: served_stale > shed")
    return errors


def fleet_guards(report: dict, probe: GoodputProbe) -> dict[str, float]:
    frontend = report.get("frontend")
    if frontend is None:
        answered = 1.0  # no admission control: every re-check is answered
    else:
        unanswered = frontend["shed"] - frontend["served_stale"]
        answered = 1.0 - unanswered / frontend["requests"]
    return {
        "connected_frac": report["connected_fraction"],
        "violation_free_frac": report["violation_free_fraction"],
        "answered_frac": answered,
        "goodput_mbps": probe.total_mbps / client_ticks(report),
    }


def db_counts(db: dict) -> dict[str, float]:
    """Database-layer counters from a report's ``db`` stats block."""
    return {
        "wsdb.service.hit_ratio": db["hit_rate"],
        "wsdb.service.evictions": db["evictions"],
        "wsdb.service.invalidations": db["invalidations"],
        "wsdb.index.candidates_per_miss": (
            db["candidates_scanned"] / db["cache_misses"]
            if db["cache_misses"]
            else 0.0
        ),
    }


def report_diff(a: Any, b: Any, path: str = "report") -> str | None:
    """The first differing key path between two reports (None: equal)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                return f"{path}.{key} missing on one side"
            diff = report_diff(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    return None if a == b else f"{path} differs"


# -- the workloads -------------------------------------------------------------


class Workload:
    """One named workload.  Subclasses fill in the shape."""

    name = ""
    #: Stride of the served-response safety sample (None: no wsdb).
    safety_stride: int | None = None
    #: The spans this workload is built to load; their summed self time
    #: should be most of the traced run.
    heavy: tuple[str, ...] = ()

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def run(self, world: dict, mark: Callable[[int], None] | None = None) -> Any:
        raise NotImplementedError

    def guards(self, report: Any, probe: GoodputProbe) -> dict[str, float]:
        raise NotImplementedError

    def invariants(self, report: Any) -> list[str]:
        raise NotImplementedError

    def parity(self, seed: int) -> list[str]:
        """Reduced-size scalar-vs-vector report equality (wsdb fleets)."""
        return []

    def install_sampler(self, sample: ServedSample) -> None:
        pass

    def safety_world(self, world: dict):
        """(metro, resolution) the safety oracle scans after the run."""
        return None

    def layer_counts(self, report: Any) -> dict[str, float]:
        """Per-layer counters the program's own report already holds."""
        return {}


class Roam(Workload):
    """Vector roaming: >=50k clients, 12 APs, 3 km, 3 mic events."""

    name = "roam"
    clients = 50_000
    aps = 12
    extent_m = 3_000.0
    duration_us = 40e6
    mics = 3
    safety_stride = 211
    heavy = (
        "wsdb.service.channels_in_cells",
        "wsdb.vector.commit_recheck",
        "wsdb.vector.associate_and_score",
    )

    def setup(self, seed: int) -> dict:
        return {
            "db": WhiteSpaceDatabase(wsdb_metro(seed, self.extent_m)),
            "seed": seed,
        }

    def _simulate(self, db, seed, clients, duration_us, engine):
        return simulate_roaming(
            db,
            num_aps=self.aps,
            num_clients=clients,
            duration_us=duration_us,
            seed=seed,
            mic_events=self.mics,
            tick_us=TICK_US,
            engine=engine,
        )

    def run(self, world, mark=None):
        return self._simulate(
            world["db"], world["seed"], self.clients, self.duration_us, "vector"
        )

    def guards(self, report, probe):
        return fleet_guards(report, probe)

    def invariants(self, report):
        return fleet_invariants(report) + db_invariants(report["db"], "db")

    def parity(self, seed):
        reports = [
            self._simulate(
                WhiteSpaceDatabase(wsdb_metro(seed, self.extent_m)),
                seed,
                400,
                20e6,
                engine,
            )
            for engine in ("scalar", "vector")
        ]
        diff = report_diff(*reports)
        return [f"roam scalar/vector parity: {diff}"] if diff else []

    def install_sampler(self, sample):
        sample.install_db()

    def safety_world(self, world):
        return world["db"].metro, world["db"].cache_resolution_m

    def layer_counts(self, report):
        return db_counts(report["db"])


class Storm(Workload):
    """Vector querystorm: ~20k clients, 4 shards, push, serve-stale,
    a hot-spot storm and a rate limit that sheds about half."""

    name = "storm"
    clients = 20_000
    aps = 12
    extent_m = 3_000.0
    duration_us = 30e6
    mics = 3
    shards = 4
    offered_qps = 4_000.0
    rate_limit_qps: float | None = 4_000.0
    crowd_frac = 0.6
    ttl_us = DEFAULT_TTL_US
    cache_capacity = DEFAULT_CACHE_CAPACITY
    safety_stride = 131
    heavy = (
        "wsdb.cluster.frontend.query",
        "wsdb.cluster.frontend.query_batch",
        "wsdb.service.channels_in_cell",
        "wsdb.index.covering_rect",
        "wsdb.cluster.push.subscribe",
    )
    parity_clients = 300
    parity_qps = 60.0

    def _router(self, seed: int) -> ShardRouter:
        return ShardRouter(
            wsdb_metro(seed, self.extent_m),
            num_shards=self.shards,
            ttl_us=self.ttl_us,
            cache_capacity=self.cache_capacity,
        )

    def _stream(self, seed, qps, duration_us):
        ticks = int(duration_us // TICK_US)
        return storm_stream(seed, qps, ticks, self.extent_m, self.crowd_frac)

    def setup(self, seed: int) -> dict:
        return {
            "router": self._router(seed),
            "stream": self._stream(seed, self.offered_qps, self.duration_us),
            "seed": seed,
        }

    def _simulate(self, router, stream, seed, clients, duration_us, qps,
                  rate_limit, engine):
        return simulate_querystorm(
            router,
            num_aps=self.aps,
            num_clients=clients,
            duration_us=duration_us,
            seed=seed,
            offered_qps=qps,
            push=True,
            mic_events=self.mics,
            tick_us=TICK_US,
            rate_limit_qps=rate_limit,
            policy="serve-stale",
            engine=engine,
            storm_source=stream,
        )

    def run(self, world, mark=None):
        return self._simulate(
            world["router"],
            world["stream"],
            world["seed"],
            self.clients,
            self.duration_us,
            self.offered_qps,
            self.rate_limit_qps,
            "vector",
        )

    def guards(self, report, probe):
        return fleet_guards(report, probe)

    def invariants(self, report):
        return fleet_invariants(report) + frontend_invariants(report)

    def parity(self, seed):
        scale = self.parity_qps / self.offered_qps
        rate = None if self.rate_limit_qps is None else self.rate_limit_qps * scale
        duration_us = 20e6
        reports = [
            self._simulate(
                self._router(seed),
                self._stream(seed, self.parity_qps, duration_us),
                seed,
                self.parity_clients,
                duration_us,
                self.parity_qps,
                rate,
                engine,
            )
            for engine in ("scalar", "vector")
        ]
        diff = report_diff(*reports)
        return [f"{self.name} scalar/vector parity: {diff}"] if diff else []

    def install_sampler(self, sample):
        sample.install_frontend()

    def safety_world(self, world):
        router = world["router"]
        return router.metro, router.cache_resolution_m

    def layer_counts(self, report):
        db, f, push = report["db"], report["frontend"], report["push_stats"]
        return {
            **db_counts(db),
            "wsdb.cluster.frontend.requests": f["requests"],
            "wsdb.cluster.frontend.coalesced_ratio": (
                f["coalesced"] / f["admitted"] if f["admitted"] else 0.0
            ),
            "wsdb.cluster.frontend.shed_ratio": f["shed_rate"],
            "wsdb.cluster.frontend.stale_ratio": (
                f["served_stale"] / f["shed"] if f["shed"] else 0.0
            ),
            "wsdb.cluster.router.fanout": (
                db["registration_fanout"] / db["mic_registrations"]
                if db["mic_registrations"]
                else 0.0
            ),
            "wsdb.cluster.push.notifications": push["notifications"],
        }


class Churn(Storm):
    """The querystorm driver on the write/miss side: ~2k clients on a
    12 km plane (14.4k cells against 4 x 2,048 cache slots), a uniform
    storm, a 10 s TTL and 150 mic registrations."""

    name = "churn"
    clients = 2_000
    extent_m = 12_000.0
    duration_us = 20e6
    mics = 150
    offered_qps = 1_000.0
    rate_limit_qps = None
    crowd_frac = 0.0
    ttl_us = 10e6
    cache_capacity = 2_048
    safety_stride = 11
    heavy = (
        "wsdb.index.covering_rect",
        "wsdb.service.channels_in_cell",
        "wsdb.service.register_mic",
        "wsdb.cluster.router.register_mic",
        "wsdb.cluster.frontend.register_mic",
        "wsdb.cluster.push.notify_zone",
    )

    def parity(self, seed):
        # The storm workload already holds the querystorm engines to
        # parity; churn differs only in parameters.
        return []


class WhiteFi(Workload):
    """The paper's layers: the MCham adaptive loop under background
    churn (fig13), one Section 5.3 disconnection episode and one
    Table-1 SIFT capture of ~9.4M samples."""

    name = "whitefi"
    heavy = ("sim.engine.run_until", "sim.medium.begin", "sim.medium.is_busy")
    #: (mean active us, mean passive us) of the fig13 churn points run.
    churn_points = (
        (1_300_000.0, 2_700_000.0),
        (2_000_000.0, 2_000_000.0),
        (2_700_000.0, 1_300_000.0),
    )
    protocol_free = (5, 6, 7, 8, 9, 12, 13, 14, 18, 27)
    #: Fixed episode horizon: the work does not depend on the seeded
    #: mic onset, and the outage is a small share of it, so
    #: ``connected_frac`` varies little across seeds.
    protocol_horizon_us = 36_000_000.0
    sift_width_mhz = 10.0
    sift_rate_mbps = 1.0
    sift_packets = 1_200

    def setup(self, seed: int) -> dict:
        whitefi = [
            ExperimentSpec(
                ScenarioSpec(
                    free_indices=SEVENTEEN_FREE,
                    num_channels=NUM_CHANNELS,
                    num_clients=2,
                    background_pool=BackgroundPoolSpec(
                        per_free_channel=2,
                        inter_packet_delay_us=20_000.0,
                        churn=churn,
                    ),
                    traffic=TrafficSpec(uplink=False),
                    duration_us=4_000_000.0,
                    seed=stream_seed(seed, "perfbench-whitefi", k),
                ),
                kind="whitefi",
                reeval_interval_us=1_000_000.0,
            )
            for k, churn in enumerate(self.churn_points)
        ]
        onset_us = 4_000_000.0 + 700_000.0 * (seed % 5)
        protocol = ExperimentSpec(
            ScenarioSpec(
                free_indices=self.protocol_free,
                num_channels=NUM_CHANNELS,
                num_clients=1,
                # Lands inside the 20 MHz main channel and stays on.
                mics=(MicSpec(7, sessions=((onset_us, 1e12),)),),
                seed=stream_seed(seed, "perfbench-protocol"),
            ),
            kind="protocol",
            run_until_us=self.protocol_horizon_us,
        )
        sift = ExperimentSpec(
            ScenarioSpec(
                free_indices=SEVENTEEN_FREE,
                num_channels=NUM_CHANNELS,
                seed=stream_seed(seed, "perfbench-sift"),
            ),
            kind="sift",
            sift_width_mhz=self.sift_width_mhz,
            sift_rate_mbps=self.sift_rate_mbps,
            sift_num_packets=self.sift_packets,
        )
        return {"specs": [*whitefi, protocol, sift]}

    def run(self, world, mark=None):
        results = []
        for k, spec in enumerate(world["specs"]):
            if mark is not None:
                mark(k)
            results.append(run_experiment(spec))
        return [json.loads(r.to_json()) for r in results]

    @staticmethod
    def _split(report):
        *whitefi, protocol, sift = report
        return whitefi, protocol, sift

    def guards(self, report, probe):
        whitefi, protocol, sift = self._split(report)
        episode = protocol["disconnections"][0]
        onset = episode["mic_onset_us"]
        horizon = self.protocol_horizon_us
        vacated = episode["vacated_us"]
        reconnected = episode["reconnected_us"]
        outage = (horizon if reconnected is None else reconnected) - onset
        exposed = (horizon if vacated is None else vacated) - onset
        metrics = dict(sift["metrics"])
        return {
            "connected_frac": 1.0 - outage / horizon,
            "violation_free_frac": 1.0 - exposed / horizon,
            "answered_frac": metrics["sift_detected"] / metrics["sift_sent"],
            "goodput_mbps": sum(r["per_client_mbps"] for r in whitefi)
            / len(whitefi),
        }

    def invariants(self, report):
        whitefi, protocol, sift = self._split(report)
        errors = []
        if any(r["per_client_mbps"] <= 0.0 for r in whitefi):
            errors.append("whitefi run with zero goodput")
        if len(protocol["disconnections"]) != 1:
            errors.append("protocol episode: expected one disconnection")
        else:
            e = protocol["disconnections"][0]
            times = [e["mic_onset_us"], e["vacated_us"], e["reconnected_us"]]
            if None in times or times != sorted(times):
                errors.append("protocol episode: onset <= vacate <= reconnect broken")
        metrics = dict(sift["metrics"])
        if not 0 < metrics["sift_detected"] <= metrics["sift_sent"]:
            errors.append("sift: detected not in (0, sent]")
        return errors


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Roam(), Storm(), Churn(), WhiteFi())
}
