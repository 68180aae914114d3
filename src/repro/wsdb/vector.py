"""The mobile tick loops, and the columnar fleet that scales them.

Each mobile run kind has one driver here, written against the fleet
stages (``set_snapshot``, ``advance``, ``cells``, ``recheck_due``,
``commit_recheck``, ``associate_and_score``):
:func:`drive_roaming` behind
:func:`~repro.wsdb.mobility.simulate_roaming` and
:func:`drive_querystorm` behind
:func:`~repro.wsdb.cluster.querystorm.simulate_querystorm`.  World
build, mic registration and AP displacement, the storm feed, push
subscriptions, deferral, the observer calls
(:class:`~repro.wsdb.observe.RunObserver`), the profiler phases and
report assembly are written once; ``engine`` only picks the fleet
class (:data:`FLEETS`).

:class:`VectorFleet` holds the whole fleet in columns (positions,
waypoints, cached-response ids, trigger cells, TTL buckets, assigned
APs, per-client counters — one numpy array each) and batches each
stage as array ops; :class:`~repro.wsdb.mobility.ScalarFleet` is the
per-client reference it is checked against:

* **Waypoint advance** — the common case (the tick ends before the
  current leg does) is one fused array expression; the rare
  waypoint-crossing walkers fall back to the scalar
  :func:`~repro.wsdb.mobility.advance_position` with their own
  per-client RNGs, so waypoint draws replay the exact scalar streams.
* **Re-check detection** — 100 m square crossings and TTL expiry via
  integer cell arithmetic (``floor(x / recheck_m)`` per axis), one
  compare per trigger.
* **Grouped DB lookups** — the tick's re-checkers submit their cells in
  client order through
  :meth:`~repro.wsdb.service.WhiteSpaceDatabase.channels_in_cells`; the
  (cell, TTL-bucket) response cache is the memoization, so N clients in
  one cell cost one computed response, and the database sees the exact
  query sequence per-client lookups would send (cache stats match to
  the eviction).
* **Response interning** — distinct response tuples intern to small
  ids; eligibility (``ap_spans <= response``) is a (responses x APs)
  bool table rebuilt only when the AP snapshot changes, and a tick's
  per-client eligibility is one fancy-index into it.
* **Association** — nearest eligible AP by running elementwise minimum
  over the live-AP columns in ascending ``ap_id`` order with a strict
  ``<`` update: exactly the scalar ``min`` under the squared-distance
  + ``ap_id`` key.  Mic-zone vacation is the same eligibility table
  applied to the previous tick's AP column, as one mask.
* **Compliance** — per active incumbent, a squared-form coverage mask
  (:func:`~repro.wsdb.model.point_in_circle`'s algebra, elementwise)
  ANDed with "the client's AP spans this incumbent's channel".

**The bit-identity contract.**  Every float the hot path produces goes
through +, -, *, /, sqrt, and floor only — all correctly-rounded
IEEE-754 operations — in the same operand order as the scalar
reference, so positions, distances, and cell ids are bit-identical,
not merely close.  The reports of the two fleets compare equal
(``==``), field for field, including the nested db/frontend/push
stats — the property ``tests/wsdb/test_vector.py`` sweeps seeds x
fleet sizes x speeds to pin.
"""

from __future__ import annotations

import math
import random
from typing import Any

import numpy as np

from repro.sim.rng import stream_seed
from repro.telemetry.profiler import NULL_PROFILER
from repro.wsdb.citywide import (
    boot_aps,
    displace_covered_aps,
    generate_mic_events,
    snapshot_assigned_aps,
)
from repro.wsdb.cluster.frontend import BatchFrontend
from repro.wsdb.cluster.push import PushRegistry
from repro.wsdb.cluster.querystorm import StormFeed, synthetic_storm
from repro.wsdb.mobility import (
    RoamingClient,
    ScalarFleet,
    advance_position,
    spawn_clients,
)
from repro.wsdb.observe import RunObserver
from repro.wsdb.service import ttl_bucket

__all__ = [
    "FLEETS",
    "VectorFleet",
    "drive_querystorm",
    "drive_roaming",
]

#: Sentinel for "no cell observed yet" in the trigger-cell columns;
#: far outside any reachable quantization cell, so the first tick's
#: comparison always fires (the scalar engine's ``last_cell = None``).
_NO_CELL = np.iinfo(np.int64).min


class VectorFleet:
    """Columnar state for a fleet of waypoint-walking mobile clients.

    Built from the same :func:`~repro.wsdb.mobility.spawn_clients`
    output the scalar engine iterates, so initial positions, waypoints,
    and the per-client RNG objects (kept for waypoint-crossing draws)
    are shared by construction.
    """

    def __init__(self, clients: list[RoamingClient], extent_m: float):
        self.n = len(clients)
        self.extent_m = extent_m
        self.x = np.array([c.x_m for c in clients], dtype=np.float64)
        self.y = np.array([c.y_m for c in clients], dtype=np.float64)
        self.wx = np.array([c.waypoint[0] for c in clients], dtype=np.float64)
        self.wy = np.array([c.waypoint[1] for c in clients], dtype=np.float64)
        self.rngs = [c.rng for c in clients]
        # Cached-response ids into the intern table; id 0 is the
        # "never queried" empty response every client starts with.
        self.resp_id = np.zeros(self.n, dtype=np.int64)
        self.last_tx = np.full(self.n, _NO_CELL, dtype=np.int64)
        self.last_ty = np.full(self.n, _NO_CELL, dtype=np.int64)
        self.last_bucket = np.full(self.n, -1, dtype=np.int64)
        self.prev_ap = np.full(self.n, -1, dtype=np.int64)
        self.requeries = np.zeros(self.n, dtype=np.int64)
        self.handoffs = np.zeros(self.n, dtype=np.int64)
        self.vacations = np.zeros(self.n, dtype=np.int64)
        self.connected = np.zeros(self.n, dtype=np.int64)
        self.violations = np.zeros(self.n, dtype=np.int64)
        self.disconnected_ticks = 0
        # Response interning: distinct response tuples -> small ids.
        self._responses: list[frozenset[int]] = [frozenset()]
        self._resp_ids: dict[tuple[int, ...], int] = {(): 0}
        # Snapshot-dependent state (set_snapshot).
        self._live_ids = np.zeros(0, dtype=np.int64)
        self._ap_x = np.zeros(0, dtype=np.float64)
        self._ap_y = np.zeros(0, dtype=np.float64)
        self._live_spans: list[frozenset[int]] = []
        self._col_of: np.ndarray = np.full(1, -1, dtype=np.int64)
        self._elig = np.zeros((1, 0), dtype=bool)
        self._uhf_cols: dict[int, np.ndarray] = {}

    # -- AP snapshot ---------------------------------------------------------

    def set_snapshot(
        self,
        live_aps: list[tuple[Any, frozenset[int]]],
        num_aps: int,
    ) -> None:
        """Columnarize one ``snapshot_assigned_aps`` live list.

        Rebuilds the eligibility table for every interned response and
        drops the per-channel span masks (both are pure functions of
        the snapshot + intern table).
        """
        self._live_ids = np.array(
            [ap.ap_id for ap, _ in live_aps], dtype=np.int64
        )
        self._ap_x = np.array([ap.x_m for ap, _ in live_aps], dtype=np.float64)
        self._ap_y = np.array([ap.y_m for ap, _ in live_aps], dtype=np.float64)
        self._live_spans = [spans for _, spans in live_aps]
        self._col_of = np.full(max(1, num_aps), -1, dtype=np.int64)
        for col, (ap, _) in enumerate(live_aps):
            self._col_of[ap.ap_id] = col
        self._elig = self._elig_rows(self._responses)
        self._uhf_cols = {}

    def _elig_rows(self, responses: list[frozenset[int]]) -> np.ndarray:
        rows = [
            [spans <= resp for spans in self._live_spans]
            for resp in responses
        ]
        return np.array(rows, dtype=bool).reshape(
            len(responses), len(self._live_spans)
        )

    def intern(self, response: tuple[int, ...]) -> int:
        """The id of *response*, creating one (plus its eligibility row)."""
        rid = self._resp_ids.get(response)
        if rid is None:
            rid = len(self._responses)
            resp_set = frozenset(response)
            self._responses.append(resp_set)
            self._resp_ids[response] = rid
            self._elig = np.concatenate(
                [self._elig, self._elig_rows([resp_set])]
            )
        return rid

    def _spans_cols(self, uhf_index: int) -> np.ndarray:
        """Bool per live-AP column: does its channel span *uhf_index*?"""
        mask = self._uhf_cols.get(uhf_index)
        if mask is None:
            mask = np.array(
                [uhf_index in spans for spans in self._live_spans],
                dtype=bool,
            )
            self._uhf_cols[uhf_index] = mask
        return mask

    # -- per-tick batched stages ---------------------------------------------

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """The live (x, y) columns."""
        return self.x, self.y

    def advance(self, step_m: float) -> None:
        """Advance every walker by *step_m* along its waypoint path.

        The non-crossing fast path is the scalar loop's else-branch
        arithmetic (``pos += delta / leg * step``) elementwise; walkers
        whose leg ends within the tick replay the exact scalar
        :func:`advance_position` (their RNG draws must consume the same
        stream values the scalar engine would).
        """
        x, y, wx, wy = self.x, self.y, self.wx, self.wy
        dx = wx - x
        dy = wy - y
        leg = np.sqrt(dx * dx + dy * dy)
        crossing = leg <= step_m
        cross_idx = np.flatnonzero(crossing)
        if cross_idx.size:
            far = ~crossing
            x[far] += dx[far] / leg[far] * step_m
            y[far] += dy[far] / leg[far] * step_m
            extent = self.extent_m
            for i in cross_idx.tolist():
                xi, yi, wxi, wyi = advance_position(
                    float(x[i]),
                    float(y[i]),
                    float(wx[i]),
                    float(wy[i]),
                    self.rngs[i],
                    step_m,
                    extent,
                )
                x[i] = xi
                y[i] = yi
                wx[i] = wxi
                wy[i] = wyi
        else:
            x += dx / leg * step_m
            y += dy / leg * step_m

    def cells(self, resolution_m: float) -> tuple[np.ndarray, np.ndarray]:
        """Quantization cells of every client at *resolution_m*.

        ``floor(x / res)`` per axis — float division and floor are
        correctly rounded, and the result is integral, so the int64
        cast equals the scalar ``quantize_cell`` exactly.
        """
        qx = np.floor(self.x / resolution_m).astype(np.int64)
        qy = np.floor(self.y / resolution_m).astype(np.int64)
        return qx, qy

    def recheck_due(
        self, trig_x: np.ndarray, trig_y: np.ndarray, bucket: int
    ) -> np.ndarray:
        """Client indices due a re-check (crossed a square or TTL edge)."""
        need = (
            (trig_x != self.last_tx)
            | (trig_y != self.last_ty)
            | (self.last_bucket != bucket)
        )
        return np.flatnonzero(need)

    def commit_recheck(
        self,
        idx: np.ndarray,
        trig_x: np.ndarray,
        trig_y: np.ndarray,
        bucket: int,
        responses: list[tuple[int, ...]],
    ) -> None:
        """Adopt fresh responses for the re-checked clients *idx*."""
        rid = self.resp_id
        for j, i in enumerate(idx.tolist()):
            rid[i] = self.intern(responses[j])
        self.last_tx[idx] = trig_x[idx]
        self.last_ty[idx] = trig_y[idx]
        self.last_bucket[idx] = bucket
        self.requeries[idx] += 1

    def associate_and_score(
        self, metro, t_us: float, profiler: Any = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One tick of vacation, association, handoff, and compliance.

        Mirrors the scalar loop's per-client sequence exactly: vacate
        when the previous AP's spans are no longer permitted, associate
        with the nearest eligible AP (running min over ascending
        ``ap_id`` columns with strict ``<`` — the scalar tie-break),
        count handoffs/connected ticks, then score ground truth.

        Returns the tick's outcome arrays ``(connected, new_ap,
        best_col, handoff_mask, violating)`` — cheap references the
        trace-recording hooks read; counters are already applied.

        An optional wall-clock ``profiler`` splits the stage into its
        two phases ("associate", "compliance") — pure observation, the
        arrays are untouched.
        """
        prof = NULL_PROFILER if profiler is None else profiler
        with prof.phase("associate"):
            n_live = len(self._live_spans)
            m = self.n
            elig = self._elig[self.resp_id]  # (m, n_live) bool
            prev = self.prev_ap

            # Vacation: the previous AP (still assigned this snapshot)
            # whose spans the current response denies.
            prev_col = self._col_of[np.clip(prev, 0, None)]
            prev_col = np.where(prev >= 0, prev_col, -1)
            has_prev = prev_col >= 0
            prev_ok = np.zeros(m, dtype=bool)
            pi = np.flatnonzero(has_prev)
            if pi.size:
                prev_ok[pi] = elig[pi, prev_col[pi]]
            self.vacations[has_prev & ~prev_ok] += 1

            # Association: running elementwise min over live-AP columns.
            best = np.full(m, np.inf)
            best_col = np.full(m, -1, dtype=np.int64)
            for col in range(n_live):
                ddx = self._ap_x[col] - self.x
                ddy = self._ap_y[col] - self.y
                d2 = ddx * ddx + ddy * ddy
                d2[~elig[:, col]] = np.inf
                better = d2 < best
                best[better] = d2[better]
                best_col[better] = col
            connected = best_col >= 0
            if n_live:
                new_ap = np.where(
                    connected, self._live_ids[np.clip(best_col, 0, None)], -1
                )
            else:
                new_ap = np.full(m, -1, dtype=np.int64)
            self.disconnected_ticks += int(np.count_nonzero(~connected))
            handoff_mask = (prev >= 0) & connected & (new_ap != prev)
            self.handoffs[handoff_mask] += 1
            self.connected[connected] += 1
            self.prev_ap = new_ap

        with prof.phase("compliance"):
            # Compliance: per active incumbent, a coverage mask ANDed
            # with "this client's AP spans the incumbent's channel".
            violating = np.zeros(m, dtype=bool)
            ap_col = np.clip(best_col, 0, None)
            for entry in (*metro.sites, *metro.registrations):
                if not entry.active_at(t_us):
                    continue
                span_cols = self._spans_cols(entry.uhf_index)
                if not span_cols.any():
                    continue
                cand = np.flatnonzero(connected & span_cols[ap_col])
                if not cand.size:
                    continue
                cdx = self.x[cand] - entry.x_m
                cdy = self.y[cand] - entry.y_m
                radius = entry.radius_m
                covered = cdx * cdx + cdy * cdy <= radius * radius
                violating[cand[covered]] = True
            self.violations[violating] += 1
        return connected, new_ap, best_col, handoff_mask, violating


#: The fleet class each ``engine`` name selects.
FLEETS = {"scalar": ScalarFleet, "vector": VectorFleet}


class _World:
    """One session's APs, fleet, mic schedule and undelivered pushes.

    Built off the ``{label}-aps`` / ``{label}-client`` / ``{label}-mics``
    streams of the seed.  Mic registrations go through *frontend* when
    the kind has one, else straight to *db*; the world observes each
    one and handles the AP displacement it causes.
    """

    def __init__(
        self,
        db,
        fleet_cls,
        label: str,
        num_aps: int,
        num_clients: int,
        duration_us: float,
        seed: int,
        mic_events: int,
        interference_radius_m: float,
        obs: RunObserver,
        frontend: BatchFrontend | None = None,
    ):
        extent_m = db.metro.extent_m
        self.db = db
        self.num_aps = num_aps
        self.interference_radius_m = interference_radius_m
        self.obs = obs
        self.frontend = frontend
        self.aps = boot_aps(
            db, num_aps, seed, f"{label}-aps", interference_radius_m
        )
        self.fleet = fleet_cls(
            spawn_clients(num_clients, seed, f"{label}-client", extent_m),
            extent_m,
        )
        self.events = generate_mic_events(
            mic_events,
            duration_us,
            extent_m,
            db.metro.num_channels,
            stream_seed(seed, f"{label}-mics"),
        )
        self.next_event = 0
        self.displaced = self.backup_recoveries = 0
        self.full_reassignments = self.outages = 0
        # Undelivered push notifications: a notified client leaves this
        # set only once its refresh query is actually admitted, so
        # admission control can delay — but never silently drop — a
        # notification.
        self.pushed = np.zeros(num_clients, dtype=bool)
        self.snapshot()

    def snapshot(self) -> None:
        """Hand the fleet the APs currently holding a channel."""
        self.live_aps = snapshot_assigned_aps(self.aps)
        self.fleet.set_snapshot(self.live_aps, self.num_aps)

    def fire_mics(self, t_us: float) -> bool:
        """Register every mic event starting by *t_us*; True if any did.

        Cached responses inside the zone are invalidated and covered
        APs walk their backups, exactly as in the citywide driver.
        """
        fired = False
        resolution_m = self.db.cache_resolution_m
        while (
            self.next_event < len(self.events)
            and self.events[self.next_event].t_us <= t_us
        ):
            index = self.next_event
            event = self.events[index]
            registration = event.registration()
            if self.frontend is None:
                invalidated = self.db.register_mic(registration)
                self.obs.mic(event, index, resolution_m, invalidated=invalidated)
            else:
                notified = self.frontend.register_mic(registration)
                self.pushed[list(notified)] = True
                self.obs.mic(
                    event, index, resolution_m, notified, frontend=self.frontend
                )
            d, b, r, o = displace_covered_aps(
                self.db, self.aps, event, registration,
                self.interference_radius_m,
            )
            self.displaced += d
            self.backup_recoveries += b
            self.full_reassignments += r
            self.outages += o
            self.next_event += 1
            fired = True
        return fired

    def report(self) -> dict[str, Any]:
        """The deployment and mic-displacement block of a report."""
        return {
            "assigned_aps": sum(1 for ap in self.aps if ap.channel is not None),
            "mic_events": len(self.events),
            "displaced_aps": self.displaced,
            "backup_recoveries": self.backup_recoveries,
            "full_reassignments": self.full_reassignments,
            "outages": self.outages,
        }


#: The end-of-run fleet counters both kinds publish.
_FLEET_COUNTERS = (
    "requeries", "handoffs", "vacations", "violation_ticks",
    "connected_ticks", "disconnected_ticks",
)


def _fleet_report(fleet, ticks: int, recheck_m: float) -> dict[str, Any]:
    """The per-client accounting block shared by both drivers."""
    requeries = fleet.requeries.tolist()
    handoffs = fleet.handoffs.tolist()
    vacations = fleet.vacations.tolist()
    connected = fleet.connected.tolist()
    connected_ticks = sum(connected)
    violation_ticks = int(fleet.violations.sum())
    client_ticks = fleet.n * (ticks + 1)
    qx, qy = fleet.cells(recheck_m)
    return {
        "requeries": sum(requeries),
        "handoffs": sum(handoffs),
        "vacations": sum(vacations),
        "connected_ticks": connected_ticks,
        "disconnected_ticks": fleet.disconnected_ticks,
        "connected_fraction": (
            connected_ticks / client_ticks if client_ticks else 0.0
        ),
        "violation_ticks": violation_ticks,
        "violation_free_fraction": (
            1.0 - violation_ticks / connected_ticks if connected_ticks else 1.0
        ),
        "per_client": tuple(
            (i, requeries[i], handoffs[i], vacations[i], connected[i])
            for i in range(fleet.n)
        ),
        "final_cells": tuple(zip(qx.tolist(), qy.tolist())),
    }


def drive_roaming(
    db,
    fleet_cls,
    *,
    num_aps: int,
    num_clients: int,
    duration_us: float,
    seed: int,
    speed_mps: float,
    recheck_m: float,
    mic_events: int,
    tick_us: float,
    interference_radius_m: float,
    obs: RunObserver,
    profiler: Any,
) -> dict[str, Any]:
    """The roaming tick loop; see :func:`~repro.wsdb.mobility.simulate_roaming`.

    Inputs arrive validated.  Each tick: fire due mic events, advance
    the fleet, submit the due re-checks' *query* cells (the database's
    own resolution, which the trigger granularity need not match) in
    client order as one batch lookup, then associate and score.
    """
    prof = NULL_PROFILER if profiler is None else profiler
    world = _World(
        db, fleet_cls, "roaming", num_aps, num_clients, duration_us, seed,
        mic_events, interference_radius_m, obs,
    )
    fleet = world.fleet
    aligned = recheck_m == db.cache_resolution_m
    step_m = speed_mps * tick_us / 1e6
    ticks = int(duration_us // tick_us)

    def columns() -> dict[str, int]:
        return {
            "queries": db.stats.queries,
            "cache_hits": db.stats.cache_hits,
            "requeries": int(fleet.requeries.sum()),
        }

    for k in range(ticks + 1):
        t_us = k * tick_us
        if world.fire_mics(t_us):
            world.snapshot()

        if k > 0:
            with prof.phase("advance"):
                fleet.advance(step_m)

        with prof.phase("recheck-detect"):
            trig_x, trig_y = fleet.cells(recheck_m)
            bucket = ttl_bucket(t_us, db.ttl_us)
            idx = fleet.recheck_due(trig_x, trig_y, bucket)
        if idx.size:
            with prof.phase("batch-lookup"):
                if aligned:
                    qx, qy = trig_x, trig_y
                else:
                    qx, qy = fleet.cells(db.cache_resolution_m)
                cells = list(zip(qx[idx].tolist(), qy[idx].tolist()))
                responses = db.channels_in_cells(cells, t_us)
                fleet.commit_recheck(idx, trig_x, trig_y, bucket, responses)
            obs.db_recheck(t_us, db, fleet, idx, cells, responses)

        tick = fleet.associate_and_score(db.metro, t_us, profiler=prof)
        obs.tick(t_us, fleet, world.live_aps, tick, trig_x, trig_y, columns)

    obs.run_end(ticks * tick_us, fleet, trig_x, trig_y)
    # When duration_us is not a tick multiple, events can start after
    # the last evaluated tick; register them anyway so the database,
    # the displacement accounting, and the reported event count agree
    # with simulate_citywide's process-every-event semantics.
    world.fire_mics(math.inf)

    tallies = _fleet_report(fleet, ticks, recheck_m)
    report = {
        "num_aps": num_aps,
        "num_clients": num_clients,
        "duration_us": duration_us,
        "tick_us": tick_us,
        "speed_mps": speed_mps,
        "recheck_m": recheck_m,
        "extent_m": db.metro.extent_m,
        "requeries_per_client": tallies["requeries"] / num_clients,
        **tallies,
        **world.report(),
        "db": db.stats.as_dict(),
    }
    counters = {name: tallies[name] for name in _FLEET_COUNTERS}
    return obs.attach(report, db, counters)


def drive_querystorm(
    router,
    fleet_cls,
    *,
    num_aps: int,
    num_clients: int,
    duration_us: float,
    seed: int,
    offered_qps: float,
    push: bool,
    speed_mps: float,
    recheck_m: float,
    mic_events: int,
    tick_us: float,
    rate_limit_qps: float | None,
    burst_size: float | None,
    policy: str,
    interference_radius_m: float,
    storm_source: Any,
    obs: RunObserver,
    profiler: Any,
) -> dict[str, Any]:
    """The querystorm tick loop; see
    :func:`~repro.wsdb.cluster.querystorm.simulate_querystorm`.

    Inputs arrive validated.  Movement, re-check detection,
    association, and compliance are fleet stages; everything whose
    *order* the cluster tier can observe is sequential — the storm
    burst, per-re-checker ``frontend.query`` calls (token-bucket
    admission is order-sensitive), and push-registry subscriptions
    (movers only: a same-cell re-subscribe is a stats-free no-op).
    """
    prof = NULL_PROFILER if profiler is None else profiler
    registry = PushRegistry(router.cache_resolution_m) if push else None
    frontend = BatchFrontend(
        router,
        rate_limit_qps=rate_limit_qps,
        burst_size=burst_size,
        policy=policy,
        push=registry,
    )
    world = _World(
        router, fleet_cls, "querystorm", num_aps, num_clients, duration_us,
        seed, mic_events, interference_radius_m, obs, frontend,
    )
    fleet = world.fleet
    pushed = world.pushed
    step_m = speed_mps * tick_us / 1e6
    ticks = int(duration_us // tick_us)
    if storm_source is None:
        storm_source = synthetic_storm(
            offered_qps,
            tick_us,
            ticks,
            router.metro.extent_m,
            random.Random(stream_seed(seed, "querystorm-load")),
        )
    feed = StormFeed(storm_source)
    storm_queries = deferred_requeries = push_refreshes = 0
    # First-attempt time of a deferred re-check, per client: when a shed
    # re-check finally lands, its latency counts the wait from the
    # *first* attempt, not the successful retry.
    pending_since: list[float | None] = [None] * fleet.n
    # Registry-subscription shadow cells (movers-only subscribe needs
    # to know who moved).
    sub_x = np.full(fleet.n, _NO_CELL, dtype=np.int64)
    sub_y = np.full(fleet.n, _NO_CELL, dtype=np.int64)

    def columns() -> dict[str, int]:
        agg = router.aggregate_stats()
        return {
            "queries": agg.queries,
            "cache_hits": agg.cache_hits,
            "requests": frontend.stats.requests,
            "shed": frontend.stats.shed,
            "pushes": (
                registry.stats.notifications if registry is not None else 0
            ),
        }

    for k in range(ticks + 1):
        t_us = k * tick_us
        if world.fire_mics(t_us):
            world.snapshot()

        # The storm burst goes first: background load contends for
        # admission tokens ahead of the clients' re-checks, which is
        # the starvation scenario shed policies exist for.
        points = feed.burst(t_us)
        if points:
            responses = frontend.query_batch(points, t_us)
            obs.frontend_batch(
                frontend, t_us, "storm", storm_queries, points,
                feed.last_times, responses,
            )
            storm_queries += len(points)

        if k > 0:
            with prof.phase("advance"):
                fleet.advance(step_m)

        if registry is not None:
            rcx, rcy = fleet.cells(router.cache_resolution_m)
            moved = np.flatnonzero((rcx != sub_x) | (rcy != sub_y))
            for i in moved.tolist():
                registry.subscribe(i, int(rcx[i]), int(rcy[i]))
            sub_x[moved] = rcx[moved]
            sub_y[moved] = rcy[moved]

        # The re-check rule, plus the push escape hatch: a client
        # notified this tick refreshes immediately instead of riding
        # its stale response to the next crossing/expiry.
        with prof.phase("recheck-detect"):
            trig_x, trig_y = fleet.cells(recheck_m)
            bucket = ttl_bucket(t_us, router.ttl_us)
            due = fleet.recheck_due(trig_x, trig_y, bucket)
            if pushed.any():
                due = np.union1d(due, np.flatnonzero(pushed))
        # Admission is order-sensitive, so re-checkers query one at a
        # time in client order.
        with prof.phase("batch-lookup"):
            x, y = fleet.positions()
            admitted_idx: list[int] = []
            answers: list[tuple[int, ...]] = []
            for i in due.tolist():
                since = pending_since[i]
                xi, yi = float(x[i]), float(y[i])
                response = frontend.query(xi, yi, t_us)
                if obs.on:
                    obs.frontend_batch(
                        frontend, t_us, "recheck", i, [(xi, yi)],
                        [t_us if since is None else since], [response],
                    )
                if response is None:
                    # Shed without a stale fallback: keep the old
                    # response and retry next tick (the deferral the
                    # reject policy produces under storm starvation).
                    deferred_requeries += 1
                    if since is None:
                        pending_since[i] = t_us
                else:
                    pending_since[i] = None
                    admitted_idx.append(i)
                    answers.append(response)
            idx = np.array(admitted_idx, dtype=np.int64)
            fleet.commit_recheck(idx, trig_x, trig_y, bucket, answers)
            push_refreshes += int(np.count_nonzero(pushed[idx]))
            pushed[idx] = False

        tick = fleet.associate_and_score(router.metro, t_us, profiler=prof)
        obs.tick(t_us, fleet, world.live_aps, tick, trig_x, trig_y, columns)

    obs.run_end(ticks * tick_us, fleet, trig_x, trig_y)
    # Events past the last evaluated tick register anyway, mirroring
    # the citywide/roaming process-every-event semantics.
    world.fire_mics(math.inf)

    tallies = _fleet_report(fleet, ticks, recheck_m)
    report = {
        "num_aps": num_aps,
        "num_clients": num_clients,
        "num_shards": router.num_shards,
        "shard_grid": router.grid,
        "duration_us": duration_us,
        "tick_us": tick_us,
        "speed_mps": speed_mps,
        "recheck_m": recheck_m,
        "extent_m": router.metro.extent_m,
        "offered_qps": offered_qps,
        "push": push,
        "rate_limit_qps": rate_limit_qps,
        "shed_policy": policy,
        "storm_queries": storm_queries,
        "deferred_requeries": deferred_requeries,
        "push_refreshes": push_refreshes,
        **tallies,
        "violation_us": tallies["violation_ticks"] * tick_us,
        **world.report(),
        "frontend": frontend.stats.as_dict(),
        "push_stats": (
            registry.stats.as_dict() if registry is not None else None
        ),
        "db": router.stats_dict(),
        "per_shard": router.per_shard_stats(),
    }
    counters = {
        "storm_queries": storm_queries,
        "deferred_requeries": deferred_requeries,
        "push_refreshes": push_refreshes,
        **{name: tallies[name] for name in _FLEET_COUNTERS},
    }
    return obs.attach(report, frontend, counters)
