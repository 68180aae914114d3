"""Mobile white-space clients roaming a metro: the 100 m re-check rule.

The FCC regime the wsdb models is built around *portable* devices: a
white space device that moves must re-query the database after
traveling ~100 m (and periodically even when parked).  The ``roaming``
workload models exactly that — the one a per-coordinate response cache
serves worst and the cell-granular protocol
(:meth:`~repro.wsdb.service.WhiteSpaceDatabase.channels_in_cell`) was
built for:

* ``M`` mobile clients follow seeded waypoint paths across the metro
  plane at a fixed speed, each re-querying the database **only** when
  it crosses a quantization-square boundary (``recheck_m``) or its
  response's TTL bucket expires — the pull-based compliance rule, not
  continuous polling.
* Between re-queries a client acts on its last response (valid for its
  whole cell), associating with the nearest assigned
  :class:`~repro.wsdb.citywide.CityAp` whose channel the response
  permits at the client's location; association changes are counted as
  handoffs.
* Mid-session microphone registrations invalidate cached responses and
  displace covered APs (the citywide backup-channel walk).  A client
  whose path — or whose fresh response — runs into a protection zone
  on its AP's channel **vacates** the channel and hands off or
  disconnects.
* Compliance is scored against ground truth: a connected client whose
  channel is actually protected at its true position (it moved into a
  zone, or a mic session started, before its next re-check) is in
  violation for that tick.  The ``violation_free_fraction`` is the
  quality of the re-check rule itself — the staleness the pull model
  admits.

This module holds the per-client model: the :class:`RoamingClient`
record, the reference kinematics / association / compliance functions,
:class:`ScalarFleet` (the fleet stages as plain per-client loops over
them), and the :func:`simulate_roaming` entry point.  The tick loop
itself lives in :mod:`repro.wsdb.vector`, written once against the
fleet stages; ``engine`` only picks the fleet class.  Because
:class:`ScalarFleet` computes per client what the columnar
:class:`~repro.wsdb.vector.VectorFleet` computes in array passes,
running both through the one driver checks the vector engine against
an independent oracle.

Everything derives from the master seed through labelled
:func:`~repro.sim.rng.stream_seed` streams, so a run is byte-identical
in any process — the contract the ``roaming`` run kind and
``ParallelRunner`` rely on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import SimulationError
from repro.sim.rng import stream_seed
from repro.telemetry.profiler import NULL_PROFILER
from repro.wsdb.citywide import DEFAULT_INTERFERENCE_RADIUS_M, CityAp
from repro.wsdb.observe import RunObserver
from repro.wsdb.service import WhiteSpaceDatabase, quantize_cell

__all__ = [
    "RoamingClient",
    "ScalarFleet",
    "advance_client",
    "advance_position",
    "associate_nearest",
    "check_fleet_inputs",
    "in_violation",
    "simulate_roaming",
    "spawn_clients",
]

#: The mobile engines a roaming or querystorm run can select.
#: "scalar" is :class:`ScalarFleet`, the per-client reference; "vector"
#: is the columnar numpy :class:`~repro.wsdb.vector.VectorFleet`,
#: bit-identical to it by construction.
ENGINES = ("scalar", "vector")

#: Default client speed (meters/second): ~50 km/h, a metro vehicle.
DEFAULT_SPEED_MPS = 14.0

#: Default simulation tick (microseconds).  At the default speed a
#: client moves 14 m per tick — fine-grained against the 100 m rule.
DEFAULT_TICK_US = 1_000_000.0


@dataclass
class RoamingClient:
    """One mobile client: a position, a path, and a cached response."""

    client_id: int
    x_m: float
    y_m: float
    waypoint: tuple[float, float]
    # Required, not defaulted: an implicit `random.Random()` fallback
    # would seed from OS entropy and break run reproducibility.
    rng: random.Random = field(repr=False)
    known_free: frozenset[int] = frozenset()
    last_cell: tuple[int, int] | None = None
    last_bucket: int = -1
    ap: CityAp | None = None


def associate_nearest(
    x_m: float,
    y_m: float,
    known_free: frozenset[int],
    live_aps: list[tuple[CityAp, frozenset[int]]],
) -> CityAp | None:
    """The AP a client at (x, y) with response *known_free* associates to.

    Nearest assigned AP whose channel the response permits; equidistant
    APs resolve deterministically by ascending ``ap_id`` — the explicit
    tie-break the byte-identical parallel/sequential contract needs
    (``min`` alone would silently depend on list order).  Returns None
    when no AP's channel is permitted (the client disconnects).
    """
    eligible = [ap for ap, spans in live_aps if spans <= known_free]

    # Squared distance, not math.hypot: *, +, and the comparison are
    # correctly-rounded IEEE-754 operations, so the vectorized engine's
    # running-min association reproduces this ordering bit-for-bit
    # (hypot's extra guard arithmetic carries no such guarantee).
    def _key(ap: CityAp) -> tuple[float, int]:
        dx = ap.x_m - x_m
        dy = ap.y_m - y_m
        return (dx * dx + dy * dy, ap.ap_id)

    return min(eligible, key=_key, default=None)


def advance_position(
    x_m: float,
    y_m: float,
    wx: float,
    wy: float,
    rng: random.Random,
    distance_m: float,
    extent_m: float,
) -> tuple[float, float, float, float]:
    """Advance one waypoint walker by *distance_m*; returns (x, y, wx, wy).

    The pure kinematics core of :func:`advance_client`, shared verbatim
    with the vectorized engine's waypoint-crossing fallback so both
    engines draw the same waypoints from the same per-client streams
    and land on bit-identical coordinates.  Leg lengths use
    ``sqrt(dx*dx + dy*dy)`` — correctly-rounded IEEE-754 throughout —
    so numpy's elementwise fast path for non-crossing walkers computes
    the exact same floats.
    """
    remaining = distance_m
    while remaining > 0.0:
        dx, dy = wx - x_m, wy - y_m
        leg = math.sqrt(dx * dx + dy * dy)
        if leg <= remaining:
            x_m, y_m = wx, wy
            remaining -= leg
            new_wx = rng.uniform(0.0, extent_m)
            new_wy = rng.uniform(0.0, extent_m)
            if leg == 0.0 and (new_wx, new_wy) == (wx, wy):
                # Degenerate double-draw of the same point; give up the
                # remainder of this tick rather than spin.
                return x_m, y_m, new_wx, new_wy
            wx, wy = new_wx, new_wy
        else:
            x_m += dx / leg * remaining
            y_m += dy / leg * remaining
            remaining = 0.0
    return x_m, y_m, wx, wy


def advance_client(
    client: RoamingClient, distance_m: float, extent_m: float
) -> None:
    """Move *client* along its waypoint path by *distance_m* meters.

    :class:`ScalarFleet` steps every client of either kind through
    this, so path kinematics stay identical across kinds by
    construction.
    """
    wx, wy = client.waypoint
    client.x_m, client.y_m, wx, wy = advance_position(
        client.x_m, client.y_m, wx, wy, client.rng, distance_m, extent_m
    )
    client.waypoint = (wx, wy)


def spawn_clients(
    num_clients: int, seed: int, stream: str, extent_m: float
) -> list[RoamingClient]:
    """The seeded mobile fleet both engines start from.

    Each client draws its start position and first waypoint from its
    own labelled child stream, so fleet construction is byte-identical
    across engines, processes, and client counts (client *i*'s path
    never depends on how many peers exist).
    """
    clients: list[RoamingClient] = []
    for i in range(num_clients):
        rng = random.Random(stream_seed(seed, f"{stream}-{i}"))
        clients.append(
            RoamingClient(
                client_id=i,
                x_m=rng.uniform(0.0, extent_m),
                y_m=rng.uniform(0.0, extent_m),
                waypoint=(rng.uniform(0.0, extent_m), rng.uniform(0.0, extent_m)),
                rng=rng,
            )
        )
    return clients


def in_violation(
    metro, x_m: float, y_m: float, t_us: float, spanned: tuple[int, ...]
) -> bool:
    """Ground-truth compliance scorer shared by both engines.

    True when any UHF index the client's channel spans is actually
    protected at its true position — the reference linear scan, never a
    database query (measuring must not perturb cache stats).  The
    vectorized engine evaluates the same predicate as per-incumbent
    coverage masks built on :func:`~repro.wsdb.model.point_in_circle`'s
    squared-form algebra, so its verdicts are bit-identical.
    """
    truth = metro.occupied_at(x_m, y_m, t_us)
    return any(i in truth for i in spanned)


class ScalarFleet:
    """The per-client reference fleet: one :class:`RoamingClient` each.

    The tick stages of :class:`~repro.wsdb.vector.VectorFleet`, with
    the same signatures and result shapes, written as plain loops over
    the reference functions (:func:`advance_client`,
    :func:`~repro.wsdb.service.quantize_cell`, :func:`associate_nearest`,
    :func:`in_violation`).  None of these loops shares code with the
    columnar engine's array passes, so the scalar/vector parity tests
    hold that engine's floats and tie-breaks to an independent oracle.
    """

    def __init__(self, clients: list[RoamingClient], extent_m: float):
        self.clients = clients
        self.n = len(clients)
        self.extent_m = extent_m
        self.requeries = np.zeros(self.n, dtype=np.int64)
        self.handoffs = np.zeros(self.n, dtype=np.int64)
        self.vacations = np.zeros(self.n, dtype=np.int64)
        self.connected = np.zeros(self.n, dtype=np.int64)
        self.violations = np.zeros(self.n, dtype=np.int64)
        self.disconnected_ticks = 0
        self._live_aps: list[tuple[CityAp, frozenset[int]]] = []
        self._spans_by_id: dict[int, frozenset[int]] = {}
        self._col_of: dict[int, int] = {}

    def set_snapshot(
        self, live_aps: list[tuple[CityAp, frozenset[int]]], num_aps: int
    ) -> None:
        """Adopt one ``snapshot_assigned_aps`` live list."""
        self._live_aps = live_aps
        self._spans_by_id = {ap.ap_id: spans for ap, spans in live_aps}
        self._col_of = {ap.ap_id: col for col, (ap, _) in enumerate(live_aps)}

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Every client's (x, y), as the vector engine's columns."""
        xy = [(c.x_m, c.y_m) for c in self.clients]
        return np.array(xy, dtype=np.float64).reshape(self.n, 2).T

    def advance(self, step_m: float) -> None:
        for client in self.clients:
            advance_client(client, step_m, self.extent_m)

    def cells(self, resolution_m: float) -> tuple[np.ndarray, np.ndarray]:
        cells = [
            quantize_cell(c.x_m, c.y_m, resolution_m) for c in self.clients
        ]
        return np.array(cells, dtype=np.int64).reshape(self.n, 2).T

    def recheck_due(
        self, trig_x: np.ndarray, trig_y: np.ndarray, bucket: int
    ) -> np.ndarray:
        """Client indices due a re-check (crossed a square or TTL edge)."""
        cells = zip(trig_x.tolist(), trig_y.tolist())
        return np.array(
            [
                i
                for i, (client, cell) in enumerate(zip(self.clients, cells))
                if cell != client.last_cell or bucket != client.last_bucket
            ],
            dtype=np.int64,
        )

    def commit_recheck(
        self,
        idx: np.ndarray,
        trig_x: np.ndarray,
        trig_y: np.ndarray,
        bucket: int,
        responses: list[tuple[int, ...]],
    ) -> None:
        """Adopt fresh responses for the re-checked clients *idx*."""
        for i, response in zip(idx.tolist(), responses):
            client = self.clients[i]
            client.known_free = frozenset(response)
            client.last_cell = (int(trig_x[i]), int(trig_y[i]))
            client.last_bucket = bucket
            self.requeries[i] += 1

    def associate_and_score(
        self, metro, t_us: float, profiler: Any = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One tick of vacation, association, handoff, and compliance.

        Returns ``(connected, new_ap, best_col, handoff_mask,
        violating)``, the vector engine's outcome arrays; counters are
        already applied.
        """
        prof = NULL_PROFILER if profiler is None else profiler
        connected = np.zeros(self.n, dtype=bool)
        new_ap = np.full(self.n, -1, dtype=np.int64)
        best_col = np.full(self.n, -1, dtype=np.int64)
        handoff_mask = np.zeros(self.n, dtype=bool)
        violating = np.zeros(self.n, dtype=bool)
        with prof.phase("associate"):
            for i, client in enumerate(self.clients):
                # A previously-associated AP whose channel the response
                # now denies forces a channel vacation.
                prev = client.ap
                prev_spans = (
                    self._spans_by_id.get(prev.ap_id)
                    if prev is not None
                    else None
                )
                if prev_spans is not None and not prev_spans <= client.known_free:
                    self.vacations[i] += 1
                client.ap = associate_nearest(
                    client.x_m, client.y_m, client.known_free, self._live_aps
                )
                if client.ap is None:
                    self.disconnected_ticks += 1
                    continue
                if prev is not None and client.ap.ap_id != prev.ap_id:
                    self.handoffs[i] += 1
                    handoff_mask[i] = True
                self.connected[i] += 1
                connected[i] = True
                new_ap[i] = client.ap.ap_id
                best_col[i] = self._col_of[client.ap.ap_id]
        with prof.phase("compliance"):
            for i in np.flatnonzero(connected).tolist():
                client = self.clients[i]
                if in_violation(
                    metro,
                    client.x_m,
                    client.y_m,
                    t_us,
                    client.ap.channel.spanned_indices,
                ):
                    self.violations[i] += 1
                    violating[i] = True
        return connected, new_ap, best_col, handoff_mask, violating


def check_fleet_inputs(
    kind: str,
    engine: str,
    num_clients: int,
    min_clients: int,
    duration_us: float,
    tick_us: float,
    speed_mps: float,
    recheck_m: float,
    offered_qps: float = 0.0,
) -> None:
    """Reject a roaming or querystorm run's inputs before any world build.

    Non-finite values fail with the out-of-range ones: an infinite step
    never finishes its waypoint walk, a NaN position or cell edge
    fails every comparison silently, and an infinite duration or load
    has no tick or request count.
    """
    if num_clients < min_clients:
        raise SimulationError(
            f"{kind} needs >= {min_clients} clients, got {num_clients!r}"
        )
    for name, value in (
        ("duration_us", duration_us),
        ("tick_us", tick_us),
        ("speed_mps", speed_mps),
        ("recheck_m", recheck_m),
    ):
        if not (math.isfinite(value) and value > 0):
            raise SimulationError(
                f"{kind} {name} must be finite and > 0, got {value!r}"
            )
    if not (math.isfinite(offered_qps) and offered_qps >= 0):
        raise SimulationError(
            f"{kind} offered_qps must be finite and >= 0, got {offered_qps!r}"
        )
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )


def simulate_roaming(
    db: WhiteSpaceDatabase,
    num_aps: int,
    num_clients: int,
    duration_us: float,
    seed: int,
    speed_mps: float = DEFAULT_SPEED_MPS,
    recheck_m: float | None = None,
    mic_events: int = 0,
    tick_us: float = DEFAULT_TICK_US,
    interference_radius_m: float = DEFAULT_INTERFERENCE_RADIUS_M,
    engine: str = "scalar",
    recorder: Any = None,
    telemetry: Any = None,
    profiler: Any = None,
    spans: Any = None,
) -> dict[str, Any]:
    """Run one roaming session; returns a plain-data report.

    The report is JSON-plain throughout (the ``roaming`` run kind's
    probe routes it into an ``ExperimentResult`` unchanged).

    Args:
        db: the metro database (APs and clients share it).
        num_aps: fixed APs booted across the plane (citywide-style).
        num_clients: mobile clients following waypoint paths.
        duration_us: session length; the tick loop covers [0, duration].
        seed: master seed; placement, paths, and mic events derive
            from labelled streams of it.
        speed_mps: client speed along its path.
        recheck_m: movement granularity of the re-check rule (None:
            the database's own ``cache_resolution_m``, the aligned —
            and intended — configuration).
        mic_events: mid-session microphone registrations.
        tick_us: simulation step; movement, re-checks, association,
            and compliance are evaluated per tick.
        interference_radius_m: AP mutual-interference radius.
        engine: "scalar" (:class:`ScalarFleet`, the per-client
            reference) or "vector" (the columnar numpy
            :class:`~repro.wsdb.vector.VectorFleet`).  Both run the
            same driver and produce bit-identical reports; "vector" is
            the one that scales to millions of clients.
        recorder / telemetry / spans: optional trace recorder, metrics
            registry and span recorder; see
            :class:`~repro.wsdb.observe.RunObserver` for what each
            records.  They observe only: the report is bit-identical
            with and without them, bar its ``"telemetry"`` and
            ``"spans"`` snapshots.
        profiler: a wall-clock
            :class:`~repro.telemetry.profiler.PhaseProfiler` (None: the
            no-op profiler) timing the tick stages (advance /
            recheck-detect / batch-lookup / associate / compliance) on
            either engine.  Never affects the report.
    """
    if recheck_m is None:
        recheck_m = db.cache_resolution_m
    check_fleet_inputs(
        "roaming", engine, num_clients, 1, duration_us, tick_us, speed_mps,
        recheck_m,
    )
    # The driver module imports this one, so it is reached at call time.
    from repro.wsdb.vector import FLEETS, drive_roaming

    return drive_roaming(
        db,
        FLEETS[engine],
        num_aps=num_aps,
        num_clients=num_clients,
        duration_us=duration_us,
        seed=seed,
        speed_mps=speed_mps,
        recheck_m=recheck_m,
        mic_events=mic_events,
        tick_us=tick_us,
        interference_radius_m=interference_radius_m,
        obs=RunObserver(recorder, telemetry, spans),
        profiler=profiler,
    )
