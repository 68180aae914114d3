"""The querystorm workload: a sharded cluster under storm + mobility.

This workload is the cluster subsystem's proving ground, combining three
load sources against one :class:`~repro.wsdb.cluster.router.ShardRouter`
behind one :class:`~repro.wsdb.cluster.frontend.BatchFrontend`:

* a **query storm** — ``offered_qps`` synthetic availability requests
  per simulated second, drawn uniformly over the plane and submitted as
  one burst per tick (the batch shape the frontend coalesces and, when
  a rate limit is set, sheds);
* a **roaming population** — the :mod:`~repro.wsdb.mobility` mobile
  clients, re-checking through the same frontend (so a storm can starve
  them: a shed re-check is *deferred* — the client keeps its stale
  response and retries next tick);
* a **citywide deployment** — ``num_aps`` fixed APs booted off the
  router with mic-event backup-channel recovery, exactly as in the
  citywide/roaming drivers (AP control traffic queries the router
  directly: the operator's own path is not admission-controlled).

With ``push=True`` the clients additionally register in a
:class:`~repro.wsdb.cluster.push.PushRegistry`: a mid-session
microphone registration then notifies every subscribed client whose
cell the zone touches, and the notified clients refresh **that tick**
instead of waiting for the FCC re-check rule's next trigger — closing
the pull model's violation window.  ``bench_wsdb_cluster`` asserts the
closure: pushed runs accrue strictly less ground-truth violation time
than pull-only runs of the same seed.

This module holds the storm source seam (:func:`synthetic_storm`,
:class:`StormFeed`) and the :func:`simulate_querystorm` entry point;
the tick loop is :func:`repro.wsdb.vector.drive_querystorm`, written
once against the fleet stages, with ``engine`` picking the per-client
reference or the columnar fleet.

Everything derives from the master seed through labelled
:func:`~repro.sim.rng.stream_seed` streams, and admission/batching are
clocked by simulation time, so a run is byte-identical in any process —
the contract the ``querystorm`` run kind and ``ParallelRunner`` rely
on.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Iterator

from repro.wsdb.citywide import DEFAULT_INTERFERENCE_RADIUS_M
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.mobility import (
    DEFAULT_SPEED_MPS,
    DEFAULT_TICK_US,
    check_fleet_inputs,
)
from repro.wsdb.observe import RunObserver

__all__ = ["StormFeed", "simulate_querystorm", "synthetic_storm"]


def synthetic_storm(
    offered_qps: float,
    tick_us: float,
    ticks: int,
    extent_m: float,
    rng: random.Random,
) -> Iterator[tuple[float, float, float]]:
    """The synthetic poisson-ish storm as a ``(t_us, x, y)`` stream.

    This is the workload-source seam the storm driver consumes (via
    :class:`StormFeed`): per tick, a fractional request budget of
    ``offered_qps * tick_us / 1e6`` accrues and its integer part is
    drained as uniformly placed requests.  A recorded trace's
    :class:`~repro.traces.replay.TraceWorkload` yields the same triple
    shape, which is all it takes to replay captured traffic through the
    same path.
    """
    budget = 0.0
    for k in range(ticks + 1):
        t_us = k * tick_us
        budget += offered_qps * tick_us / 1e6
        n = int(budget)
        budget -= n
        for _ in range(n):
            yield (
                t_us,
                rng.uniform(0.0, extent_m),
                rng.uniform(0.0, extent_m),
            )


class StormFeed:
    """One-event-lookahead consumer of a ``(t_us, x, y)`` storm source.

    :meth:`burst` drains every pending request stamped at or before the
    tick fence, preserving source order — the burst shape the frontend
    admits and coalesces.
    """

    def __init__(self, source: Iterable[tuple[float, float, float]]):
        self._it = iter(source)
        self._pending = next(self._it, None)
        #: The last burst's source timestamps, one per returned point —
        #: the enqueue stamps the run's observer measures latency from
        #: (a replayed trace carries sub-tick stamps; the synthetic
        #: storm stamps on the fence).
        self.last_times: list[float] = []

    def burst(self, t_us: float) -> list[tuple[float, float]]:
        """All queued ``(x, y)`` points due at or before ``t_us``."""
        points: list[tuple[float, float]] = []
        times: list[float] = []
        pending = self._pending
        while pending is not None and pending[0] <= t_us:
            points.append((pending[1], pending[2]))
            times.append(pending[0])
            pending = next(self._it, None)
        self._pending = pending
        self.last_times = times
        return points


def simulate_querystorm(
    router: ShardRouter,
    num_aps: int,
    num_clients: int,
    duration_us: float,
    seed: int,
    offered_qps: float = 0.0,
    push: bool = False,
    speed_mps: float = DEFAULT_SPEED_MPS,
    recheck_m: float | None = None,
    mic_events: int = 0,
    tick_us: float = DEFAULT_TICK_US,
    rate_limit_qps: float | None = None,
    burst_size: float | None = None,
    policy: str = "reject",
    interference_radius_m: float = DEFAULT_INTERFERENCE_RADIUS_M,
    engine: str = "scalar",
    storm_source: Iterable[tuple[float, float, float]] | None = None,
    recorder: Any = None,
    telemetry: Any = None,
    profiler: Any = None,
    spans: Any = None,
) -> dict[str, Any]:
    """Run one querystorm session; returns a plain-data report.

    The report is JSON-plain throughout (the ``querystorm`` run kind's
    probe routes it into an ``ExperimentResult`` unchanged).

    Args:
        router: the sharded database tier (APs, clients, and the storm
            share it).
        num_aps: fixed APs booted across the plane (citywide-style).
        num_clients: mobile clients following waypoint paths (0 runs a
            pure storm with no mobility or compliance scoring).
        duration_us: session length; the tick loop covers [0, duration].
        seed: master seed; placement, paths, storm points, and mic
            events derive from labelled streams of it.
        offered_qps: synthetic storm load (requests per simulated
            second), submitted as one burst per tick.
        push: register clients for PAWS-style zone notifications; a
            notified client refreshes immediately instead of waiting
            for its next re-check trigger.
        speed_mps: client speed along its path.
        recheck_m: movement granularity of the re-check rule (None:
            the router's own ``cache_resolution_m``).
        mic_events: mid-session microphone registrations.
        tick_us: simulation step.
        rate_limit_qps / burst_size / policy: frontend admission
            control (None rate: nothing is shed).
        interference_radius_m: AP mutual-interference radius.
        engine: "scalar" (:class:`~repro.wsdb.mobility.ScalarFleet`,
            the per-client reference) or "vector" (the columnar numpy
            :class:`~repro.wsdb.vector.VectorFleet`).  Both run the
            same driver and produce bit-identical reports; "vector" is
            the one that scales to millions of clients.
        storm_source: an explicit ``(t_us, x, y)`` workload stream in
            place of the synthetic generator — typically a
            :class:`~repro.traces.replay.TraceWorkload` replaying a
            recorded storm.  ``offered_qps`` is then only echoed in the
            report (pass the source run's value to make the reports
            comparable key-for-key).
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
        recheck_m = router.cache_resolution_m
    check_fleet_inputs(
        "querystorm", engine, num_clients, 0, duration_us, tick_us,
        speed_mps, recheck_m, offered_qps,
    )
    # The driver module imports this one, so it is reached at call time.
    from repro.wsdb.vector import FLEETS, drive_querystorm

    return drive_querystorm(
        router,
        FLEETS[engine],
        num_aps=num_aps,
        num_clients=num_clients,
        duration_us=duration_us,
        seed=seed,
        offered_qps=offered_qps,
        push=push,
        speed_mps=speed_mps,
        recheck_m=recheck_m,
        mic_events=mic_events,
        tick_us=tick_us,
        rate_limit_qps=rate_limit_qps,
        burst_size=burst_size,
        policy=policy,
        interference_radius_m=interference_radius_m,
        storm_source=storm_source,
        obs=RunObserver(recorder, telemetry, spans),
        profiler=profiler,
    )
