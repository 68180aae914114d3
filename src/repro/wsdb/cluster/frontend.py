"""The cluster front door: batched queries, admission control, shedding.

A city under load does not send the database one polite query at a
time — it sends *bursts*: every AP re-checking at a TTL edge, every
client in a commuter flow crossing cells in the same tick, a survey
sweep.  :class:`BatchFrontend` is the service tier's front end for that
shape of traffic:

* **Coalescing.**  A burst handed to :meth:`query_batch` is grouped by
  owning shard and deduplicated by quantization cell before any shard
  is touched: N requests in one cell become one lookup whose response
  every requester shares (the counters record how many requests
  coalesced away).  Each touched shard then answers its distinct cells
  in one ``channels_in_cells`` call — the service tier's one lookup
  primitive — so a shard sees one call per burst, not one per request.
* **Token-bucket rate limiting.**  The frontend admits requests against
  a bucket refilled at ``rate_limit_qps`` (burst capacity
  ``burst_size``), clocked by *simulation* time — admission is a pure
  function of the request sequence, preserving the byte-identical
  parallel/sequential contract.
* **Shedding.**  An over-limit request is *shed* under one of the two
  :data:`SHED_POLICIES`: ``"reject"`` returns None (the device keeps
  its stale response and retries — the deferral the querystorm driver
  counts), ``"serve-stale"`` answers from the frontend's last-known
  response for the cell, trading admission for availability (and
  refuses too when the cell has no response from the current TTL
  bucket).

The stale store honors the response protocol's own validity contract:
entries are stamped with their TTL bucket and served only inside it
(a response past its bucket is dead, exactly as in the database's
cache), and :meth:`register_mic` purges entries with the same
zone/cell geometry the databases use — so ``serve-stale`` never serves
across a protection-zone edge it has been told about, and never serves
a response the pull protocol itself would no longer honor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SimulationError, SpectrumMapError
from repro.wsdb.cluster.push import PushRegistry
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.index import circle_intersects_cell
from repro.wsdb.model import MicRegistration
from repro.wsdb.service import ttl_bucket

__all__ = [
    "BatchFrontend",
    "FrontendStats",
    "SHED_POLICIES",
    "TokenBucket",
]


class TokenBucket:
    """A deterministic token bucket clocked by simulation time.

    Args:
        rate_qps: refill rate (tokens per simulated second); None
            disables limiting (every request admitted).
        burst_size: bucket capacity (None: one second's worth of
            tokens, the conventional default, floored at one token so
            a sub-1 qps rate can still ever admit anything).
    """

    def __init__(self, rate_qps: float | None, burst_size: float | None = None):
        # NaN fails every comparison and inf refills nothing sensible,
        # so both must be finite; None is the only "unlimited".
        if rate_qps is not None and not (
            math.isfinite(rate_qps) and rate_qps > 0
        ):
            raise SpectrumMapError(
                f"rate_qps must be finite and > 0 (or None), got {rate_qps!r}"
            )
        if burst_size is not None and not (
            math.isfinite(burst_size) and burst_size >= 1
        ):
            raise SpectrumMapError(
                f"burst_size must be finite and >= 1, got {burst_size!r}"
            )
        self.rate_qps = rate_qps
        self.burst_size = (
            float(burst_size)
            if burst_size is not None
            else (max(1.0, rate_qps) if rate_qps is not None else 0.0)
        )
        self._tokens = self.burst_size
        self._last_t_us = 0.0

    def admit(self, t_us: float) -> bool:
        """Consume one token at *t_us*; False when the bucket is dry.

        Time never runs backwards here: a *t_us* behind the last
        observed clock refills nothing (out-of-order queries cannot
        mint tokens).
        """
        if self.rate_qps is None:
            return True
        if t_us > self._last_t_us:
            self._tokens = min(
                self.burst_size,
                self._tokens + (t_us - self._last_t_us) * self.rate_qps / 1e6,
            )
            self._last_t_us = t_us
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass
class FrontendStats:
    """Frontend counters for benchmarking the admission/batching path.

    Attributes:
        requests: availability requests received.
        admitted: requests the token bucket let through.
        shed: over-limit requests (however the policy answered them).
        served_stale: shed requests answered from the stale store.
        coalesced: admitted requests answered by another request's
            shard lookup in the same batch (deduplicated by cell).
        batches: :meth:`BatchFrontend.query_batch` invocations.
        shard_batches: shard ``channels_in_cells`` calls issued (one
            per touched shard per batch — the fan-in the batching
            exists for).
    """

    requests: int = 0
    admitted: int = 0
    shed: int = 0
    served_stale: int = 0
    coalesced: int = 0
    batches: int = 0
    shard_batches: int = 0

    @property
    def shed_rate(self) -> float:
        """Shed requests over all requests (0 when nothing was asked)."""
        return self.shed / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """Plain-data snapshot (for probes and benchmark JSON)."""
        return {
            "requests": self.requests,
            "admitted": self.admitted,
            "shed": self.shed,
            "served_stale": self.served_stale,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "shard_batches": self.shard_batches,
            "shed_rate": self.shed_rate,
        }


#: The shed policies :class:`BatchFrontend` accepts (see the module
#: docstring for what each answers).
SHED_POLICIES = ("reject", "serve-stale")


class BatchFrontend:
    """Admission control + per-shard batching over a :class:`ShardRouter`.

    Args:
        router: the shard tier answering admitted requests.
        rate_limit_qps: token-bucket refill rate (None: no limiting).
        burst_size: token-bucket capacity (None: one second's refill).
        policy: shed-policy name, one of :data:`SHED_POLICIES`.
        push: optional :class:`PushRegistry` notified on
            :meth:`register_mic` (its cell resolution must match the
            router's).

    The frontend observes nothing itself.  Like the database's
    ``last_outcomes``, it reports what its last call did —
    :attr:`last_plan` and :attr:`last_lookups` for a query,
    :attr:`last_mic` for a registration — and a driver's
    :class:`~repro.wsdb.observe.RunObserver` turns that into trace
    events, span trees and latency metrics.
    """

    def __init__(
        self,
        router: ShardRouter,
        rate_limit_qps: float | None = None,
        burst_size: float | None = None,
        policy: str = "reject",
        push: PushRegistry | None = None,
    ):
        if push is not None and (
            push.cache_resolution_m != router.cache_resolution_m
        ):
            raise SimulationError(
                "push registry cell edge "
                f"({push.cache_resolution_m!r} m) must match the router's "
                f"({router.cache_resolution_m!r} m)"
            )
        self.router = router
        self.bucket = TokenBucket(rate_limit_qps, burst_size)
        if policy not in SHED_POLICIES:
            raise SimulationError(
                f"unknown shed policy {policy!r}; "
                f"expected one of {SHED_POLICIES}"
            )
        self.policy = policy
        self.push = push
        self.stats = FrontendStats()
        # cell -> (TTL bucket the response was computed in, channels).
        self._stale: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        self._bucket_now = 0
        # The last burst's admission plan, one (cell, admitted) entry
        # per request in request order.  A serve-stale shed returns
        # channels just like an admitted request, so the return value
        # alone can't tell callers (e.g. trace recorders) what the
        # admission outcome was — the plan can.
        self.last_plan: list[tuple[tuple[int, int], bool]] = []
        # The last burst's shard lookups: cell -> (shard id, cache hit,
        # candidates scanned), one entry per distinct admitted cell.
        self.last_lookups: dict[tuple[int, int], tuple[int, bool, int]] = {}
        # The last registration's (responses invalidated across shards,
        # stale-store entries purged).
        self.last_mic: tuple[int, int] = (0, 0)

    def stale_response(self, qx: int, qy: int) -> tuple[int, ...] | None:
        """The cell's last response, if it is still inside its TTL bucket.

        A response from an earlier bucket is dead under the protocol's
        validity contract (the database itself would recompute), so it
        is never served — serve-stale trades *admission*, not validity.
        """
        entry = self._stale.get((qx, qy))
        if entry is None or entry[0] != self._bucket_now:
            return None
        return entry[1]

    # -- queries -------------------------------------------------------------

    def query_batch(
        self,
        points: Sequence[tuple[float, float]],
        t_us: float = 0.0,
    ) -> list[tuple[int, ...] | None]:
        """Answer a burst: admit, coalesce by cell, batch per shard.

        Returns one entry per point in point order — a channel tuple,
        or None for a request shed without a stale fallback.  Admission
        is evaluated per request in order (the bucket sees the burst
        the way a wire would deliver it), then admitted requests
        deduplicate to one shard lookup per distinct cell.
        """
        if not points:
            return []
        self.stats.batches += 1
        self.stats.requests += len(points)
        self._bucket_now = ttl_bucket(t_us, self.router.ttl_us)
        # Pass 1: admission.  Each entry is (cell, admitted).
        plan: list[tuple[tuple[int, int], bool]] = []
        for x_m, y_m in points:
            cell = self.router.cell_of(x_m, y_m)
            admitted = self.bucket.admit(t_us)
            if admitted:
                self.stats.admitted += 1
            else:
                self.stats.shed += 1
            plan.append((cell, admitted))
        self.last_plan = plan
        # Pass 2: group the admitted cells by owning shard, deduped.
        by_shard: dict[int, list[tuple[int, int]]] = {}
        seen: set[tuple[int, int]] = set()
        admitted_count = 0
        for cell, admitted in plan:
            if not admitted:
                continue
            admitted_count += 1
            if cell in seen:
                continue
            seen.add(cell)
            by_shard.setdefault(self.router.shard_of_cell(*cell), []).append(
                cell
            )
        self.stats.coalesced += admitted_count - len(seen)
        # Pass 3: one batched call per shard, in shard order (the
        # deterministic order the parallel/sequential contract needs).
        lookups: dict[tuple[int, int], tuple[int, bool, int]] = {}
        responses: dict[tuple[int, int], tuple[int, ...]] = {}
        for shard_id in sorted(by_shard):
            shard = self.router.shards[shard_id]
            cells = by_shard[shard_id]
            answers = shard.channels_in_cells(cells, t_us)
            for cell, channels, outcome in zip(
                cells, answers, shard.last_outcomes
            ):
                responses[cell] = channels
                lookups[cell] = (shard_id, *outcome)
        self.stats.shard_batches += len(by_shard)
        self.last_lookups = lookups
        for cell, channels in responses.items():
            self._stale[cell] = (self._bucket_now, channels)
        # Pass 4: answer in request order.  A shed request gets None,
        # or under serve-stale the just-refreshed stale response.
        serve_stale = self.policy == "serve-stale"
        results: list[tuple[int, ...] | None] = []
        for cell, admitted in plan:
            if admitted:
                results.append(responses[cell])
                continue
            stale = self.stale_response(*cell) if serve_stale else None
            if stale is not None:
                self.stats.served_stale += 1
            results.append(stale)
        return results

    def query(
        self, x_m: float, y_m: float, t_us: float = 0.0
    ) -> tuple[int, ...] | None:
        """One request through the same admission/batching path."""
        return self.query_batch([(x_m, y_m)], t_us)[0]

    # -- updates -------------------------------------------------------------

    def register_mic(self, registration: MicRegistration) -> tuple[int, ...]:
        """Accept a registration: invalidate, then push-notify.

        Routes the zone through the shard tier (each touched shard
        invalidates its cached responses), drops the frontend's own
        stale entries the zone touches (``serve-stale`` must never
        serve across a zone edge it has been told about), and fans the
        notification out through the push registry when one is
        attached.  Returns the notified device ids (empty without a
        registry).
        """
        invalidated = self.router.register_mic(registration)
        purged = [
            cell
            for cell in self._stale
            if circle_intersects_cell(
                registration.x_m,
                registration.y_m,
                registration.radius_m,
                *cell,
                self.router.cache_resolution_m,
            )
        ]
        for cell in purged:
            del self._stale[cell]
        self.last_mic = (invalidated, len(purged))
        return () if self.push is None else self.push.notify_zone(registration)

    def publish_metrics(self, telemetry) -> None:
        """Publish the whole front-door stack into a sim-clock registry.

        Frontend counters land as ``frontend_*``; the router (and,
        when attached, the push registry) cascade their own
        ``publish_metrics``, so one call snapshots the full tier.
        """
        if not telemetry.enabled:
            return
        telemetry.record_stats("frontend", self.stats.as_dict())
        self.router.publish_metrics(telemetry)
        if self.push is not None:
            self.push.publish_metrics(telemetry)
