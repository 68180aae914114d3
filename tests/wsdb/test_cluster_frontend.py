"""Tests for the BatchFrontend: token-bucket admission, burst
coalescing, shed policies, and stale-store invalidation."""

import pytest

from repro.errors import SimulationError, SpectrumMapError
from repro.wsdb.cluster.frontend import (
    BatchFrontend,
    SHED_POLICIES,
    TokenBucket,
)
from repro.wsdb.cluster.push import PushRegistry
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.model import Metro, MicRegistration, generate_metro
from repro.wsdb.service import WhiteSpaceDatabase


def dense_router(num_shards: int = 4) -> ShardRouter:
    metro = generate_metro(range(12), extent_m=4_000.0, seed=7, num_channels=30)
    return ShardRouter(metro, num_shards=num_shards)


class TestTokenBucket:
    def test_unlimited_when_rate_is_none(self):
        bucket = TokenBucket(None)
        assert all(bucket.admit(0.0) for _ in range(10_000))

    def test_burst_then_refill(self):
        bucket = TokenBucket(rate_qps=10.0, burst_size=3)
        # Full burst at t=0, then dry.
        assert [bucket.admit(0.0) for _ in range(4)] == [True] * 3 + [False]
        # 10 qps -> one token every 100 ms of simulation time.
        assert bucket.admit(100_000.0) is True
        assert bucket.admit(100_000.0) is False

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate_qps=1.0, burst_size=1)
        assert bucket.admit(5e6) is True
        # An out-of-order earlier timestamp mints nothing.
        assert bucket.admit(1e6) is False

    def test_default_burst_is_one_second(self):
        bucket = TokenBucket(rate_qps=50.0)
        assert bucket.burst_size == 50.0

    def test_sub_one_qps_rate_still_admits(self):
        # The default burst floors at one token: a 0.5 qps bucket must
        # not start (and stay) permanently below the admit threshold.
        bucket = TokenBucket(rate_qps=0.5)
        assert bucket.admit(0.0) is True
        assert bucket.admit(0.0) is False
        assert bucket.admit(2e6) is True  # 2 s at 0.5 qps -> one token

    def test_invalid_parameters_raise(self):
        with pytest.raises(SpectrumMapError):
            TokenBucket(rate_qps=0.0)
        with pytest.raises(SpectrumMapError):
            TokenBucket(rate_qps=10.0, burst_size=0.5)

    @pytest.mark.parametrize("value", (float("nan"), float("inf")))
    def test_non_finite_parameters_raise(self, value):
        # A NaN rate used to refill the bucket to full on every clock
        # advance; None is the only way to ask for no limit.
        with pytest.raises(SpectrumMapError):
            TokenBucket(rate_qps=value)
        with pytest.raises(SpectrumMapError):
            TokenBucket(rate_qps=10.0, burst_size=value)


class TestBatching:
    def test_batch_answers_match_direct_database(self):
        metro_args = dict(extent_m=4_000.0, seed=7, num_channels=30)
        single = WhiteSpaceDatabase(generate_metro(range(12), **metro_args))
        frontend = BatchFrontend(dense_router())
        points = [(x * 137.0 % 4_000.0, x * 211.0 % 4_000.0) for x in range(120)]
        assert frontend.query_batch(points, 5.0) == single.channels_at_many(
            points, 5.0
        )

    def test_same_cell_burst_coalesces_to_one_lookup(self):
        frontend = BatchFrontend(dense_router())
        burst = [(1_010.0 + i * 0.5, 1_010.0) for i in range(40)]  # one cell
        responses = frontend.query_batch(burst, 0.0)
        assert len(set(responses)) == 1
        assert frontend.stats.requests == 40
        assert frontend.stats.coalesced == 39
        assert frontend.stats.shard_batches == 1
        # The shards saw one query, not forty.
        assert frontend.router.aggregate_stats().queries == 1

    def test_multi_shard_burst_batches_per_shard(self):
        router = dense_router(num_shards=4)
        frontend = BatchFrontend(router)
        # One point per quadrant of the 4 km plane.
        burst = [(500.0, 500.0), (3_500.0, 500.0), (500.0, 3_500.0), (3_500.0, 3_500.0)]
        frontend.query_batch(burst, 0.0)
        assert frontend.stats.shard_batches == 4
        assert frontend.stats.coalesced == 0

    def test_each_touched_shard_answers_in_one_batched_call(self):
        router = dense_router(num_shards=4)
        frontend = BatchFrontend(router)
        # Warm one cell so the burst mixes cache hits and misses.
        router.channels_at(500.0, 500.0, 0.0)
        batched: list[tuple[int, list[tuple[int, int]]]] = []
        single: list[int] = []
        for shard_id, shard in enumerate(router.shards):

            def channels_in_cells(cells, t_us=0.0, _db=shard, _id=shard_id):
                batched.append((_id, list(cells)))
                return WhiteSpaceDatabase.channels_in_cells(_db, cells, t_us)

            def channels_in_cell(qx, qy, t_us=0.0, _db=shard, _id=shard_id):
                single.append(_id)
                return WhiteSpaceDatabase.channels_in_cell(_db, qx, qy, t_us)

            shard.channels_in_cells = channels_in_cells
            shard.channels_in_cell = channels_in_cell
        # Several cells (and a repeat) in each of three quadrants of
        # the 2x2 grid; the fourth shard is untouched.
        burst = [
            (500.0, 500.0), (650.0, 500.0), (500.0, 500.0), (800.0, 900.0),
            (3_500.0, 500.0), (3_650.0, 700.0),
            (500.0, 3_500.0), (500.0, 3_500.0),
        ]
        frontend.query_batch(burst, 0.0)
        assert single == []
        assert [shard_id for shard_id, _ in batched] == [0, 1, 2]
        assert frontend.stats.shard_batches == len(batched)
        looked_up = set()
        for shard_id, cells in batched:
            assert len(set(cells)) == len(cells)
            outcomes = router.shards[shard_id].last_outcomes
            assert len(outcomes) == len(cells)
            for cell, outcome in zip(cells, outcomes):
                assert frontend.last_lookups[cell] == (shard_id, *outcome)
                looked_up.add(cell)
        assert set(frontend.last_lookups) == looked_up
        assert frontend.last_lookups[router.cell_of(500.0, 500.0)][1] is True

    def test_empty_batch_is_free(self):
        frontend = BatchFrontend(dense_router())
        assert frontend.query_batch([], 0.0) == []
        assert frontend.stats.batches == 0


class TestShedding:
    def test_reject_policy_returns_none_over_limit(self):
        frontend = BatchFrontend(
            dense_router(), rate_limit_qps=10.0, burst_size=2
        )
        responses = frontend.query_batch([(100.0, 100.0)] * 5, 0.0)
        assert responses[:2] == [responses[0]] * 2
        assert responses[2:] == [None, None, None]
        assert frontend.stats.shed == 3
        assert frontend.stats.served_stale == 0
        assert frontend.stats.shed_rate == pytest.approx(0.6)

    def test_serve_stale_answers_from_last_known_response(self):
        frontend = BatchFrontend(
            dense_router(), rate_limit_qps=10.0, burst_size=1, policy="serve-stale"
        )
        first = frontend.query(100.0, 100.0, 0.0)
        assert first is not None
        # Bucket dry at the same timestamp: the same cell is served
        # stale; a cold cell has nothing to offer and is refused.
        assert frontend.query(120.0, 120.0, 0.0) == first
        assert frontend.stats.served_stale == 1
        assert frontend.query(3_900.0, 3_900.0, 0.0) is None
        assert frontend.stats.shed == 2

    def test_serve_stale_never_serves_past_the_ttl_bucket(self):
        # A stale entry is only valid inside the TTL bucket it was
        # computed in — the protocol's own validity contract.  A shed
        # request in a later bucket finds the entry dead and is
        # refused, exactly as the database itself would recompute.
        frontend = BatchFrontend(
            dense_router(), rate_limit_qps=10.0, burst_size=1, policy="serve-stale"
        )
        assert frontend.query(100.0, 100.0, 0.0) is not None
        frontend.bucket._tokens = 0.0
        frontend.bucket._last_t_us = 61e6
        assert frontend.query(120.0, 120.0, 61e6) is None
        assert frontend.stats.served_stale == 0
        assert frontend.stats.shed == 1

    def test_admitted_requests_in_a_shed_batch_still_answer(self):
        # Mixed batch: the first request drains the bucket, the rest
        # shed, and ordering is preserved position by position.
        frontend = BatchFrontend(
            dense_router(), rate_limit_qps=10.0, burst_size=1
        )
        a, b, c = frontend.query_batch(
            [(100.0, 100.0), (2_900.0, 100.0), (100.0, 2_900.0)], 0.0
        )
        assert a is not None
        assert b is None and c is None

    def test_unknown_policy_raises(self):
        with pytest.raises(SimulationError):
            BatchFrontend(dense_router(), policy="nope")
        assert set(SHED_POLICIES) == {"reject", "serve-stale"}


class TestStaleInvalidation:
    def test_register_mic_purges_stale_entries_inside_the_zone(self):
        frontend = BatchFrontend(dense_router(), policy="serve-stale")
        inside = frontend.query(1_000.0, 1_000.0, 0.0)
        outside = frontend.query(3_800.0, 3_800.0, 0.0)
        assert inside is not None and outside is not None
        frontend.register_mic(
            MicRegistration.single_session(
                14, 1_000.0, 1_000.0, 0.0, 60e6, radius_m=500.0
            )
        )
        qx, qy = frontend.router.cell_of(1_000.0, 1_000.0)
        assert frontend.stale_response(qx, qy) is None
        ox, oy = frontend.router.cell_of(3_800.0, 3_800.0)
        assert frontend.stale_response(ox, oy) == outside

    def test_register_mic_notifies_attached_registry(self):
        router = dense_router()
        registry = PushRegistry(router.cache_resolution_m)
        frontend = BatchFrontend(router, push=registry)
        registry.subscribe(5, *router.cell_of(1_000.0, 1_000.0))
        registry.subscribe(9, *router.cell_of(3_800.0, 3_800.0))
        notified = frontend.register_mic(
            MicRegistration.single_session(
                14, 1_000.0, 1_000.0, 0.0, 60e6, radius_m=500.0
            )
        )
        assert notified == (5,)

    def test_mismatched_registry_resolution_raises(self):
        router = dense_router()
        with pytest.raises(SimulationError):
            BatchFrontend(router, push=PushRegistry(router.cache_resolution_m * 2))

    def test_no_registry_means_empty_notification(self):
        frontend = BatchFrontend(dense_router())
        reg = MicRegistration.single_session(14, 500.0, 500.0, 0.0, 60e6)
        assert frontend.register_mic(reg) == ()

    def test_metro_with_empty_dial_still_serves(self):
        router = ShardRouter(
            Metro(extent_m=2_000.0, num_channels=10), num_shards=4
        )
        frontend = BatchFrontend(router)
        assert frontend.query(1_000.0, 1_000.0, 0.0) == tuple(range(10))
