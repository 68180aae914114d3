"""Tests for the uniform-grid spatial index, including the 10k-point
batch-query proof required of the wsdb subsystem: availability over a
dense query grid must come off the index (candidates inspected far below
the full-scan count) while agreeing exactly with the reference linear
scan, deterministically per seed."""

import random

import pytest

from repro.errors import SpectrumMapError
from repro.spectrum.incumbents import TvStation
from repro.wsdb.index import GridIndex
from repro.wsdb.model import Metro, TvTransmitterSite, generate_metro
from repro.wsdb.service import WhiteSpaceDatabase


def small_site(uhf_index: int, x_m: float, y_m: float) -> TvTransmitterSite:
    # EIRP 5 dBm -> ~2.5 km protected contour under the default model.
    return TvTransmitterSite(TvStation(uhf_index, power_dbm=5.0), x_m, y_m)


class TestGridMechanics:
    def test_cell_of_clamps_to_plane(self):
        index = GridIndex(extent_m=10_000.0, cell_m=1_000.0)
        assert index.cell_of(-5.0, 500.0) == (0, 0)
        assert index.cell_of(99_999.0, 9_999.0) == (9, 9)

    def test_insert_buckets_bbox_cells(self):
        index = GridIndex(extent_m=10_000.0, cell_m=1_000.0)
        index.insert(small_site(0, 5_000.0, 5_000.0))
        assert len(index) == 1
        # Inside the contour: candidate present.
        assert len(index.candidates(5_500.0, 5_500.0)) == 1
        # Far corner: bucket untouched.
        assert len(index.candidates(500.0, 500.0)) == 0

    def test_covering_filters_bbox_false_positives(self):
        index = GridIndex(extent_m=10_000.0, cell_m=5_000.0)
        site = small_site(0, 2_500.0, 2_500.0)
        index.insert(site)
        # Same cell, outside the circle (cell corner is ~3.5 km from
        # the center, radius ~2.5 km).
        assert list(index.covering(4_990.0, 4_990.0)) == []
        assert list(index.covering(2_600.0, 2_600.0)) == [site]
        assert index.queries == 2
        assert index.candidates_scanned == 2

    def test_invalid_geometry_raises(self):
        with pytest.raises(SpectrumMapError):
            GridIndex(extent_m=0.0)
        with pytest.raises(SpectrumMapError):
            GridIndex(extent_m=100.0, cell_m=-1.0)

    @pytest.mark.parametrize(
        "extent_m, cell_m",
        (
            (100.0, float("nan")),
            (float("nan"), 10.0),
            (float("inf"), 10.0),
            (100.0, float("inf")),
        ),
    )
    def test_non_finite_geometry_raises_typed(self, extent_m, cell_m):
        # Without the check a NaN cell edge fails in int() with a bare
        # ValueError and an infinite extent in ceil() with an
        # OverflowError; both must be rejected up front.
        with pytest.raises(SpectrumMapError, match="finite"):
            GridIndex(extent_m=extent_m, cell_m=cell_m)


class TestBatchQueryProof:
    """The acceptance-gate test: 10k points, 100+ stations, no full scan."""

    @staticmethod
    def build_db(seed: int) -> WhiteSpaceDatabase:
        # 30 channels x 4 sites = 120 stations with ~1.8-3.5 km contours
        # spread over a 20 km plane: genuinely sparse occupancy.
        metro = generate_metro(
            range(30),
            seed=seed,
            sites_per_channel=(4, 4),
            eirp_range_dbm=(-5.0, 5.0),
        )
        return WhiteSpaceDatabase(metro, cache_resolution_m=10.0)

    @staticmethod
    def grid_points(extent_m: float, side: int = 100):
        step = extent_m / side
        return [
            (step / 2 + i * step, step / 2 + j * step)
            for i in range(side)
            for j in range(side)
        ]

    def test_10k_point_batch_hits_the_spatial_index(self):
        db = self.build_db(seed=42)
        points = self.grid_points(db.metro.extent_m)
        assert len(points) == 10_000
        assert len(db.metro.sites) >= 100

        responses = db.channels_at_many(points, t_us=0.0)

        assert db.stats.queries == 10_000
        full_scan = db.stats.queries * len(db.metro.sites)
        # The index must prune hard: a full per-query station scan
        # would inspect 1.2M candidates; the grid keeps it well under
        # a third of that (in practice ~10%).
        assert db.stats.candidates_scanned < 0.33 * full_scan
        assert db.stats.candidates_scanned > 0

        # Exactness: the indexed answers match a reference linear scan
        # over every incumbent, under the cell-granular area semantics
        # (a channel is denied when any contour intersects the query
        # point's quantization square).  Denial is therefore a superset
        # of the point-occupancy reference, never a subset.
        res = db.cache_resolution_m
        for point, channels in list(zip(points, responses))[::97]:
            qx, qy = db.cell_of(*point)
            expected = set()
            for site in db.metro.sites:
                nx = min(max(site.x_m, qx * res), (qx + 1) * res)
                ny = min(max(site.y_m, qy * res), (qy + 1) * res)
                if (site.x_m - nx) ** 2 + (site.y_m - ny) ** 2 <= site.radius_m**2:
                    expected.add(site.uhf_index)
            denied = set(range(30)) - set(channels)
            assert denied == expected
            assert denied >= db.metro.occupied_at(*point)

    def test_batch_results_deterministic_per_seed(self):
        points = self.grid_points(20_000.0)
        a = self.build_db(seed=42).channels_at_many(points)
        b = self.build_db(seed=42).channels_at_many(points)
        assert a == b
        c = self.build_db(seed=43).channels_at_many(points)
        assert a != c

    def test_index_agrees_with_reference_under_clamped_contours(self):
        # A contour centered off one edge still denies on-plane points.
        site = small_site(2, -1_000.0, 5_000.0)
        metro = Metro(extent_m=10_000.0, num_channels=5, sites=(site,))
        db = WhiteSpaceDatabase(metro)
        assert 2 not in db.channels_at(500.0, 5_000.0)
        assert 2 in db.channels_at(9_000.0, 5_000.0)


class TestCoveringRectConservativeness:
    """Property-style pin of the invariant sharding relies on.

    A cell-granular response must be safe to act on from *any*
    coordinate inside the cell: the contours ``covering_rect`` yields
    for a cell must be a superset of the contours ``covering`` yields
    for every point in that cell — equivalently, the channels free
    throughout the cell (``channels_in_cell``) must be a subset of the
    channels free at each point.  The cluster's ``ShardRouter`` leans
    on exactly this when it serves a routed point query from the
    owning shard's cell response.
    """

    def test_rect_candidates_superset_of_any_interior_point(self):
        rng = random.Random(20_090_817)
        for trial in range(40):
            extent = rng.uniform(4_000.0, 30_000.0)
            index = GridIndex(extent_m=extent, cell_m=rng.uniform(300.0, 4_000.0))
            sites = [
                TvTransmitterSite(
                    # EIRP -10..12 dBm: contour radii ~0.9-6 km, so
                    # cells are genuinely partially covered.
                    TvStation(rng.randrange(30), power_dbm=rng.uniform(-10.0, 12.0)),
                    rng.uniform(-0.1 * extent, 1.1 * extent),
                    rng.uniform(-0.1 * extent, 1.1 * extent),
                )
                for _ in range(rng.randrange(3, 25))
            ]
            index.extend(sites)
            res = rng.uniform(50.0, 500.0)
            for _ in range(10):
                qx = rng.randrange(-1, int(extent // res) + 2)
                qy = rng.randrange(-1, int(extent // res) + 2)
                x0, y0 = qx * res, qy * res
                rect_set = {
                    id(e) for e in index.covering_rect(x0, y0, x0 + res, y0 + res)
                }
                for _ in range(8):
                    px = rng.uniform(x0, x0 + res)
                    py = rng.uniform(y0, y0 + res)
                    point_set = {id(e) for e in index.covering(px, py)}
                    assert point_set <= rect_set, (
                        f"trial {trial}: covering({px}, {py}) yielded a "
                        "contour covering_rect missed for its cell"
                    )

    def test_cell_response_subset_of_any_interior_point_response(self):
        rng = random.Random(424_242)
        for _ in range(15):
            extent = rng.uniform(5_000.0, 20_000.0)
            metro = generate_metro(
                rng.sample(range(30), rng.randrange(4, 16)),
                extent_m=extent,
                seed=rng.randrange(1 << 30),
                eirp_range_dbm=(-8.0, 10.0),
            )
            db = WhiteSpaceDatabase(metro, cache_resolution_m=rng.uniform(50.0, 400.0))
            for _ in range(10):
                px = rng.uniform(-0.05 * extent, 1.05 * extent)
                py = rng.uniform(-0.05 * extent, 1.05 * extent)
                qx, qy = db.cell_of(px, py)
                cell_free = set(db.channels_in_cell(qx, qy))
                # The point's true free set, from the reference scan:
                # anything the cell response grants must be granted at
                # every interior point (conservative area semantics).
                point_free = set(range(metro.num_channels)) - metro.occupied_at(
                    px, py
                )
                assert cell_free <= point_free
                # And the relation is anchored to the right cell: the
                # cell response equals what a point query at (px, py)
                # itself returns (the point rides the cell path).
                assert db.channels_at(px, py) == tuple(sorted(cell_free))


class TestCandidatesMutationSafety:
    def test_candidates_returns_a_defensive_copy(self):
        index = GridIndex(extent_m=10_000.0, cell_m=1_000.0)
        site = small_site(0, 5_000.0, 5_000.0)
        index.insert(site)
        got = index.candidates(5_500.0, 5_500.0)
        assert isinstance(got, tuple)
        # A caller turning the result into a list and mutating it must
        # not be able to corrupt the live bucket.
        mutated = list(got)
        mutated.clear()
        assert len(index.candidates(5_500.0, 5_500.0)) == 1
        assert list(index.covering(5_500.0, 5_500.0)) == [site]
