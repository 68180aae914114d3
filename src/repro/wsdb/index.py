"""A uniform-grid spatial index over protected contours.

The naive way to answer "which channels are denied at (x, y)?" scans
every incumbent — O(stations) per query, O(stations x queries) for the
batch workloads a city-scale database serves (hundreds of APs, periodic
re-queries, coverage surveys).  The grid index buckets each contour into
the cells its bounding box overlaps; a point query then inspects only
the incumbents bucketed in the *one* cell containing the point, and an
exact distance check filters bounding-box false positives.

The index keeps two counters — ``queries`` and ``candidates_scanned`` —
so tests (and benchmarks) can prove the pruning actually happened: for a
spread-out metro, ``candidates_scanned`` stays far below
``queries * len(entries)``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Protocol, Sequence

from repro.errors import SpectrumMapError

__all__ = [
    "GridIndex",
    "SpatialEntry",
    "check_finite_positive",
    "circle_intersects_cell",
    "circle_intersects_rect",
]


def check_finite_positive(name: str, value: float) -> None:
    """Reject a size or duration that is not finite and > 0.

    NaN passes a plain ``<= 0`` check and then fails the first cell or
    bucket arithmetic (``int()`` of NaN); infinity overflows a cell
    count or makes every cell or bucket the same one.
    """
    if not (math.isfinite(value) and value > 0):
        raise SpectrumMapError(f"{name} must be finite and > 0, got {value!r}")


def circle_intersects_rect(
    cx_m: float,
    cy_m: float,
    radius_m: float,
    x0_m: float,
    y0_m: float,
    x1_m: float,
    y1_m: float,
) -> bool:
    """True when a circle intersects an axis-aligned rectangle.

    Standard clamped-nearest-point test, boundary-inclusive.  This is
    the one geometry predicate behind the cell-granular protocol: the
    index uses it to *compute* area responses and the service uses it
    to *invalidate* them, so both sides agree exactly at contour edges.
    """
    nearest_x = min(max(cx_m, x0_m), x1_m)
    nearest_y = min(max(cy_m, y0_m), y1_m)
    return math.hypot(cx_m - nearest_x, cy_m - nearest_y) <= radius_m


def circle_intersects_cell(
    cx_m: float,
    cy_m: float,
    radius_m: float,
    qx: int,
    qy: int,
    resolution_m: float,
) -> bool:
    """True when a circle intersects quantization cell (qx, qy).

    The one place the cell-(qx, qy) -> rectangle conversion lives.
    Response invalidation (service), stale-store purging (cluster
    frontend), and push notification (cluster registry) must agree
    exactly on which cells a protection zone touches — a device is
    notified iff its cached response was invalidated — so all three
    ride this helper instead of rebuilding the rectangle themselves.
    """
    return circle_intersects_rect(
        cx_m,
        cy_m,
        radius_m,
        qx * resolution_m,
        qy * resolution_m,
        (qx + 1) * resolution_m,
        (qy + 1) * resolution_m,
    )


class SpatialEntry(Protocol):
    """Anything with a position, a radius, a channel, and a schedule.

    Both :class:`~repro.wsdb.model.TvTransmitterSite` (whose
    ``active_at`` is constant True) and
    :class:`~repro.wsdb.model.MicRegistration` satisfy this.
    """

    x_m: float
    y_m: float
    uhf_index: int

    @property
    def radius_m(self) -> float: ...

    def active_at(self, t_us: float) -> bool: ...

    def covers(self, x_m: float, y_m: float) -> bool: ...


class GridIndex:
    """Uniform grid of square cells bucketing circular contours.

    Args:
        extent_m: plane edge length (cells tile ``[0, extent_m]^2``;
            out-of-range coordinates clamp to the border cells, so
            contours centered off-plane still index correctly).
        cell_m: cell edge length.  Smaller cells prune harder but cost
            more buckets per inserted contour; ~the typical contour
            radius is a good default.
    """

    def __init__(self, extent_m: float, cell_m: float = 1_000.0):
        check_finite_positive("extent_m", extent_m)
        check_finite_positive("cell_m", cell_m)
        self.extent_m = extent_m
        self.cell_m = cell_m
        self.cells_per_side = max(1, math.ceil(extent_m / cell_m))
        self._buckets: dict[tuple[int, int], list[SpatialEntry]] = {}
        self._num_entries = 0
        #: Point queries answered since construction.
        self.queries = 0
        #: Candidate entries inspected across all queries (the number a
        #: full-scan implementation would put at queries * entries).
        self.candidates_scanned = 0

    def __len__(self) -> int:
        return self._num_entries

    def _axis_cell(self, coord_m: float) -> int:
        return min(self.cells_per_side - 1, max(0, int(coord_m // self.cell_m)))

    def cell_of(self, x_m: float, y_m: float) -> tuple[int, int]:
        """The (column, row) cell containing — or clamped to — (x, y)."""
        return (self._axis_cell(x_m), self._axis_cell(y_m))

    def cells_overlapping(
        self, x_m: float, y_m: float, radius_m: float
    ) -> Iterator[tuple[int, int]]:
        """Cells whose area intersects the circle's bounding box."""
        lo_cx, lo_cy = self.cell_of(x_m - radius_m, y_m - radius_m)
        hi_cx, hi_cy = self.cell_of(x_m + radius_m, y_m + radius_m)
        for cx in range(lo_cx, hi_cx + 1):
            for cy in range(lo_cy, hi_cy + 1):
                yield (cx, cy)

    def insert(self, entry: SpatialEntry) -> None:
        """Bucket *entry* into every cell its contour's bbox overlaps."""
        for cell in self.cells_overlapping(
            entry.x_m, entry.y_m, entry.radius_m
        ):
            self._buckets.setdefault(cell, []).append(entry)
        self._num_entries += 1

    def extend(self, entries: Iterable[SpatialEntry]) -> None:
        """Insert many entries."""
        for entry in entries:
            self.insert(entry)

    def candidates(self, x_m: float, y_m: float) -> Sequence[SpatialEntry]:
        """Entries whose contour *might* cover (x, y) — one cell's bucket.

        Returned as a tuple: the buckets are live internal state, and a
        caller mutating the returned sequence must not be able to
        corrupt them (the query paths read the buckets directly and
        skip this defensive copy).
        """
        return tuple(self._buckets.get(self.cell_of(x_m, y_m), ()))

    def covering(self, x_m: float, y_m: float) -> Iterator[SpatialEntry]:
        """Entries whose contour exactly covers (x, y); counts the scan."""
        bucket = self._buckets.get(self.cell_of(x_m, y_m), ())
        self.queries += 1
        self.candidates_scanned += len(bucket)
        for entry in bucket:
            if entry.covers(x_m, y_m):
                yield entry

    def covering_rect(
        self, x0_m: float, y0_m: float, x1_m: float, y1_m: float
    ) -> Iterator[SpatialEntry]:
        """Entries whose contour intersects the rectangle; counts the scan.

        The area-query twin of :meth:`covering`, used for cell-granular
        database responses: an entry qualifies when any point of
        ``[x0, x1] x [y0, y1]`` lies inside its contour (exact test via
        the clamped nearest point).  A contour bucketed into several of
        the rectangle's cells is scanned — and yielded — once.
        """
        lo_cx, lo_cy = self.cell_of(x0_m, y0_m)
        hi_cx, hi_cy = self.cell_of(x1_m, y1_m)
        candidates: list[SpatialEntry] = []
        seen: set[int] = set()
        for cx in range(lo_cx, hi_cx + 1):
            for cy in range(lo_cy, hi_cy + 1):
                for entry in self._buckets.get((cx, cy), ()):
                    if id(entry) not in seen:
                        seen.add(id(entry))
                        candidates.append(entry)
        self.queries += 1
        self.candidates_scanned += len(candidates)
        for entry in candidates:
            if circle_intersects_rect(
                entry.x_m, entry.y_m, entry.radius_m, x0_m, y0_m, x1_m, y1_m
            ):
                yield entry
