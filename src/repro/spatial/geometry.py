"""Geometric primitives: points and distance functions.

The paper works with POIs and workers located in a city (Beijing) or a country
(China).  Internally all algorithms consume distances normalised to ``[0, 1]``,
so the choice of metric only matters for the raw distance computation.  We
provide both planar Euclidean distance (used by the paper's running example,
whose coordinates are plain x/y values) and the haversine great-circle distance
for latitude/longitude coordinates produced by the dataset generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Mean Earth radius in kilometres, used by :func:`haversine_distance`.
EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class GeoPoint:
    """A point identified by two coordinates.

    ``x``/``y`` are interpreted either as planar coordinates (Euclidean metric)
    or as longitude/latitude in degrees (haversine metric); the metric choice is
    made by the :class:`repro.spatial.distance.DistanceModel` that consumes the
    points, not by the point itself.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")

    @property
    def lon(self) -> float:
        """Longitude alias for :attr:`x` when the point is geographic."""
        return self.x

    @property
    def lat(self) -> float:
        """Latitude alias for :attr:`y` when the point is geographic."""
        return self.y

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)

    def offset(self, dx: float, dy: float) -> "GeoPoint":
        """Return a new point displaced by ``(dx, dy)``."""
        return GeoPoint(self.x + dx, self.y + dy)


def euclidean_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Planar Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in kilometres between two lon/lat points."""
    lon1, lat1 = math.radians(a.lon), math.radians(a.lat)
    lon2, lat2 = math.radians(b.lon), math.radians(b.lat)
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    # Clamp to guard against floating-point overshoot for antipodal points.
    h = min(1.0, max(0.0, h))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def euclidean_distances(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
) -> np.ndarray:
    """Element-wise (broadcasting) planar Euclidean distances.

    Array counterpart of :func:`euclidean_distance`.  ``np.hypot`` and
    ``math.hypot`` may round the last bit differently, so the scalar and
    batched paths agree to within an ulp.
    """
    return np.hypot(np.asarray(ax, dtype=float) - bx, np.asarray(ay, dtype=float) - by)


def haversine_distances(
    alon: np.ndarray, alat: np.ndarray, blon: np.ndarray, blat: np.ndarray
) -> np.ndarray:
    """Element-wise (broadcasting) great-circle distances in kilometres.

    Array counterpart of :func:`haversine_distance` using the same formula and
    the same antipodal clamp.
    """
    lon1 = np.radians(np.asarray(alon, dtype=float))
    lat1 = np.radians(np.asarray(alat, dtype=float))
    lon2 = np.radians(np.asarray(blon, dtype=float))
    lat2 = np.radians(np.asarray(blat, dtype=float))
    h = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    )
    h = np.clip(h, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))


def points_to_arrays(points: Iterable[GeoPoint]) -> tuple[np.ndarray, np.ndarray]:
    """Split a collection of points into parallel x / y coordinate arrays."""
    materialised = points if isinstance(points, (list, tuple)) else list(points)
    xs = np.fromiter((p.x for p in materialised), dtype=float, count=len(materialised))
    ys = np.fromiter((p.y for p in materialised), dtype=float, count=len(materialised))
    return xs, ys


def convex_hull_indices(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of the convex hull of ``(xs, ys)``, counter-clockwise.

    Andrew's monotone chain in O(N log N).  Collinear points on hull edges are
    dropped, duplicates are tolerated, and degenerate inputs (all points equal
    or collinear) reduce to the two extreme points (or a single point).  The
    returned indices refer to the *original* arrays.

    The hull is computed in the plane of the raw coordinates.  For lon/lat
    data this is the hull in equirectangular coordinates; away from the poles
    and the antimeridian the farthest great-circle pair still lies on that
    hull (spherical caps are quasi-convex in lon/lat there), which is the only
    property :func:`repro.spatial.distance.max_pairwise_distance` relies on.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-D arrays of equal length")
    n = xs.size
    if n == 0:
        return np.empty(0, dtype=np.intp)
    order = np.lexsort((ys, xs))
    # Collapse exact duplicates so the chain never stalls on repeated points.
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = (np.diff(xs[order]) != 0.0) | (np.diff(ys[order]) != 0.0)
    order = order[keep]
    if order.size <= 2:
        return order

    def _chain(indices: np.ndarray) -> list[int]:
        hull: list[int] = []
        for idx in indices:
            while len(hull) >= 2:
                o, a = hull[-2], hull[-1]
                cross = (xs[a] - xs[o]) * (ys[idx] - ys[o]) - (
                    ys[a] - ys[o]
                ) * (xs[idx] - xs[o])
                if cross <= 0.0:
                    hull.pop()
                else:
                    break
            hull.append(int(idx))
        return hull

    lower = _chain(order)
    upper = _chain(order[::-1])
    return np.asarray(lower[:-1] + upper[:-1], dtype=np.intp)

