"""Normalised worker-to-POI distances.

The inference model (Section III of the paper) consumes a normalised distance
``d(w, t) in [0, 1]`` between a worker ``w`` and a task ``t``:

* a worker may declare *several* locations (home, office, interest zones); the
  paper takes the **minimum** distance from any of the worker's locations to the
  POI, because the worker is assumed to be familiar with the neighbourhood of
  every location they declared;
* raw distances are normalised by a maximum distance (the paper suggests the
  maximum pairwise POI distance) so that the bell-shaped quality functions see
  values in ``[0, 1]`` regardless of the dataset's geographic extent.

:class:`DistanceModel` encapsulates the metric choice, the normalisation
constant and a cache of already-computed pairs, and is shared between the
inference model, the assigners and the analysis code so they all agree on what
"distance 0.3" means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from repro.spatial.geometry import (
    GeoPoint,
    convex_hull_indices,
    euclidean_distance,
    euclidean_distances,
    haversine_distance,
    haversine_distances,
    points_to_arrays,
)

MetricName = Literal["euclidean", "haversine"]

_METRICS: dict[str, Callable[[GeoPoint, GeoPoint], float]] = {
    "euclidean": euclidean_distance,
    "haversine": haversine_distance,
}

#: Array counterparts of :data:`_METRICS`; signature ``(ax, ay, bx, by)`` with
#: NumPy broadcasting, where ``x``/``y`` are lon/lat for the haversine metric.
_ARRAY_METRICS: dict[str, Callable[..., "np.ndarray"]] = {
    "euclidean": euclidean_distances,
    "haversine": haversine_distances,
}


#: Below this many points the brute-force diameter scan is as fast as building
#: a hull, so ``method="auto"`` keeps the O(N²) oracle path.
_HULL_CUTOFF = 1024


def _bruteforce_diameter(
    xs: np.ndarray,
    ys: np.ndarray,
    distance_fn: Callable[..., "np.ndarray"],
    chunk_size: int,
) -> float:
    """Exact diameter by chunked O(N²) broadcast over coordinate arrays."""
    best = 0.0
    for start in range(0, xs.size, chunk_size):
        stop = min(start + chunk_size, xs.size)
        block = distance_fn(
            xs[start:stop, None], ys[start:stop, None], xs[None, :], ys[None, :]
        )
        best = max(best, float(block.max()))
    return best


def max_pairwise_distance(
    points: Sequence[GeoPoint],
    metric: MetricName = "euclidean",
    chunk_size: int = 2048,
    method: Literal["auto", "hull", "bruteforce"] = "auto",
) -> float:
    """Maximum pairwise distance among ``points`` (the paper's normaliser).

    ``method="hull"`` computes the convex hull first (O(N log N)) and scans
    only pairs of hull vertices: the two farthest points of a set are always
    hull vertices, so the result is exact while the pair scan shrinks from N²
    to h² (h is typically O(log N) for random point sets).  For the haversine
    metric the hull is taken in lon/lat coordinates, which preserves the
    farthest pair away from the poles/antimeridian — exactly the regime of the
    paper's city/country datasets.  ``method="bruteforce"`` is the original
    chunked O(N²) broadcast, kept as the equivalence oracle for small N and
    selected automatically below ``1024`` points; ``method="auto"`` picks
    between the two by size.  A single point (or an empty collection) has no
    meaningful diameter; we return 0.0 and leave it to the caller to reject
    that as a normaliser.
    """
    if metric not in _ARRAY_METRICS:
        raise KeyError(metric)
    if method not in ("auto", "hull", "bruteforce"):
        raise ValueError(f"unknown method {method!r}")
    if len(points) < 2:
        return 0.0
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    distance_fn = _ARRAY_METRICS[metric]
    xs, ys = points_to_arrays(points)
    if method == "auto":
        method = "bruteforce" if xs.size <= _HULL_CUTOFF else "hull"
    if method == "hull":
        hull = convex_hull_indices(xs, ys)
        if hull.size >= 2:
            xs, ys = xs[hull], ys[hull]
    return _bruteforce_diameter(xs, ys, distance_fn, chunk_size)


@dataclass
class DistanceModel:
    """Computes normalised worker-to-task distances.

    Parameters
    ----------
    max_distance:
        Normalisation constant.  Raw distances are divided by it and clipped to
        ``[0, 1]``; anything at least ``max_distance`` away is "maximally far".
    metric:
        ``"euclidean"`` for planar coordinates or ``"haversine"`` for lon/lat.
    """

    max_distance: float
    metric: MetricName = "euclidean"
    _cache: dict[tuple[tuple[float, float], tuple[float, float]], float] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.max_distance <= 0 or not np.isfinite(self.max_distance):
            raise ValueError(
                f"max_distance must be positive and finite, got {self.max_distance}"
            )
        if self.metric not in _METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")

    @classmethod
    def from_pois(
        cls, poi_locations: Sequence[GeoPoint], metric: MetricName = "euclidean"
    ) -> "DistanceModel":
        """Build a model normalised by the maximum pairwise POI distance."""
        diameter = max_pairwise_distance(list(poi_locations), metric=metric)
        if diameter <= 0:
            raise ValueError(
                "POI locations must span a positive diameter to define a normaliser"
            )
        return cls(max_distance=diameter, metric=metric)

    def raw_distance(self, a: GeoPoint, b: GeoPoint) -> float:
        """Unnormalised distance between two points under the configured metric."""
        key = (a.as_tuple(), b.as_tuple())
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = _METRICS[self.metric](a, b)
        self._cache[key] = value
        self._cache[(key[1], key[0])] = value
        return value

    def normalised(self, a: GeoPoint, b: GeoPoint) -> float:
        """Normalised distance in ``[0, 1]`` between two points."""
        return min(1.0, self.raw_distance(a, b) / self.max_distance)

    def worker_task_distance(
        self, worker_locations: Iterable[GeoPoint], task_location: GeoPoint
    ) -> float:
        """Normalised distance from a worker to a task.

        Follows the paper's convention: the minimum over all of the worker's
        declared locations, then normalised and clipped to ``[0, 1]``.
        """
        locations = list(worker_locations)
        if not locations:
            raise ValueError("a worker must declare at least one location")
        best = min(self.raw_distance(loc, task_location) for loc in locations)
        return min(1.0, best / self.max_distance)

    def worker_task_distances(
        self,
        worker_locations: Sequence[Iterable[GeoPoint]],
        task_locations: Sequence[GeoPoint],
    ) -> np.ndarray:
        """Batched, paired version of :meth:`worker_task_distance`.

        ``worker_locations[i]`` is the collection of declared locations of the
        worker in pair ``i`` and ``task_locations[i]`` the POI location of the
        same pair; the result is the ``(len(pairs),)`` vector of normalised
        distances.  All pairs are computed in one NumPy pass (flatten every
        declared location with an owner index, evaluate the metric once, then
        segment-minimise per owner), replacing N scalar cache lookups when the
        inference engine builds its answer tensor.
        """
        if len(worker_locations) != len(task_locations):
            raise ValueError(
                f"worker_locations and task_locations must pair up, got "
                f"{len(worker_locations)} vs {len(task_locations)}"
            )
        num_pairs = len(worker_locations)
        if num_pairs == 0:
            return np.empty(0, dtype=float)

        flat_locations: list[GeoPoint] = []
        counts = np.empty(num_pairs, dtype=np.intp)
        for i, locations in enumerate(worker_locations):
            materialised = (
                locations
                if isinstance(locations, (list, tuple))
                else list(locations)
            )
            if len(materialised) == 0:
                raise ValueError("a worker must declare at least one location")
            counts[i] = len(materialised)
            flat_locations.extend(materialised)

        owner = np.repeat(np.arange(num_pairs, dtype=np.intp), counts)
        wx, wy = points_to_arrays(flat_locations)
        tx, ty = points_to_arrays(task_locations)
        raw = _ARRAY_METRICS[self.metric](wx, wy, tx[owner], ty[owner])
        # Each pair's locations are contiguous in `raw`, so the per-pair
        # minimum is a segmented reduce over the segment start offsets.
        starts = np.cumsum(counts) - counts
        best = np.minimum.reduceat(raw, starts)
        return np.minimum(1.0, best / self.max_distance)

    def clear_cache(self) -> None:
        """Drop the memoised raw distances (e.g. between independent trials)."""
        self._cache.clear()


def normalised_distance_row(
    location_x: np.ndarray,
    location_y: np.ndarray,
    task_x: np.ndarray,
    task_y: np.ndarray,
    model: DistanceModel,
) -> np.ndarray:
    """One worker's normalised distances to every task, as a ``(T,)`` row.

    ``location_x``/``location_y`` are the worker's declared locations and
    ``task_x``/``task_y`` the tasks' coordinates, each as the arrays
    :func:`~repro.spatial.geometry.points_to_arrays` makes, so a caller that
    keeps both converts no points per call.  One metric pass over the
    ``(locations, tasks)`` grid, the exact minimum over locations, then
    ``min(1, raw / max_distance)``: the arithmetic of
    :meth:`DistanceModel.worker_task_distance` on the array metric.
    """
    raw = _ARRAY_METRICS[model.metric](
        location_x[:, None], location_y[:, None], task_x, task_y
    )
    row = raw[0] if len(raw) == 1 else raw.min(axis=0)
    row /= model.max_distance
    return np.minimum(row, 1.0, out=row)


def sparse_distance_csr(
    worker_locations: Sequence[Sequence[GeoPoint]],
    task_locations: Sequence[GeoPoint],
    model: DistanceModel,
    indptr: np.ndarray,
    indices: np.ndarray,
    chunk_size: int = 1 << 18,
) -> np.ndarray:
    """Normalised distances for the candidate pairs of a CSR structure only.

    Sparse twin of :func:`normalised_distance_row`: ``indptr``/``indices``
    describe, per worker row ``i``, which task columns are candidates
    (``indices[indptr[i]:indptr[i + 1]]``), and the result is the ``(nnz,)``
    vector of normalised worker→task distances aligned with ``indices``.  The
    arithmetic matches the dense path exactly — same metric kernel, minimum
    over the worker's declared locations, then ``min(1, raw / max_distance)``
    — so a candidate pair gets a bit-identical distance to the one the
    worker's dense row would hold.  Work and memory are O(nnz · max_locations), chunked
    over ``chunk_size`` candidate pairs.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    indptr = np.asarray(indptr, dtype=np.intp)
    indices = np.asarray(indices, dtype=np.intp)
    num_workers = len(worker_locations)
    if indptr.size != num_workers + 1:
        raise ValueError(
            f"indptr must have {num_workers + 1} entries, got {indptr.size}"
        )
    nnz = int(indptr[-1])
    if indices.size != nnz:
        raise ValueError(f"indices must have {nnz} entries, got {indices.size}")
    if nnz == 0:
        return np.empty(0, dtype=float)

    flat_locations: list[GeoPoint] = []
    loc_counts = np.empty(num_workers, dtype=np.intp)
    for i, locations in enumerate(worker_locations):
        materialised = list(locations)
        if not materialised:
            raise ValueError("a worker must declare at least one location")
        loc_counts[i] = len(materialised)
        flat_locations.extend(materialised)
    wx, wy = points_to_arrays(flat_locations)
    tx, ty = points_to_arrays(task_locations)
    loc_starts = np.cumsum(loc_counts) - loc_counts

    rows = np.repeat(np.arange(num_workers, dtype=np.intp), np.diff(indptr))
    distance_fn = _ARRAY_METRICS[model.metric]
    out = np.empty(nnz, dtype=float)
    for start in range(0, nnz, chunk_size):
        stop = min(start + chunk_size, nnz)
        chunk_rows = rows[start:stop]
        chunk_counts = loc_counts[chunk_rows]
        # Expand each candidate pair into one entry per declared worker
        # location: segment offsets via the repeat/cumsum-arange trick.
        seg_starts = np.cumsum(chunk_counts) - chunk_counts
        within = np.arange(int(chunk_counts.sum()), dtype=np.intp) - np.repeat(
            seg_starts, chunk_counts
        )
        flat_idx = np.repeat(loc_starts[chunk_rows], chunk_counts) + within
        task_idx = np.repeat(indices[start:stop], chunk_counts)
        raw = distance_fn(wx[flat_idx], wy[flat_idx], tx[task_idx], ty[task_idx])
        out[start:stop] = np.minimum.reduceat(raw, seg_starts)
    return np.minimum(1.0, out / model.max_distance, out=out)
