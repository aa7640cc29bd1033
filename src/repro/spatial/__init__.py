"""Spatial substrate: geometry primitives, normalised distances and a grid index.

The inference model and the Spatial-First assignment baseline only ever consume
*normalised* worker-to-POI distances in ``[0, 1]``.  This package provides the
geometry (:mod:`repro.spatial.geometry`), the normalisation and multi-location
minimum-distance logic (:mod:`repro.spatial.distance`), bounding boxes
(:mod:`repro.spatial.bbox`) and a uniform grid spatial index used by the
Spatial-First assigner and the dataset generators
(:mod:`repro.spatial.grid_index`).

For web-scale universes the grid index also answers *bulk* radius queries in
CSR layout (:meth:`~repro.spatial.grid_index.GridIndex.items_within_many`,
:meth:`~repro.spatial.grid_index.GridIndex.candidate_pairs`), and
:mod:`repro.spatial.candidates` builds on them: a
:class:`~repro.spatial.candidates.CandidateIndex` holds O(nnz) per-worker
candidate rows (exact normalised distances for in-radius pairs only) that the
``engine="sparse"`` inference and AccOpt paths consume instead of dense
O(W·T) matrices, with out-of-radius pairs collapsed to a shared far-field
default.
"""

from repro.spatial.geometry import GeoPoint, euclidean_distance, haversine_distance
from repro.spatial.bbox import BoundingBox
from repro.spatial.distance import (
    DistanceModel,
    normalised_distance_row,
    sparse_distance_csr,
)
from repro.spatial.grid_index import CandidatePairs, GridIndex
from repro.spatial.candidates import CandidateIndex

__all__ = [
    "GeoPoint",
    "euclidean_distance",
    "haversine_distance",
    "BoundingBox",
    "DistanceModel",
    "normalised_distance_row",
    "sparse_distance_csr",
    "CandidatePairs",
    "GridIndex",
    "CandidateIndex",
]
