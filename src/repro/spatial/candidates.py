"""Candidate-pair bookkeeping shared by the sparse inference and assignment engines.

:class:`CandidateIndex` owns the task-side grid and a per-worker cache of CSR
candidate rows: for each worker, the ascending task-column indices within the
candidate radius of any of the worker's declared locations, plus the *exact*
normalised model distance for each (bit-identical to what the worker's dense
row, :func:`~repro.spatial.distance.normalised_distance_row`, holds for the
same pair).  Out-of-radius
pairs are never stored — the sparse engines substitute the shared far-field
default (normalised distance ``1.0`` on the EM side, the closed-form far-field
accuracy on the AccOpt side) — so total state is O(nnz) instead of O(W·T).

The candidate ``radius`` is expressed in raw planar coordinate units (the
grid's Euclidean metric), matching the pruning criterion of
:meth:`~repro.spatial.grid_index.GridIndex.candidate_pairs`; pass ``inf`` to
make every pair a candidate (the configuration under which the sparse engines
agree with the dense ones to the last bit).  Tasks may be appended after
construction (open-world serving); cached worker rows are lazily topped up
with the new columns the next time they are read.

Pruning effectiveness is observable: when built with a
:class:`~repro.obs.metrics.MetricsRegistry`, the index records the
``candidate_pairs_kept_total`` / ``candidate_pairs_pruned_total`` counters and
``candidate_row_nnz`` / ``candidate_task_nnz`` histograms (candidates per
worker row and per task column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.spatial.bbox import BoundingBox
from repro.spatial.distance import DistanceModel, sparse_distance_csr
from repro.spatial.geometry import GeoPoint
from repro.spatial.grid_index import GridIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from repro.data.models import Task, Worker
    from repro.obs.metrics import MetricsRegistry


@dataclass
class _WorkerRow:
    """Cached candidate row: ascending task columns, exact model distances."""

    cols: np.ndarray
    dists: np.ndarray
    synced_tasks: int


class CandidateIndex:
    """Per-worker CSR candidate rows over a growing task universe.

    Parameters
    ----------
    tasks:
        Initial task collection; the column order of the CSR structure is the
        iteration order given here and is append-only afterwards.
    distance_model:
        Supplies the exact normalised distances stored for candidate pairs.
    radius:
        Candidate radius in raw planar coordinate units; must be positive
        (``inf`` keeps every pair).
    cells_per_axis:
        Resolution of the backing :class:`GridIndex`.
    metrics:
        Optional :class:`MetricsRegistry` for pruning statistics.
    """

    def __init__(
        self,
        tasks: Sequence["Task"],
        distance_model: DistanceModel,
        radius: float,
        cells_per_axis: int = 64,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if math.isnan(radius) or radius <= 0:
            raise ValueError(f"candidate radius must be positive, got {radius}")
        self._distance_model = distance_model
        self._radius = float(radius)
        self._task_ids: list[str] = []
        self._task_col: dict[str, int] = {}
        self._task_locations: list[GeoPoint] = []
        locations = [task.location for task in tasks]
        bounds = (
            BoundingBox.from_points(locations)
            if locations
            else BoundingBox(0.0, 0.0, 1.0, 1.0)
        )
        # Later-added tasks may fall outside these bounds; the grid clamps
        # them to border cells, which stays exact because every bulk query
        # re-filters by true distance.
        self._grid = GridIndex(bounds, cells_per_axis=cells_per_axis)
        self._rows: dict[str, _WorkerRow] = {}
        self._metrics = metrics
        self.pairs_kept_total = 0
        self.pairs_pruned_total = 0
        for task in tasks:
            self.add_task(task)

    @property
    def radius(self) -> float:
        return self._radius

    @property
    def num_tasks(self) -> int:
        return len(self._task_ids)

    @property
    def task_ids(self) -> tuple[str, ...]:
        """Column order of the CSR structure."""
        return tuple(self._task_ids)

    def column_of(self, task_id: str) -> int:
        return self._task_col[task_id]

    def add_task(self, task: "Task") -> None:
        """Append a task as the next column; re-registration is a no-op."""
        if task.task_id in self._task_col:
            return
        column = len(self._task_ids)
        self._task_ids.append(task.task_id)
        self._task_col[task.task_id] = column
        self._task_locations.append(task.location)
        # Column == grid insertion position: the grid is append-only here, so
        # bulk-query positions can be used as columns directly.
        self._grid.insert(column, task.location)

    def _record_rows(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        kept = int(indptr[-1])
        pruned = (indptr.size - 1) * len(self._task_ids) - kept
        self.pairs_kept_total += kept
        self.pairs_pruned_total += pruned
        if self._metrics is None:
            return
        self._metrics.counter("candidate_pairs_kept_total").inc(kept)
        self._metrics.counter("candidate_pairs_pruned_total").inc(pruned)
        row_nnz = self._metrics.histogram("candidate_row_nnz")
        for count in np.diff(indptr).tolist():
            row_nnz.observe(float(count))
        if indices.size:
            task_nnz = self._metrics.histogram("candidate_task_nnz")
            for count in np.bincount(indices).tolist():
                task_nnz.observe(float(count))

    def _compute_rows(self, workers: Sequence["Worker"]) -> None:
        """Compute and cache candidate rows for workers not yet seen."""
        location_lists = [worker.locations for worker in workers]
        pairs = self._grid.candidate_pairs(location_lists, self._radius)
        dists = sparse_distance_csr(
            location_lists,
            self._task_locations,
            self._distance_model,
            pairs.indptr,
            pairs.indices,
        )
        for i, worker in enumerate(workers):
            lo, hi = int(pairs.indptr[i]), int(pairs.indptr[i + 1])
            self._rows[worker.worker_id] = _WorkerRow(
                cols=pairs.indices[lo:hi],
                dists=dists[lo:hi],
                synced_tasks=len(self._task_ids),
            )
        self._record_rows(pairs.indptr, pairs.indices)

    def _refresh_row(self, worker: "Worker", row: _WorkerRow) -> None:
        """Top up a cached row with columns appended after it was computed."""
        num_tasks = len(self._task_ids)
        if row.synced_tasks == num_tasks:
            return
        new_cols = np.arange(row.synced_tasks, num_tasks, dtype=np.intp)
        new_locations = self._task_locations[row.synced_tasks :]
        # Same pruning criterion as the grid (raw planar Euclidean, min over
        # the worker's declared locations) so refreshed rows match what a
        # from-scratch computation would produce.
        wx = np.array([loc.x for loc in worker.locations])
        wy = np.array([loc.y for loc in worker.locations])
        tx = np.array([loc.x for loc in new_locations])
        ty = np.array([loc.y for loc in new_locations])
        raw = np.hypot(wx[:, None] - tx[None, :], wy[:, None] - ty[None, :])
        keep = raw.min(axis=0) <= self._radius
        kept_cols = new_cols[keep]
        if kept_cols.size:
            kept_dists = self._distance_model.worker_task_distances(
                [worker.locations] * int(kept_cols.size),
                [new_locations[int(c) - row.synced_tasks] for c in kept_cols],
            )
            # Appended columns sort after every existing one.
            row.cols = np.concatenate([row.cols, kept_cols])
            row.dists = np.concatenate([row.dists, kept_dists])
        delta = num_tasks - row.synced_tasks
        row.synced_tasks = num_tasks
        self.pairs_kept_total += int(kept_cols.size)
        self.pairs_pruned_total += delta - int(kept_cols.size)
        if self._metrics is not None:
            self._metrics.counter("candidate_pairs_kept_total").inc(
                int(kept_cols.size)
            )
            self._metrics.counter("candidate_pairs_pruned_total").inc(
                delta - int(kept_cols.size)
            )

    def _ensure_rows(self, workers: Sequence["Worker"]) -> None:
        missing = [w for w in workers if w.worker_id not in self._rows]
        if missing:
            # Deduplicate while preserving order.
            seen: dict[str, "Worker"] = {}
            for worker in missing:
                seen.setdefault(worker.worker_id, worker)
            self._compute_rows(list(seen.values()))
        for worker in workers:
            self._refresh_row(worker, self._rows[worker.worker_id])

    def rows_for(
        self, workers: Sequence["Worker"]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR candidate structure over ``workers`` in the given row order.

        Returns ``(indptr, indices, data)``: per row, ascending task columns
        within the radius and their exact normalised model distances.
        """
        self._ensure_rows(workers)
        counts = np.fromiter(
            (self._rows[w.worker_id].cols.size for w in workers),
            dtype=np.intp,
            count=len(workers),
        )
        indptr = np.zeros(len(workers) + 1, dtype=np.intp)
        indptr[1:] = np.cumsum(counts)
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.intp)
        data = np.empty(nnz, dtype=float)
        for i, worker in enumerate(workers):
            row = self._rows[worker.worker_id]
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            indices[lo:hi] = row.cols
            data[lo:hi] = row.dists
        return indptr, indices, data

    def pair_distances(
        self,
        worker_ids: Sequence[str],
        task_ids: Sequence[str],
        workers_by_id: Mapping[str, "Worker"],
    ) -> np.ndarray:
        """Normalised distances for observed (worker, task) pairs.

        The EM tensor build calls this instead of computing dense or
        per-answer exact distances: pair ``i`` gets the cached candidate
        distance of ``(worker_ids[i], task_ids[i])`` when the pair is within
        the radius, and the far-field default ``1.0`` (maximally far) when
        the spatial index pruned it.  ``workers_by_id`` supplies worker
        objects so rows can be computed on first sight.
        """
        if len(worker_ids) != len(task_ids):
            raise ValueError(
                f"worker_ids and task_ids must pair up, got "
                f"{len(worker_ids)} vs {len(task_ids)}"
            )
        out = np.empty(len(worker_ids), dtype=float)
        if not worker_ids:
            return out
        cols = np.fromiter(
            (self._task_col[tid] for tid in task_ids),
            dtype=np.intp,
            count=len(task_ids),
        )
        groups: dict[str, list[int]] = {}
        for i, wid in enumerate(worker_ids):
            groups.setdefault(wid, []).append(i)
        self._ensure_rows([workers_by_id[wid] for wid in groups])
        for wid, pair_indices in groups.items():
            row = self._rows[wid]
            wanted = cols[pair_indices]
            if row.cols.size == 0:
                out[pair_indices] = 1.0
                continue
            pos = np.searchsorted(row.cols, wanted)
            clipped = np.minimum(pos, row.cols.size - 1)
            found = row.cols[clipped] == wanted
            out[pair_indices] = np.where(found, row.dists[clipped], 1.0)
        return out
