"""The dense ``workers × tasks`` normalised-distance matrix.

``src/`` computes one worker's row at a time
(:func:`repro.spatial.distance.normalised_distance_row`, from the worker's
kept location arrays); the kernel and engine equivalence tests want every
worker's row at once, from :class:`~repro.spatial.geometry.GeoPoint` lists.
This is that matrix, computed the way the serving path computed first
requests before it kept location arrays: every declared location flattened
with an owner index, one metric pass per block of workers, and the minimum
over each worker's locations taken one location rank at a time.
"""

from __future__ import annotations

import numpy as np

from repro.spatial.distance import _ARRAY_METRICS
from repro.spatial.geometry import points_to_arrays


def normalised_distance_matrix(worker_locations, task_locations, model, chunk_size=1024):
    """Dense ``len(workers) x len(tasks)`` matrix of normalised distances.

    ``worker_locations[i]`` is the list of declared locations of worker ``i``;
    blocks of ``chunk_size`` workers bound the temporaries at
    O(chunk_size · max_locations · len(tasks)).
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    task_x, task_y = points_to_arrays(task_locations)
    num_workers, num_tasks = len(worker_locations), task_x.size
    if num_workers == 0 or num_tasks == 0:
        return np.empty((num_workers, num_tasks), dtype=float)
    counts = np.array([len(locations) for locations in worker_locations], dtype=np.intp)
    if np.any(counts == 0):
        raise ValueError("a worker must declare at least one location")
    wx, wy = points_to_arrays([p for locations in worker_locations for p in locations])
    distance_fn = _ARRAY_METRICS[model.metric]
    starts = np.cumsum(counts) - counts  # first flat row of each worker
    matrix = np.empty((num_workers, num_tasks), dtype=float)
    for block_start in range(0, num_workers, chunk_size):
        block_stop = min(block_start + chunk_size, num_workers)
        row_start = int(starts[block_start])
        row_stop = int(starts[block_stop - 1] + counts[block_stop - 1])
        raw = distance_fn(
            wx[row_start:row_stop, None],
            wy[row_start:row_stop, None],
            task_x[None, :],
            task_y[None, :],
        )
        first = starts[block_start:block_stop] - row_start
        block_counts = counts[block_start:block_stop]
        block = matrix[block_start:block_stop]
        block[...] = raw[first]
        for extra in range(1, int(block_counts.max())):
            more = np.flatnonzero(block_counts > extra)
            block[more] = np.minimum(block[more], raw[first[more] + extra])
    return np.minimum(1.0, matrix / model.max_distance, out=matrix)
