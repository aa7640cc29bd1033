"""Task-assignment strategies behind a common interface.

* :class:`~repro.assign.random_assigner.RandomAssigner` — the RANDOM baseline:
  each available worker receives ``h`` uniformly random tasks they have not yet
  answered.
* :class:`~repro.assign.spatial_first.SpatialFirstAssigner` — the SF baseline:
  each worker receives the closest not-yet-answered tasks.
* :class:`~repro.assign.uncertainty.UncertaintyFirstAssigner` — an extension
  beyond the paper: entropy-based task selection in the spirit of the CDAS
  baseline discussed in the related work.
* :class:`~repro.assign.accopt.AccOptAssigner` — the paper's greedy
  accuracy-improvement assigner (Algorithm 1), scoring candidate pairs
  through the batched :mod:`repro.core.accuracy_kernel` (dense, or
  candidate-pruned with ``engine="sparse"``).  The scalar Algorithm 1 it is
  tested against lives in ``tests/oracles/accopt.py``.

All strategies implement :class:`repro.core.assignment.TaskAssigner`.
:func:`build_assigner` constructs any of them by name — the CLI, the examples
and the online serving frontend (:mod:`repro.serving.frontend`) all go through
it so strategy names stay consistent across entry points.
"""

from __future__ import annotations

from repro.core.assignment import TaskAssigner
from repro.assign.accopt import ACCOPT_ENGINES, AccOptAssigner
from repro.assign.random_assigner import RandomAssigner
from repro.assign.spatial_first import SpatialFirstAssigner
from repro.assign.uncertainty import UncertaintyFirstAssigner
from repro.data.models import Task, Worker
from repro.spatial.distance import DistanceModel

#: Strategy names accepted by :func:`build_assigner` (and the CLI flags).
ASSIGNER_NAMES = ("accopt", "random", "spatial", "uncertainty")


def build_assigner(
    name: str,
    tasks: list[Task],
    workers: list[Worker],
    distance_model: DistanceModel | None = None,
    seed: int | None = None,
    engine: str = "vectorized",
    candidate_radius: float | None = None,
    metrics=None,
) -> TaskAssigner:
    """Construct the assignment strategy called ``name``.

    ``distance_model`` is required by the distance-aware strategies
    (``"accopt"`` and ``"spatial"``), and the others keep it for
    :meth:`~repro.core.assignment.TaskAssigner.distance_row` (the serving
    frontend's trust probe); ``seed`` only affects ``"random"``;
    ``engine`` selects the ``"accopt"`` ΔAcc scoring layout (one of
    :data:`ACCOPT_ENGINES`: ``"vectorized"`` dense kernels by default, or
    ``"sparse"`` for the candidate-pruned CSR path, which additionally needs
    ``candidate_radius``).  ``metrics`` is an optional
    :class:`~repro.obs.metrics.MetricsRegistry` receiving the sparse
    engine's candidate-pruning statistics.
    """
    if name not in ASSIGNER_NAMES:
        raise ValueError(f"unknown assigner {name!r}; expected one of {ASSIGNER_NAMES}")
    if name == "random":
        return RandomAssigner(tasks, workers, seed=seed, distance_model=distance_model)
    if name == "uncertainty":
        return UncertaintyFirstAssigner(tasks, workers, distance_model=distance_model)
    if distance_model is None:
        raise ValueError(f"assigner {name!r} requires a distance_model")
    if name == "spatial":
        return SpatialFirstAssigner(tasks, workers, distance_model)
    return AccOptAssigner(
        tasks,
        workers,
        distance_model,
        engine=engine,
        candidate_radius=candidate_radius,
        metrics=metrics,
    )


__all__ = [
    "ASSIGNER_NAMES",
    "ACCOPT_ENGINES",
    "TaskAssigner",
    "AccOptAssigner",
    "RandomAssigner",
    "SpatialFirstAssigner",
    "UncertaintyFirstAssigner",
    "build_assigner",
]
