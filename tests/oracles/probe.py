"""The scalar trust-probe pick: the worker's nearest unanswered task.

:meth:`repro.serving.frontend.AssignmentFrontend._maybe_probe` reads the pick
off one batched distance row; this is the loop it replaced, one
:meth:`~repro.spatial.distance.DistanceModel.worker_task_distance` call per
task.
"""

from __future__ import annotations


def nearest_unanswered_task(tasks, worker, distance_model, answered=()):
    """The task of ``tasks`` nearest to ``worker`` that is not in ``answered``.

    Tasks are scanned in order and only a strictly smaller distance replaces
    the best so far, so ties go to the first task.  ``None`` when every task
    is answered.
    """
    best_id, best_distance = None, float("inf")
    for task in tasks:
        if task.task_id in answered:
            continue
        distance = distance_model.worker_task_distance(worker.locations, task.location)
        if distance < best_distance:
            best_id, best_distance = task.task_id, distance
    return best_id
