"""Quickstart: label a POI dataset with a simulated crowd in ~40 lines.

Generates the synthetic Beijing dataset, simulates a worker pool and a
Deployment-1 style answer collection (five answers per task), fits the
location-aware inference model and compares it against majority voting.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    LocationAwareInference,
    MajorityVoteInference,
    generate_beijing_dataset,
)
from repro.framework.experiment import build_platform
from repro.framework.metrics import labelling_accuracy


def main() -> None:
    # 1. A dataset of 200 POIs, each with 10 candidate labels and hidden ground truth.
    dataset = generate_beijing_dataset(seed=7)
    print(f"dataset: {dataset.name} with {len(dataset)} tasks, "
          f"{dataset.total_correct_labels} correct / {dataset.total_incorrect_labels} incorrect labels")

    # 2. A simulated crowdsourcing platform: 60 workers with latent quality and
    #    distance-sensitivity profiles, a budget of 1000 task assignments.
    platform = build_platform(dataset, budget=1000, seed=42)
    answers = platform.collect_batch_answers(answers_per_task=5, seed=42)
    print(f"collected {len(answers)} answers from {len(platform.worker_pool)} workers "
          f"({platform.budget.spent} budget units spent)")

    # 3. Fit the paper's location-aware inference model (IM) and the MV baseline.
    inference = LocationAwareInference(
        dataset.tasks, platform.worker_pool.workers, platform.distance_model
    )
    inference.fit(answers)
    majority = MajorityVoteInference(dataset.tasks).fit(answers)

    im_accuracy = labelling_accuracy(inference.predict_all(), dataset.tasks)
    mv_accuracy = labelling_accuracy(majority.predict_all(), dataset.tasks)
    print(f"labelling accuracy — IM: {im_accuracy:.3f}, MV: {mv_accuracy:.3f}")

    # 4. Inspect one task: the inferred labels and the estimated worker qualities.
    task = dataset.tasks[0]
    probabilities = inference.label_probabilities(task.task_id)
    print(f"\nPOI: {task.poi.name}")
    for label, truth, probability in zip(task.labels, task.truth, probabilities):
        marker = "correct " if truth else "distractor"
        print(f"  P(correct)={probability:.2f}  [{marker}] {label}")

    estimate = inference.parameters
    top_workers = sorted(
        estimate.worker_ids,
        key=lambda worker_id: estimate.worker(worker_id).p_qualified,
        reverse=True,
    )[:3]
    print("\nhighest estimated worker qualities:")
    for worker_id in top_workers:
        params = estimate.worker(worker_id)
        print(f"  {worker_id}: P(qualified)={params.p_qualified:.2f}, "
              f"distance weights={[round(float(w), 2) for w in params.distance_weights]}")


if __name__ == "__main__":
    main()
