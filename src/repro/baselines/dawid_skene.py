"""Dawid–Skene confusion-matrix EM baseline (the "EM" method in the paper).

The classic estimator from Dawid & Skene (1979), applied label-wise to the
binary POI-labelling setting:

* every worker ``w`` has a 2×2 confusion matrix ``π_w[z][r]`` — the probability
  of answering ``r`` when the truth is ``z``;
* every label carries a Bernoulli truth prior;
* EM alternates between (E) computing the posterior of each label's truth given
  the current confusion matrices and (M) re-estimating confusion matrices and
  class priors from those posteriors.

Unlike the paper's model this estimator is *location-unaware*: a worker's
quality is the same regardless of how far the POI is, which is exactly the
deficiency the case study in Table I illustrates.

The EM loop flattens the answer log once into the same flat-index layout the
:class:`~repro.core.em_kernel.AnswerTensor` uses — integer item/worker index
arrays plus a 0/1 response vector — and runs every E/M step as
``np.bincount`` segment sums over those indices.  The per-observation loop it
is equivalence-tested against lives in ``tests/oracles/dawid_skene.py``
(``tests/test_baselines_dawid_skene.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import LabelInferenceModel
from repro.data.models import AnswerSet, Task


@dataclass
class DawidSkeneConfig:
    """Hyper-parameters of the Dawid–Skene EM baseline."""

    max_iterations: int = 100
    convergence_threshold: float = 1e-4
    smoothing: float = 0.1

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if self.convergence_threshold < 0:
            raise ValueError(
                f"convergence_threshold must be non-negative, got "
                f"{self.convergence_threshold}"
            )
        if self.smoothing < 0:
            raise ValueError(f"smoothing must be non-negative, got {self.smoothing}")


@dataclass
class DawidSkeneResult:
    """Diagnostics of one Dawid–Skene EM run."""

    iterations: int
    converged: bool
    convergence_trace: list[float] = field(default_factory=list)


class DawidSkeneInference(LabelInferenceModel):
    """Binary Dawid–Skene EM over (task, label) items."""

    def __init__(self, tasks: list[Task], config: DawidSkeneConfig | None = None) -> None:
        super().__init__(tasks)
        self._config = config or DawidSkeneConfig()
        self._probabilities: dict[str, np.ndarray] = {}
        self._confusion: dict[str, np.ndarray] = {}
        self._last_result: DawidSkeneResult | None = None

    @property
    def config(self) -> DawidSkeneConfig:
        return self._config

    @property
    def last_result(self) -> DawidSkeneResult | None:
        return self._last_result

    def worker_confusion(self, worker_id: str) -> np.ndarray:
        """The 2×2 confusion matrix ``π_w[z][r]`` estimated for ``worker_id``."""
        self._require_fitted()
        return self._confusion[worker_id].copy()

    def worker_accuracy(self, worker_id: str) -> float:
        """Average diagonal of the confusion matrix — the scalar quality EM uses."""
        matrix = self.worker_confusion(worker_id)
        return float((matrix[0, 0] + matrix[1, 1]) / 2.0)

    def fit(self, answers: AnswerSet) -> "DawidSkeneInference":
        items, observations = self._flatten(answers)
        posterior, confusion, result = self._run_em(items, observations)

        self._confusion = confusion
        self._probabilities = {}
        for task_id, task in self._tasks.items():
            probs = np.array(
                [posterior.get((task_id, k), 0.5) for k in range(task.num_labels)]
            )
            self._probabilities[task_id] = probs
        self._last_result = result
        self._fitted = True
        return self

    def label_probabilities(self, task_id: str) -> np.ndarray:
        self._require_fitted()
        self._require_task(task_id)
        return self._probabilities[task_id].copy()

    # ---------------------------------------------------------------------- EM
    def _run_em(
        self,
        items: list[tuple[str, int]],
        observations: list[tuple[str, tuple[str, int], int]],
    ) -> tuple[dict[tuple[str, int], float], dict[str, np.ndarray], DawidSkeneResult]:
        """Batched EM on the flat-index layout.

        Observations become three aligned arrays — item index, worker index and
        0/1 response — and each E/M step is a fixed number of ``np.bincount``
        segment sums, exactly like the M-step scatter-adds of
        :func:`repro.core.em_kernel.em_step`.  The per-bin accumulation order
        equals the observation order, so a per-observation loop over the same
        observations agrees to floating-point noise.
        """
        worker_ids = sorted({worker_id for worker_id, _, _ in observations})
        item_index = {item: i for i, item in enumerate(items)}
        worker_index = {worker_id: w for w, worker_id in enumerate(worker_ids)}
        num_items = len(items)
        num_workers = len(worker_ids)

        o_item = np.fromiter(
            (item_index[key] for _, key, _ in observations),
            dtype=np.intp,
            count=len(observations),
        )
        o_worker = np.fromiter(
            (worker_index[worker_id] for worker_id, _, _ in observations),
            dtype=np.intp,
            count=len(observations),
        )
        o_resp = np.fromiter(
            (response for _, _, response in observations),
            dtype=np.intp,
            count=len(observations),
        )

        # Majority-vote initialisation of the truth posteriors (per item).
        votes = np.bincount(o_item, weights=o_resp.astype(float), minlength=num_items)
        counts = np.bincount(o_item, minlength=num_items)
        posterior = np.where(counts > 0, votes / np.maximum(1, counts), 0.5)

        # conf[z] rows live in two (|W|, 2) matrices: conf0 = π_w[0, ·],
        # conf1 = π_w[1, ·].  No initial value is needed — the loop always
        # runs its M-step (from the majority-vote posteriors) before the
        # first E-step reads them, and max_iterations is validated positive.
        prior_positive = 0.5
        smoothing = self._config.smoothing
        # Combined (worker, response) bin for the confusion scatter-adds.
        wr_bin = o_worker * 2 + o_resp

        trace: list[float] = []
        converged = False
        iterations = 0
        for iteration in range(self._config.max_iterations):
            iterations = iteration + 1

            # M-step: confusion matrices and class prior from current posteriors.
            p1 = posterior[o_item]
            counts1 = smoothing + np.bincount(
                wr_bin, weights=p1, minlength=2 * num_workers
            ).reshape(num_workers, 2)
            counts0 = smoothing + np.bincount(
                wr_bin, weights=1.0 - p1, minlength=2 * num_workers
            ).reshape(num_workers, 2)
            conf1 = counts1 / counts1.sum(axis=1, keepdims=True)
            conf0 = counts0 / counts0.sum(axis=1, keepdims=True)
            if num_items:
                prior_positive = float(np.mean(posterior))
                prior_positive = min(1.0 - 1e-6, max(1e-6, prior_positive))

            # E-step: truth posteriors from the confusion matrices.
            log_c1 = np.log(np.maximum(conf1, 1e-12))
            log_c0 = np.log(np.maximum(conf0, 1e-12))
            log_p1 = np.log(prior_positive) + np.bincount(
                o_item, weights=log_c1[o_worker, o_resp], minlength=num_items
            )
            log_p0 = np.log(1.0 - prior_positive) + np.bincount(
                o_item, weights=log_c0[o_worker, o_resp], minlength=num_items
            )
            new_posterior = np.exp(log_p1 - np.logaddexp(log_p1, log_p0))
            max_change = (
                float(np.abs(new_posterior - posterior).max()) if num_items else 0.0
            )
            posterior = new_posterior
            trace.append(max_change)
            if max_change <= self._config.convergence_threshold:
                converged = True
                break

        posterior_dict = {item: float(posterior[i]) for i, item in enumerate(items)}
        confusion = {
            worker_id: np.stack([conf0[w], conf1[w]])
            for worker_id, w in worker_index.items()
        }
        result = DawidSkeneResult(
            iterations=iterations, converged=converged, convergence_trace=trace
        )
        return posterior_dict, confusion, result

    # ------------------------------------------------------------------ internal
    def _flatten(
        self, answers: AnswerSet
    ) -> tuple[list[tuple[str, int]], list[tuple[str, tuple[str, int], int]]]:
        """Flatten answers into (task, label-index) items and per-item observations."""
        items: set[tuple[str, int]] = set()
        observations: list[tuple[str, tuple[str, int], int]] = []
        for answer in answers:
            task = self._tasks.get(answer.task_id)
            if task is None:
                raise KeyError(f"answer references unknown task {answer.task_id!r}")
            if answer.num_labels != task.num_labels:
                raise ValueError(
                    f"answer for task {task.task_id!r} has {answer.num_labels} labels, "
                    f"task has {task.num_labels}"
                )
            for k, response in enumerate(answer.responses):
                item = (answer.task_id, k)
                items.add(item)
                observations.append((answer.worker_id, item, int(response)))
        # Items with no answers are handled at prediction time (probability 0.5).
        return sorted(items), observations
