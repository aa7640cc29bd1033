"""Per-observation Dawid–Skene EM (Dawid & Skene, 1979).

The executable specification the flat-index ``np.bincount`` engine of
:class:`repro.baselines.dawid_skene.DawidSkeneInference` is tested against:
one Python loop iteration per observation in both the M-step (confusion
counts) and the E-step (truth log-odds).  :class:`ReferenceDawidSkene`
replaces only the EM loop, so flattening, validation and prediction are the
production code's.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.dawid_skene import DawidSkeneInference, DawidSkeneResult


class ReferenceDawidSkene(DawidSkeneInference):
    """:class:`DawidSkeneInference` with the per-observation EM loop."""

    def _run_em(
        self,
        items: list[tuple[str, int]],
        observations: list[tuple[str, tuple[str, int], int]],
    ) -> tuple[dict[tuple[str, int], float], dict[str, np.ndarray], DawidSkeneResult]:
        worker_ids = sorted({worker_id for worker_id, _, _ in observations})

        # Initialise truth posteriors with the majority-vote fraction.
        posterior = {}
        for item in items:
            votes = [r for _, key, r in observations if key == item]
            posterior[item] = float(np.mean(votes)) if votes else 0.5

        # Index observations per item and per worker once.
        obs_by_item: dict[tuple[str, int], list[tuple[str, int]]] = {
            item: [] for item in items
        }
        obs_by_worker: dict[str, list[tuple[tuple[str, int], int]]] = {
            worker_id: [] for worker_id in worker_ids
        }
        for worker_id, item, response in observations:
            obs_by_item[item].append((worker_id, response))
            obs_by_worker[worker_id].append((item, response))

        confusion = {
            worker_id: np.array([[0.7, 0.3], [0.3, 0.7]]) for worker_id in worker_ids
        }
        prior_positive = 0.5
        smoothing = self.config.smoothing

        trace: list[float] = []
        converged = False
        iterations = 0
        for iteration in range(self.config.max_iterations):
            iterations = iteration + 1

            # M-step: confusion matrices and class prior from current posteriors.
            new_confusion = {}
            for worker_id in worker_ids:
                counts = np.full((2, 2), smoothing)
                for item, response in obs_by_worker[worker_id]:
                    p1 = posterior[item]
                    counts[1, response] += p1
                    counts[0, response] += 1.0 - p1
                counts /= counts.sum(axis=1, keepdims=True)
                new_confusion[worker_id] = counts
            confusion = new_confusion
            if posterior:
                prior_positive = float(np.mean(list(posterior.values())))
                prior_positive = min(1.0 - 1e-6, max(1e-6, prior_positive))

            # E-step: truth posteriors from the confusion matrices.
            max_change = 0.0
            new_posterior = {}
            for item in items:
                log_p1 = np.log(prior_positive)
                log_p0 = np.log(1.0 - prior_positive)
                for worker_id, response in obs_by_item[item]:
                    matrix = confusion[worker_id]
                    log_p1 += np.log(max(matrix[1, response], 1e-12))
                    log_p0 += np.log(max(matrix[0, response], 1e-12))
                denominator = np.logaddexp(log_p1, log_p0)
                value = float(np.exp(log_p1 - denominator))
                max_change = max(max_change, abs(value - posterior[item]))
                new_posterior[item] = value
            posterior = new_posterior
            trace.append(max_change)
            if max_change <= self.config.convergence_threshold:
                converged = True
                break

        result = DawidSkeneResult(
            iterations=iterations, converged=converged, convergence_trace=trace
        )
        return posterior, confusion, result
