"""Scalar AccOpt (Algorithm 1): per-label recursion plus a lazy max-heap.

The executable specification the batched ΔAcc scoring of
:class:`repro.assign.accopt.AccOptAssigner` is tested against: every
candidate pair is scored through :class:`~oracles.accuracy.AccuracyEstimator`
and Lemma 2's :class:`~oracles.accuracy.LabelAccuracy` recursion, one label at
a time.  :class:`ReferenceAccOptAssigner` keeps the production assigner's
construction, validation, exclusion and open-world growth and only replaces
the greedy loop, so a test can build both sides from the same inputs.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from oracles.accuracy import AccuracyEstimator, LabelAccuracy
from oracles.params import model_from_store
from repro.assign.accopt import AccOptAssigner
from repro.data.models import AnswerSet


class ReferenceAccOptAssigner(AccOptAssigner):
    """:class:`AccOptAssigner` with the scalar greedy loop."""

    def assign(
        self, available_workers: Sequence[str], h: int, answers: AnswerSet
    ) -> dict[str, list[str]]:
        self._validate_request(available_workers, h)
        if not available_workers:
            return {}
        workers = self._assignable_workers(available_workers)
        assignment = self._assign_scalar(workers, h, answers) if workers else {}
        for worker_id in available_workers:
            assignment.setdefault(worker_id, [])
        return assignment

    def _assign_scalar(
        self, available_workers: Sequence[str], h: int, answers: AnswerSet
    ) -> dict[str, list[str]]:
        estimator = AccuracyEstimator(
            tasks=self._tasks,
            workers=self._workers,
            distance_model=self._distance_model,
            parameters=model_from_store(self.parameters),
            answers=answers,
        )

        assignment: dict[str, list[str]] = {w: [] for w in available_workers}

        # Per-task baseline accuracy pairs (Equation 15) and the evolving state
        # reflecting the workers tentatively assigned this round (Ŵ(t)).
        baselines: dict[str, list[LabelAccuracy]] = {}
        current_states: dict[str, list[LabelAccuracy]] = {}

        # Cache of estimated answer accuracies P(z = r_w) per (worker, task).
        answer_accuracy: dict[tuple[str, str], float] = {}

        def states_for(task_id: str) -> list[LabelAccuracy]:
            if task_id not in baselines:
                base = estimator.current_label_accuracies(task_id)
                baselines[task_id] = base
                current_states[task_id] = list(base)
            return current_states[task_id]

        def improvement_for(
            worker_id: str, task_id: str
        ) -> tuple[float, list[LabelAccuracy]]:
            key = (worker_id, task_id)
            if key not in answer_accuracy:
                answer_accuracy[key] = estimator.answer_accuracy(worker_id, task_id)
            states = states_for(task_id)
            new_states = [state.add_worker(answer_accuracy[key]) for state in states]
            gain = sum(
                new.expected_improvement_over(base)
                for new, base in zip(new_states, baselines[task_id])
            )
            # Subtract the gain already banked by previously selected workers so
            # the heap ranks *marginal* improvements, as line 19 of Algorithm 1.
            already = sum(
                state.expected_improvement_over(base)
                for state, base in zip(states, baselines[task_id])
            )
            return gain - already, new_states

        # Candidate tasks per worker (tasks not yet answered by that worker).
        candidates: dict[str, set[str]] = {
            worker_id: set(self._candidate_tasks(worker_id, answers))
            for worker_id in available_workers
        }

        # Max-heap of (-marginal_gain, version, worker, task).  Whenever a task
        # receives a new tentative worker its version bumps, the task is
        # eagerly re-scored for every remaining worker (Algorithm 1's
        # incremental re-score), and entries carrying an old version are
        # discarded on pop.  The re-score must be eager: a pick can *increase*
        # other workers' marginal gains on the same task (a negative gain
        # shrinks in magnitude as ``m_t`` grows), so a lazy heap would commit an
        # in-between pair and miss the true greedy maximum.
        task_version: dict[str, int] = {}
        heap: list[tuple[float, int, str, str]] = []

        def push(worker_id: str, task_id: str) -> None:
            gain, _ = improvement_for(worker_id, task_id)
            version = task_version.get(task_id, 0)
            heapq.heappush(heap, (-gain, version, worker_id, task_id))

        for worker_id in available_workers:
            for task_id in candidates[worker_id]:
                push(worker_id, task_id)

        remaining_capacity = {worker_id: h for worker_id in available_workers}
        total_to_assign = sum(
            min(h, len(candidates[worker_id])) for worker_id in available_workers
        )
        assigned_total = 0

        while assigned_total < total_to_assign and heap:
            neg_gain, version, worker_id, task_id = heapq.heappop(heap)
            if remaining_capacity[worker_id] <= 0:
                continue
            if task_id not in candidates[worker_id]:
                continue
            if version != task_version.get(task_id, 0):
                continue  # superseded by the eager re-score below

            # Commit the pick.
            _, new_states = improvement_for(worker_id, task_id)
            current_states[task_id] = new_states
            task_version[task_id] = task_version.get(task_id, 0) + 1

            assignment[worker_id].append(task_id)
            candidates[worker_id].discard(task_id)
            remaining_capacity[worker_id] -= 1
            assigned_total += 1

            # Re-score the chosen task for every worker that can still take it.
            for other_id in available_workers:
                if remaining_capacity[other_id] > 0 and task_id in candidates[other_id]:
                    push(other_id, task_id)

        return assignment
