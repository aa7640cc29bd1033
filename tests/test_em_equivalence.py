"""Equivalence of the batched EM engine against the per-record oracle.

:class:`~repro.core.inference.LocationAwareInference` must reproduce the
per-record loop of ``tests/oracles/em.py`` to within floating-point noise —
the tolerance enforced here is 1e-9 on every parameter and on the (relative)
log-likelihood, across cold starts, warm starts and incremental updates, on
both multi-label and binary corpora.

Below the fit level, the kernel's per-answer E-step must match the
per-response reference summed per answer at 1e-12 relative (only the
summation order differs), and the paths that serving reaches —
:class:`~repro.core.em_kernel.SufficientStatCache`, the localized step and
weighted :func:`~repro.core.em_kernel.em_step` — must match the plain full
step.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from oracles import ReferenceIncrementalUpdater, ReferenceInference
from oracles.em import per_response_posteriors
from oracles.params import model_from_store
from repro.core import em_kernel
from repro.core.em_kernel import AnswerTensor, SufficientStatCache
from repro.core.incremental import IncrementalUpdater
from repro.core.inference import InferenceConfig, LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.crowd.platform import CrowdPlatform
from repro.crowd.budget import Budget
from repro.crowd.arrival import UniformRandomArrival
from repro.crowd.worker_pool import WorkerPool, WorkerPoolSpec
from repro.data.generators import DatasetSpec, generate_dataset
from repro.data.models import AnswerSet
from repro.spatial.bbox import BEIJING_BBOX, BoundingBox
from repro.spatial.distance import DistanceModel
from repro.utils.validation import PROBABILITY_FLOOR

PARAM_TOL = 1e-9
#: Kernel-vs-reference tolerance where only the summation order differs.
REORDER_RTOL = 1e-12


def build_corpus(num_tasks=10, labels_per_task=4, num_workers=6, seed=77, answers_per_task=3):
    """A small deterministic campaign: dataset, workers, distances, answers."""
    spec = DatasetSpec(
        name=f"Equiv-{labels_per_task}",
        num_tasks=num_tasks,
        labels_per_task=labels_per_task,
        bbox=BEIJING_BBOX,
        metric="euclidean",
        num_clusters=3,
    )
    dataset = generate_dataset(spec, seed=seed)
    distance_model = DistanceModel(max_distance=dataset.max_distance, metric="euclidean")
    bounds = BoundingBox.from_points(dataset.poi_locations).expand(0.05)
    pool = WorkerPool.generate(
        bounds,
        spec=WorkerPoolSpec(num_workers=num_workers, locations_per_worker=(1, 2)),
        seed=seed + 1,
    )
    platform = CrowdPlatform(
        dataset=dataset,
        worker_pool=pool,
        budget=Budget(total=answers_per_task * num_tasks * 2),
        distance_model=distance_model,
        answer_simulator=AnswerSimulator(distance_model, noise=0.05),
        arrival_process=UniformRandomArrival(pool, batch_size=3, seed=seed + 2),
        seed=seed + 2,
    )
    answers = platform.collect_batch_answers(answers_per_task=answers_per_task, seed=seed + 3)
    return dataset, pool, distance_model, answers


def run_both(dataset, pool, distance_model, answers, initial=None, **config_kwargs):
    config = InferenceConfig(**config_kwargs)
    ref, vec = (
        cls(dataset.tasks, pool.workers, distance_model, config=config).run_em(
            answers, initial=initial
        )
        for cls in (ReferenceInference, LocationAwareInference)
    )
    return ref, vec


def assert_parameters_close(a, b, tol=PARAM_TOL):
    a, b = model_from_store(a), model_from_store(b)
    assert set(a.workers) == set(b.workers)
    assert set(a.tasks) == set(b.tasks)
    for worker_id, wa in a.workers.items():
        wb = b.workers[worker_id]
        assert abs(wa.p_qualified - wb.p_qualified) <= tol, worker_id
        assert np.abs(wa.distance_weights - wb.distance_weights).max() <= tol, worker_id
    for task_id, ta in a.tasks.items():
        tb = b.tasks[task_id]
        assert ta.num_labels == tb.num_labels, task_id
        assert np.abs(ta.label_probs - tb.label_probs).max() <= tol, task_id
        assert np.abs(ta.influence_weights - tb.influence_weights).max() <= tol, task_id


def assert_results_equivalent(ref, vec, tol=PARAM_TOL):
    assert ref.iterations == vec.iterations
    assert ref.converged == vec.converged
    for da, db in zip(ref.convergence_trace, vec.convergence_trace):
        assert abs(da - db) <= tol
    for la, lb in zip(ref.log_likelihood_trace, vec.log_likelihood_trace):
        assert abs(la - lb) <= tol * max(1.0, abs(la))
    assert_parameters_close(ref.store, vec.store, tol=tol)


class TestColdStartEquivalence:
    def test_multi_label_corpus(self):
        corpus = build_corpus(labels_per_task=4)
        ref, vec = run_both(*corpus)
        assert_results_equivalent(ref, vec)

    def test_binary_corpus(self):
        corpus = build_corpus(labels_per_task=1, seed=101)
        ref, vec = run_both(*corpus)
        assert_results_equivalent(ref, vec)

    def test_fixed_iteration_budget(self):
        corpus = build_corpus(seed=5)
        ref, vec = run_both(*corpus, max_iterations=7, convergence_threshold=0.0)
        assert ref.iterations == vec.iterations == 7
        assert_results_equivalent(ref, vec)

    def test_asymmetric_alpha(self):
        corpus = build_corpus(seed=31)
        ref, vec = run_both(*corpus, alpha=0.8)
        assert_results_equivalent(ref, vec)

    def test_empty_answer_log(self):
        dataset, pool, distance_model, _ = build_corpus(num_tasks=3, seed=3)
        ref, vec = run_both(dataset, pool, distance_model, AnswerSet())
        assert_results_equivalent(ref, vec)
        assert vec.converged and vec.iterations == 1
        assert not vec.store.worker_ids and not vec.store.task_ids


class TestWarmStartEquivalence:
    def test_warm_start_from_full_fit(self):
        dataset, pool, distance_model, answers = build_corpus(seed=13)
        cold_ref, cold_vec = run_both(dataset, pool, distance_model, answers)
        ref, vec = run_both(
            dataset, pool, distance_model, answers, initial=cold_ref.store
        )
        # Warm-starting from a converged estimate converges immediately in
        # both engines.
        assert_results_equivalent(ref, vec)

    def test_warm_start_with_missing_entities(self):
        """Initial parameters estimated on a subset lack some workers/tasks."""
        dataset, pool, distance_model, answers = build_corpus(seed=29)
        subset = AnswerSet(list(answers)[: len(answers) // 3])
        warm_ref, _ = run_both(dataset, pool, distance_model, subset)
        ref, vec = run_both(
            dataset, pool, distance_model, answers, initial=warm_ref.store
        )
        assert_results_equivalent(ref, vec)

    def test_warm_start_under_different_alpha(self):
        """A warm start fit under another alpha: only the first E-step sees it.

        The per-record M-step re-emits parameters under the *config's* alpha
        every iteration, so the batched engine must not keep the
        warm-start's alpha beyond iteration one — and the returned parameters
        must carry the config's alpha for Equation 9 consumers.
        """
        dataset, pool, distance_model, answers = build_corpus(seed=67)
        old_ref, _ = run_both(dataset, pool, distance_model, answers, alpha=0.5)
        assert old_ref.store.alpha == pytest.approx(0.5)
        ref, vec = run_both(
            dataset, pool, distance_model, answers,
            initial=old_ref.store, alpha=0.8,
        )
        assert ref.store.alpha == vec.store.alpha == pytest.approx(0.8)
        assert_results_equivalent(ref, vec)

    def test_warm_start_with_extra_entities(self):
        """Initial parameters carry workers/tasks absent from the answer log."""
        dataset, pool, distance_model, answers = build_corpus(seed=41)
        full_ref, _ = run_both(dataset, pool, distance_model, answers)
        subset = AnswerSet(list(answers)[: len(answers) // 2])
        ref, vec = run_both(
            dataset, pool, distance_model, subset, initial=full_ref.store
        )
        assert_results_equivalent(ref, vec)


class TestWarmStartAcrossUniverses:
    """Warm starts from a store over another universe and row order.

    The batched engine re-gathers the store onto the tensor's rows and folds
    Figure 10's union terms into the first delta; the oracle reads the same
    estimate through its id-keyed form.  Iteration counts and traces match,
    first delta included.
    """

    def test_shuffled_store_with_missing_and_extra_entities(self):
        dataset, pool, distance_model, answers = build_corpus(seed=71)
        full_ref, _ = run_both(dataset, pool, distance_model, answers)
        rng = np.random.default_rng(3)
        store = full_ref.store
        workers = [w for w in store.worker_ids if w != store.worker_ids[0]]
        tasks = [t for t in store.task_ids if t != store.task_ids[1]]
        rng.shuffle(workers)
        rng.shuffle(tasks)
        counts = [int(np.diff(store.label_offsets)[store.index_of_task(t)]) for t in tasks]
        initial = store.regather(workers + ["outsider"], tasks, counts)
        initial.p_qualified[-1] = 0.25
        subset = AnswerSet(list(answers)[: 2 * len(answers) // 3])
        ref, vec = run_both(dataset, pool, distance_model, subset, initial=initial)
        assert ref.iterations == vec.iterations
        assert vec.convergence_trace[0] == pytest.approx(ref.convergence_trace[0], abs=PARAM_TOL)
        assert_results_equivalent(ref, vec)

    def test_only_an_outside_worker_sets_the_first_delta(self):
        """No task on one side only: the outside worker's distance from the
        footnote-3 prior is the first delta."""
        dataset, pool, distance_model, answers = build_corpus(seed=73)
        fitted, _ = run_both(dataset, pool, distance_model, answers)
        store = fitted.store
        initial = store.regather(
            list(store.worker_ids) + ["outsider"],
            store.task_ids,
            np.diff(store.label_offsets),
        )
        initial.p_qualified[-1] = 0.3
        ref, vec = run_both(dataset, pool, distance_model, answers, initial=initial)
        assert vec.convergence_trace[0] == pytest.approx(0.7, abs=PARAM_TOL)
        assert_results_equivalent(ref, vec)


class TestUpdaterRefreshFirstDelta:
    """The updater's warm refresh starts from its live store, but the first
    delta spans the estimate it holds, as the oracle's union does: carried
    entities count, and so do tasks the triggering batch first brought."""

    def test_external_fit_that_lacks_a_task(self):
        """A warm refresh right after syncing to an estimate that lacks one of
        the log's tasks: that task's prior row is not part of the estimate."""
        dataset, pool, distance_model, answers = build_corpus(seed=97)
        late_task = dataset.tasks[-1].task_id
        model = LocationAwareInference(dataset.tasks, pool.workers, distance_model)
        model.fit(AnswerSet(a for a in answers if a.task_id != late_task))
        before = model.parameters
        updater = IncrementalUpdater(model)
        updater.full_refresh([], answers=answers)
        reference = ReferenceInference(dataset.tasks, pool.workers, distance_model)
        ref = reference.run_em(answers, initial=before)
        assert ref.convergence_trace[0] == 1.0
        assert_results_equivalent(ref, model.last_result)

    def test_batch_that_first_brings_a_task(self):
        dataset, pool, distance_model, answers = build_corpus(seed=79)
        late_task = dataset.tasks[-1].task_id
        log = [a for a in answers if a.task_id != late_task]
        batch = [a for a in answers if a.task_id == late_task]
        model = LocationAwareInference(dataset.tasks, pool.workers, distance_model)
        model.fit(AnswerSet(log[:-3]))
        updater = IncrementalUpdater(model)
        updater.apply(AnswerSet(log), log[-3:])
        before = model.parameters.copy()
        assert not before.has_task(late_task)
        updater.full_refresh(batch, answers=AnswerSet(log + batch))
        reference = ReferenceInference(dataset.tasks, pool.workers, distance_model)
        ref = reference.run_em(AnswerSet(log + batch), initial=before)
        assert ref.convergence_trace[0] == 1.0
        assert_results_equivalent(ref, model.last_result)

    def test_carried_task_after_a_refresh(self):
        """A fit's estimate holds only the tensor's entities: a later batch
        that first brings a still-carried task starts it from its carried row,
        yet the estimate lacked it, so the first delta reads 1.0."""
        dataset, pool, distance_model, answers = build_corpus(seed=101)
        fitted, _ = run_both(dataset, pool, distance_model, answers)
        late_task = dataset.tasks[-1].task_id
        model = LocationAwareInference(dataset.tasks, pool.workers, distance_model)
        model.warm_start(fitted.store)
        updater = IncrementalUpdater(model)
        updater.prime_carryover(model.parameters)
        updater.full_refresh([a for a in answers if a.task_id != late_task])
        assert not model.parameters.has_task(late_task)
        updater.full_refresh([a for a in answers if a.task_id == late_task])
        assert model.last_result.convergence_trace[0] == 1.0

    @pytest.mark.parametrize("outside", ["task-and-worker", "worker-only"])
    def test_restored_estimate_with_carried_entities(self, outside):
        dataset, pool, distance_model, answers = build_corpus(seed=89)
        fitted, _ = run_both(dataset, pool, distance_model, answers)
        store = fitted.store
        stream = list(answers)[: len(answers) // 2]
        streamed = AnswerSet(stream)
        keep_tasks = [
            t for t in store.task_ids
            if outside == "task-and-worker" or t in streamed.task_ids()
        ]
        counts = [int(np.diff(store.label_offsets)[store.index_of_task(t)]) for t in keep_tasks]
        restored = store.regather(list(store.worker_ids) + ["outsider"], keep_tasks, counts)
        restored.p_qualified[-1] = 0.35
        model = LocationAwareInference(dataset.tasks, pool.workers, distance_model)
        model.warm_start(restored)
        updater = IncrementalUpdater(model)
        updater.prime_carryover(model.parameters)
        updater.full_refresh(stream)
        reference = ReferenceInference(dataset.tasks, pool.workers, distance_model)
        ref = reference.run_em(streamed, initial=restored)
        if outside == "worker-only":
            assert ref.convergence_trace[0] < 1.0
        assert_results_equivalent(ref, model.last_result)


class TestIncrementalEquivalence:
    def _fresh_answers(self, dataset, pool, distance_model, answers, count):
        simulator = AnswerSimulator(distance_model, noise=0.0)
        fresh = []
        for profile in pool:
            for task in dataset.tasks:
                if answers.get(profile.worker_id, task.task_id) is None:
                    fresh.append(simulator.sample_answer(profile, task, seed=1234))
                    break
            if len(fresh) >= count:
                break
        assert fresh, "corpus saturated; enlarge the dataset"
        return fresh

    def test_incremental_updates_match(self):
        dataset, pool, distance_model, answers = build_corpus(seed=59)
        new_answers = self._fresh_answers(dataset, pool, distance_model, answers, 4)
        grown = answers.copy()
        for answer in new_answers:
            grown.add(answer)

        # Seed both engines with the *identical* estimate so the test isolates
        # the incremental sweep itself.
        seed_model = ReferenceInference(dataset.tasks, pool.workers, distance_model)
        seed_params = seed_model.run_em(answers).store

        updated = {}
        for name, updater_cls in (
            ("reference", ReferenceIncrementalUpdater),
            ("vectorized", IncrementalUpdater),
        ):
            model = LocationAwareInference(dataset.tasks, pool.workers, distance_model)
            model._parameters = seed_params.copy()
            model._fitted = True
            updater = updater_cls(model, local_iterations=2)
            updated[name] = updater.apply(grown, new_answers)

        assert_parameters_close(updated["reference"], updated["vectorized"])


def corpus_tensor(dataset, pool, distance_model, answers, distance_scale=1.0):
    """The answer tensor a default-config fit would build for ``answers``.

    ``distance_scale`` < 1 moves every worker that much closer to the POIs
    it answered, so ``q(d_w, d_t)`` approaches 1.
    """
    build = functools.partial(
        AnswerTensor.build,
        answers,
        {task.task_id: task for task in dataset.tasks},
        {worker.worker_id: worker for worker in pool.workers},
        distance_model,
        InferenceConfig().function_set,
    )
    tensor = build()
    if distance_scale == 1.0:
        return tensor
    return build(pair_distance_fn=lambda _w, _t: tensor.distances * distance_scale)


def random_store(tensor, seed):
    """A store row-aligned with ``tensor`` holding arbitrary valid parameters."""
    config = InferenceConfig()
    store = em_kernel.initial_store(
        tensor, config.function_set, config.alpha, config.initial_p_qualified
    )
    rng = np.random.default_rng(seed)
    num_functions = len(config.function_set)
    store.p_qualified[:] = rng.uniform(0.05, 0.95, store.num_workers)
    store.distance_weights[:] = rng.dirichlet(np.ones(num_functions), store.num_workers)
    store.influence_weights[:] = rng.dirichlet(np.ones(num_functions), store.num_tasks)
    store.label_probs[:] = rng.uniform(0.0, 1.0, store.num_label_slots)
    return store


def saturated_store(tensor, seed):
    """Fully trusted workers and confidently estimated labels.

    The regime after many EM iterations on clean data, where a response
    that contradicts its label is nearly impossible under the model.
    """
    store = random_store(tensor, seed)
    store.p_qualified[:] = 1.0
    rng = np.random.default_rng(seed + 1)
    store.label_probs[:] = rng.integers(0, 2, store.num_label_slots)
    return store


def kernel_inputs(tensor, store):
    """The per-answer arguments ``em_step`` passes to the E-step, for the whole
    tensor, and the clipped ``P(z = 1)`` of every label response."""
    floor = PROBABILITY_FLOOR
    inputs = dict(
        alpha=store.alpha,
        p_qualified=np.clip(store.p_qualified[tensor.a_worker], floor, 1.0 - floor),
        dw=store.distance_weights[tensor.a_worker],
        dt=store.influence_weights[tensor.a_task],
        f_values=tensor.f_values,
        expand=tensor.r_answer,
    )
    return inputs, np.clip(store.label_probs[tensor.r_label], 1e-9, 1.0 - 1e-9)


CORPORA = [
    pytest.param(dict(labels_per_task=4), id="multi-label"),
    pytest.param(dict(labels_per_task=1, seed=101), id="binary"),
]


class TestPerAnswerEStep:
    """The kernel's E-step against the per-response reference, summed per answer."""

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    @pytest.mark.parametrize("make_store", [random_store, saturated_store])
    @pytest.mark.parametrize("store_seed", [0, 1, 2])
    @pytest.mark.parametrize("distance_scale", [1.0, 0.01])
    def test_matches_per_response_reference(
        self, corpus_kwargs, make_store, store_seed, distance_scale
    ):
        # A saturated store with near-zero distances is where a two-term
        # per-answer split (constant + slope · q) loses ~1e-10 to cancellation.
        tensor = corpus_tensor(
            *build_corpus(**corpus_kwargs), distance_scale=distance_scale
        )
        store = make_store(tensor, store_seed)
        inputs, pz1 = kernel_inputs(tensor, store)
        z1, i1, dw, dt, evidence = em_kernel._estep_posteriors(
            **inputs,
            label_probs=store.label_probs,
            r_label=tensor.r_label,
            responses=tensor.responses,
        )
        ref_z1, ref_i1, ref_dw, ref_dt, ref_evidence = per_response_posteriors(
            **inputs, pz1=pz1, observed_one=tensor.responses == 1
        )
        assert dw.shape == dt.shape == (tensor.num_answers, ref_dw.shape[1])
        for got, want in ((z1, ref_z1), (i1, ref_i1), (evidence, ref_evidence)):
            np.testing.assert_allclose(got, want, rtol=REORDER_RTOL, atol=0.0)
        for got, per_response in ((dw, ref_dw), (dt, ref_dt)):
            want = np.zeros_like(got)
            np.add.at(want, tensor.r_answer, per_response)
            np.testing.assert_allclose(got, want, rtol=REORDER_RTOL, atol=0.0)


def _all_entities(store):
    return (
        np.arange(store.num_workers, dtype=np.intp),
        np.arange(store.num_tasks, dtype=np.intp),
        np.arange(store.num_label_slots, dtype=np.intp),
    )


def _cache_totals(cache):
    return {name: total.copy() for name, total in vars(cache._totals).items()}


def _assert_stores_equal(got, want):
    for name in ("p_qualified", "distance_weights", "influence_weights", "label_probs"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _repeat_answers(tensor, repeats):
    """``tensor`` with answer row ``a`` repeated ``repeats[a]`` times."""
    rows = np.repeat(np.arange(tensor.num_answers), repeats)
    counts = tensor.num_labels[tensor.a_task[rows]]
    label_rows = np.concatenate(
        [
            np.arange(start, start + count)
            for start, count in zip(tensor.a_label_start[rows], counts)
        ]
    )
    return AnswerTensor(
        worker_ids=tensor.worker_ids,
        task_ids=tensor.task_ids,
        num_labels=tensor.num_labels,
        label_offsets=tensor.label_offsets,
        a_worker=tensor.a_worker[rows],
        a_task=tensor.a_task[rows],
        distances=tensor.distances[rows],
        f_values=tensor.f_values[rows],
        r_answer=np.repeat(np.arange(rows.size), counts),
        r_worker=tensor.r_worker[label_rows],
        r_task=tensor.r_task[label_rows],
        r_label=tensor.r_label[label_rows],
        responses=tensor.responses[label_rows],
        task_of_label=tensor.task_of_label,
    )


class TestSufficientStatsAndWeights:
    """The cached, localized and weighted paths against the plain full step."""

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    def test_fresh_cache_estimate_equals_em_step(self, corpus_kwargs):
        tensor = corpus_tensor(*build_corpus(**corpus_kwargs))
        store = random_store(tensor, seed=3)
        expected, _ = em_kernel.em_step(tensor, store)
        estimated = store.copy()
        SufficientStatCache(tensor, estimated).estimate(*_all_entities(estimated))
        assert expected.max_difference(estimated) == 0.0

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    def test_decayed_cache_estimate_equals_weighted_em_step(self, corpus_kwargs):
        tensor = corpus_tensor(*build_corpus(**corpus_kwargs))
        store = random_store(tensor, seed=4)
        gamma = 0.9
        ages = np.random.default_rng(5).integers(0, 12, tensor.num_answers)
        expected, _ = em_kernel.em_step(
            tensor, store, answer_weights=gamma ** ages.astype(float)
        )
        estimated = store.copy()
        SufficientStatCache(tensor, estimated, decay=gamma, row_ages=ages).estimate(
            *_all_entities(estimated)
        )
        assert expected.max_difference(estimated) == 0.0

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    def test_unit_weights_equal_unweighted_em_step(self, corpus_kwargs):
        tensor = corpus_tensor(*build_corpus(**corpus_kwargs))
        store = random_store(tensor, seed=10)
        plain, plain_ll = em_kernel.em_step(tensor, store)
        weighted, weighted_ll = em_kernel.em_step(
            tensor, store, answer_weights=np.ones(tensor.num_answers)
        )
        _assert_stores_equal(weighted, plain)
        assert weighted_ll == plain_ll

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    def test_localized_step_over_everything_equals_em_step(self, corpus_kwargs):
        tensor = corpus_tensor(*build_corpus(**corpus_kwargs))
        store = random_store(tensor, seed=11)
        expected, _ = em_kernel.em_step(tensor, store)
        estimated = store.copy()
        em_kernel.em_step_localized(
            tensor,
            estimated,
            np.arange(tensor.num_answers, dtype=np.intp),
            *_all_entities(estimated),
        )
        _assert_stores_equal(estimated, expected)

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    def test_one_localized_sweep_over_everything_equals_em_step(self, corpus_kwargs):
        tensor = corpus_tensor(*build_corpus(**corpus_kwargs))
        store = random_store(tensor, seed=12)
        expected, _ = em_kernel.em_step(tensor, store)
        estimated = store.copy()
        report = em_kernel.localized_sweeps(
            tensor,
            estimated,
            np.arange(tensor.num_answers, dtype=np.intp),
            *_all_entities(estimated),
            iterations=1,
        )
        assert report.sweeps_run == 1
        _assert_stores_equal(estimated, expected)

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    def test_decay_steps_and_folds_match_backdated_rebuild(self, corpus_kwargs):
        tensor = corpus_tensor(*build_corpus(**corpus_kwargs))
        store = random_store(tensor, seed=6)
        gamma, rounds = 0.8, 5
        rng = np.random.default_rng(7)
        ages = rng.integers(0, 6, tensor.num_answers).astype(float)
        cache = SufficientStatCache(tensor, store, decay=gamma, row_ages=ages)
        for _ in range(rounds):
            cache.decay_step()
            cache.fold(
                np.sort(rng.choice(tensor.num_answers, size=7, replace=False))
            )
        rebuilt = SufficientStatCache(
            tensor, store, decay=gamma, row_ages=ages + rounds
        )
        got, want = _cache_totals(cache), _cache_totals(rebuilt)
        for name in want:
            np.testing.assert_allclose(
                got[name], want[name], rtol=REORDER_RTOL, err_msg=name
            )

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    def test_integer_weights_equal_repeated_answers(self, corpus_kwargs):
        tensor = corpus_tensor(*build_corpus(**corpus_kwargs))
        store = random_store(tensor, seed=8)
        repeats = np.random.default_rng(9).integers(1, 4, tensor.num_answers)
        weighted, weighted_ll = em_kernel.em_step(
            tensor, store, answer_weights=repeats.astype(float)
        )
        repeated, repeated_ll = em_kernel.em_step(
            _repeat_answers(tensor, repeats), store
        )
        assert weighted.max_difference(repeated) <= 1e-12
        assert abs(weighted_ll - repeated_ll) <= 1e-12 * abs(repeated_ll)


#: A block size no test tensor reaches: the whole row set is one block.
ONE_BLOCK = 1 << 40


def _arrays_equal(got, want):
    assert len(got) == len(want)
    for index, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and np.array_equal(a, b), index


def _blocked_and_whole(monkeypatch, block_rows, compute):
    """``compute()`` with ``block_rows``-row E-step blocks, then as one block."""
    monkeypatch.setattr(em_kernel, "ESTEP_BLOCK_ROWS", block_rows)
    blocked = compute()
    monkeypatch.setattr(em_kernel, "ESTEP_BLOCK_ROWS", ONE_BLOCK)
    return blocked, compute()


def _sorted_subsets(tensor, seed, count=3):
    rng = np.random.default_rng(seed)
    for size in (1, tensor.num_answers // 3, tensor.num_answers - 1)[:count]:
        yield np.sort(rng.choice(tensor.num_answers, size=size, replace=False))


class TestBlockedEStep:
    """Any E-step block size gives bit-equal results, on every path."""

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_row_posteriors(self, monkeypatch, corpus_kwargs, block_rows):
        tensor = corpus_tensor(*build_corpus(**corpus_kwargs))
        store = random_store(tensor, seed=21)
        row_sets = [em_kernel._all_rows(tensor)] + [
            em_kernel._gather_rows(tensor, rows)[0]
            for rows in _sorted_subsets(tensor, seed=22)
        ]
        for rows in row_sets:
            blocked, whole = _blocked_and_whole(
                monkeypatch,
                block_rows,
                lambda: em_kernel._row_posteriors(store, rows),
            )
            _arrays_equal(blocked, whole)

    def test_blocks_split_on_answer_boundaries(self, monkeypatch):
        tensor = corpus_tensor(*build_corpus(labels_per_task=4))
        expand = tensor.r_answer
        for block_rows in (1, 3, 4, 7, 64):
            monkeypatch.setattr(em_kernel, "ESTEP_BLOCK_ROWS", block_rows)
            blocks = em_kernel._answer_blocks(expand, tensor.num_answers)
            assert blocks[0][0] == blocks[0][2] == 0
            assert blocks[-1][1] == tensor.num_answers
            assert blocks[-1][3] == expand.size
            for (a0, a1, l0, l1), after in zip(blocks, blocks[1:] + [None]):
                assert l0 < l1 and np.array_equal(
                    np.unique(expand[l0:l1]), np.arange(a0, a1)
                )
                if after is not None:
                    assert (a1, l1) == (after[0], after[2])

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_em_step(self, monkeypatch, corpus_kwargs, block_rows, weighted):
        tensor = corpus_tensor(*build_corpus(**corpus_kwargs))
        store = random_store(tensor, seed=23)
        weights = (
            np.random.default_rng(24).uniform(0.1, 2.0, tensor.num_answers)
            if weighted
            else None
        )
        (blocked, blocked_ll), (whole, whole_ll) = _blocked_and_whole(
            monkeypatch,
            block_rows,
            lambda: em_kernel.em_step(tensor, store, answer_weights=weights),
        )
        _assert_stores_equal(blocked, whole)
        assert blocked_ll == whole_ll

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_localized_sweeps(self, monkeypatch, corpus_kwargs, block_rows):
        tensor = corpus_tensor(*build_corpus(**corpus_kwargs))
        store = random_store(tensor, seed=25)
        workers, tasks, _ = _all_entities(store)
        workers, tasks = workers[::2], tasks[1::2]
        tensor.enable_row_tracking()

        def sweep():
            swept = store.copy()
            em_kernel.localized_sweeps(
                tensor,
                swept,
                em_kernel.gather_affected_rows(tensor, workers, tasks),
                workers,
                tasks,
                em_kernel.label_slots_of_tasks(swept.label_offsets, tasks),
                iterations=3,
            )
            return swept

        blocked, whole = _blocked_and_whole(monkeypatch, block_rows, sweep)
        _assert_stores_equal(blocked, whole)

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    @pytest.mark.parametrize("decay", [1.0, 0.8])
    def test_cache_totals_after_folds(
        self, monkeypatch, corpus_kwargs, block_rows, decay
    ):
        tensor = corpus_tensor(*build_corpus(**corpus_kwargs))
        store = random_store(tensor, seed=26)
        ages = np.random.default_rng(27).integers(0, 5, tensor.num_answers)

        def fold():
            cache = SufficientStatCache(
                tensor, store.copy(), decay=decay, row_ages=ages
            )
            for rows in _sorted_subsets(tensor, seed=28):
                cache.decay_step()
                cache.fold(rows)
            return cache

        blocked, whole = _blocked_and_whole(monkeypatch, block_rows, fold)
        got, want = _cache_totals(blocked), _cache_totals(whole)
        assert got.keys() == want.keys()
        _arrays_equal(list(got.values()), list(want.values()))
        _arrays_equal(
            [blocked._row_z1, blocked._row_i1, blocked._answer_dw, blocked._answer_dt],
            [whole._row_z1, whole._row_i1, whole._answer_dw, whole._answer_dt],
        )

    def test_label_rows_an_exact_multiple_of_the_block(self, monkeypatch):
        tensor = corpus_tensor(*build_corpus(labels_per_task=4))
        store = random_store(tensor, seed=29)
        rows = tensor.num_label_responses
        assert rows % 4 == 0
        for block_rows in (rows, rows // 2, rows // 4, 4):
            assert rows % block_rows == 0
            (blocked, blocked_ll), (whole, whole_ll) = _blocked_and_whole(
                monkeypatch, block_rows, lambda: em_kernel.em_step(tensor, store)
            )
            _assert_stores_equal(blocked, whole)
            assert blocked_ll == whole_ll

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_empty_tensor(self, monkeypatch, block_rows):
        dataset, pool, distance_model, _ = build_corpus(num_tasks=3, seed=3)
        tensor = corpus_tensor(dataset, pool, distance_model, AnswerSet())
        store = random_store(tensor, seed=30)
        monkeypatch.setattr(em_kernel, "ESTEP_BLOCK_ROWS", block_rows)
        z1, i1, dw, dt, evidence = em_kernel._row_posteriors(
            store, em_kernel._all_rows(tensor)
        )
        assert z1.shape == i1.shape == evidence.shape == (0,)
        assert dw.shape == dt.shape == (0, len(store.function_set))
        new_store, log_likelihood = em_kernel.em_step(tensor, store)
        assert log_likelihood == 0.0 and new_store.num_workers == 0


class TestPerFitCounts:
    """``run_em`` counts the denominators once; each step would recount them."""

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_run_em_equals_steps_that_recount(self, corpus_kwargs, weighted):
        dataset, pool, distance_model, answers = build_corpus(**corpus_kwargs)
        tensor = corpus_tensor(dataset, pool, distance_model, answers)
        weights = (
            np.random.default_rng(31).uniform(0.1, 2.0, tensor.num_answers)
            if weighted
            else None
        )
        config = InferenceConfig(max_iterations=6, convergence_threshold=0.0)
        result = LocationAwareInference(
            dataset.tasks, pool.workers, distance_model, config=config
        ).run_em(None, tensor=tensor, answer_weights=weights)
        store = em_kernel.initial_store(
            tensor, config.function_set, config.alpha, config.initial_p_qualified
        )
        trace = []
        for _ in range(config.max_iterations):
            store, log_likelihood = em_kernel.em_step(
                tensor, store, answer_weights=weights
            )
            trace.append(log_likelihood)
        _assert_stores_equal(result.store, store)
        assert result.log_likelihood_trace == trace

    def test_counts_are_the_step_denominators(self):
        tensor = corpus_tensor(*build_corpus(labels_per_task=4))
        weights = np.random.default_rng(32).uniform(0.1, 2.0, tensor.num_answers)
        for answer_weights in (None, weights):
            counts = em_kernel.count_denominators(tensor, answer_weights)
            per_answer = (
                np.ones(tensor.num_answers) if answer_weights is None else weights
            )
            labels = per_answer * tensor.num_labels[tensor.a_task]
            np.testing.assert_allclose(
                counts.worker_labels,
                np.bincount(tensor.a_worker, labels, tensor.num_workers),
            )
            np.testing.assert_allclose(
                counts.task_labels, np.bincount(tensor.a_task, labels, tensor.num_tasks)
            )
            np.testing.assert_allclose(
                counts.task_answers,
                np.bincount(tensor.a_task, per_answer, tensor.num_tasks),
            )


class TestLabelSlotsOfTasks:
    @staticmethod
    def _listed(label_offsets, task_rows):
        """The per-task list form the vectorised version replaced."""
        if len(task_rows) == 0:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(
            [
                np.arange(label_offsets[j], label_offsets[j + 1], dtype=np.intp)
                for j in task_rows
            ]
        )

    @pytest.mark.parametrize("corpus_kwargs", CORPORA)
    def test_matches_the_list_form(self, corpus_kwargs):
        tensor = corpus_tensor(*build_corpus(**corpus_kwargs))
        offsets = tensor.label_offsets
        rng = np.random.default_rng(33)
        for task_rows in (
            np.arange(tensor.num_tasks, dtype=np.intp),
            np.sort(rng.choice(tensor.num_tasks, size=4, replace=False)),
            np.empty(0, dtype=np.intp),
            np.array([tensor.num_tasks - 1], dtype=np.intp),
        ):
            got = em_kernel.label_slots_of_tasks(offsets, task_rows)
            want = self._listed(offsets, task_rows)
            assert got.dtype == want.dtype == np.intp
            assert np.array_equal(got, want)


class TestScalabilitySizedEquivalence:
    def test_larger_seeded_corpus(self):
        """A few hundred answers over many tasks, capped iterations."""
        corpus = build_corpus(
            num_tasks=60, labels_per_task=6, num_workers=25, seed=91, answers_per_task=4
        )
        ref, vec = run_both(*corpus, max_iterations=15)
        assert_results_equivalent(ref, vec)
