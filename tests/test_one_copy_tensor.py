"""The write path keeps one copy of the answer tensor.

Pins the invariants the serving refit and its reconciliation rely on:

* :meth:`~repro.core.em_kernel.AnswerTensor.snapshot` views the live
  tensor's append-only columns and copies only the responses; an append
  that grows every buffer, a re-submitted pair and a new task leave it, and
  a fit on it, equal to a deep copy taken at capture;
* :func:`~repro.core.em_kernel._gather_rows` over every answer row and
  :func:`~repro.core.em_kernel.gather_affected_rows` over every worker or
  task equal the explicit gathers they skip;
* responses stay ``int8`` through ``build``, ``columns()`` /
  ``from_columns``, a checkpoint save and load, and re-submitted pairs;
* a blocking full refresh drops the sufficient-stat cache before it fits,
  and after a fit that raises the next apply re-seeds it.
"""

import itertools

import numpy as np
import pytest

from repro.core import em_kernel
from repro.core.em_kernel import AnswerTensor, SufficientStatCache
from repro.core.incremental import IncrementalUpdater
from repro.core.inference import LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.data.models import Answer, AnswerSet
from repro.serving.snapshots import CheckpointManager, CheckpointState

#: The tensor's backing buffers: each one grows on an append past its
#: capacity.
BUFFERS = (
    "_num_labels",
    "_label_offsets",
    "_task_of_label",
    "_a_worker",
    "_a_task",
    "_distances",
    "_f_values",
    "_a_label_start",
    "_r_answer",
    "_r_worker",
    "_r_task",
    "_r_label",
    "_responses",
)

#: The estimate's arrays.
ESTIMATES = ("p_qualified", "distance_weights", "influence_weights", "label_probs")

#: The logical-prefix arrays a fit reads.
COLUMNS = (
    "num_labels",
    "label_offsets",
    "task_of_label",
    "a_worker",
    "a_task",
    "distances",
    "f_values",
    "a_label_start",
    "r_answer",
    "r_worker",
    "r_task",
    "r_label",
    "responses",
)


def registries(small_dataset, worker_pool):
    tasks = {task.task_id: task for task in small_dataset.tasks}
    workers = {worker.worker_id: worker for worker in worker_pool.workers}
    return tasks, workers


def build(answers, small_dataset, worker_pool, distance_model, function_set):
    tasks, workers = registries(small_dataset, worker_pool)
    return AnswerTensor.build(answers, tasks, workers, distance_model, function_set)


def append(tensor, answers, small_dataset, worker_pool, distance_model, function_set):
    tasks, workers = registries(small_dataset, worker_pool)
    return tensor.append_answers(answers, tasks, workers, distance_model, function_set)


def deep_copy(tensor):
    """What ``snapshot()`` returned while it copied every column."""
    return AnswerTensor(
        worker_ids=tensor.worker_ids,
        task_ids=tensor.task_ids,
        **{
            name: getattr(tensor, name).copy()
            for name in COLUMNS
            if name != "a_label_start"
        },
    )


def flipped(answer):
    return Answer(
        worker_id=answer.worker_id,
        task_id=answer.task_id,
        responses=tuple(1 - value for value in answer.responses),
    )


def apply(updater, log, batch):
    """``updater.apply`` of ``batch``, added to ``log`` first as it requires."""
    for answer in batch:
        log.add(answer)
    return updater.apply(log, batch)


def fresh_answers(small_dataset, worker_pool, distance_model, existing, tasks):
    """One new answer per (worker, task) pair of ``tasks`` absent from
    ``existing``."""
    simulator = AnswerSimulator(distance_model, noise=0.1)
    answers = []
    for index, (profile, task) in enumerate(itertools.product(worker_pool, tasks)):
        if existing.get(profile.worker_id, task.task_id) is None:
            answers.append(simulator.sample_answer(profile, task, seed=900 + index))
    return answers


@pytest.fixture()
def live(small_dataset, worker_pool, distance_model, collected_answers):
    """A row-tracked tensor over every collected answer but the last task's,
    the model the fixtures' answers fit, and those answers."""
    model = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    last = small_dataset.tasks[-1].task_id
    answers = AnswerSet(a for a in collected_answers if a.task_id != last)
    tensor = build(
        answers, small_dataset, worker_pool, distance_model, model.config.function_set
    )
    return tensor.enable_row_tracking(), model, answers


class TestSnapshot:
    def test_views_the_columns_and_copies_only_the_responses(self, live):
        tensor, _, _ = live
        snapshot = tensor.snapshot()
        for name in COLUMNS:
            if name == "a_label_start":  # recomputed by the constructor
                continue
            shared = np.shares_memory(getattr(snapshot, name), getattr(tensor, name))
            assert shared == (name != "responses"), name
        assert snapshot.responses.dtype == np.int8
        assert not snapshot.tracks_rows

    def test_live_changes_leave_the_snapshot_and_its_fit_unchanged(
        self, live, small_dataset, worker_pool, distance_model
    ):
        tensor, model, answers = live
        function_set = model.config.function_set
        snapshot = tensor.snapshot()
        frozen = deep_copy(tensor)
        buffers = {name: getattr(tensor, name) for name in BUFFERS}

        # An append that grows every answer and label buffer...
        grow = fresh_answers(
            small_dataset, worker_pool, distance_model, answers, small_dataset.tasks[:-1]
        )
        assert len(grow) > tensor.num_answers  # past every buffer's capacity
        append(tensor, grow, small_dataset, worker_pool, distance_model, function_set)
        # ...a re-submitted captured pair, rewritten in place...
        resubmitted = flipped(next(iter(answers)))
        result = append(
            tensor, [resubmitted], small_dataset, worker_pool, distance_model,
            function_set,
        )
        assert int(result.rows[0]) < snapshot.num_answers
        # ...and a task registered on first sight.
        late = fresh_answers(
            small_dataset, worker_pool, distance_model, answers, small_dataset.tasks[-1:]
        )[:1]
        result = append(
            tensor, late, small_dataset, worker_pool, distance_model, function_set
        )
        assert result.new_task_ids == (small_dataset.tasks[-1].task_id,)
        for name in BUFFERS:
            assert getattr(tensor, name) is not buffers[name], name

        assert snapshot.worker_ids == frozen.worker_ids
        assert snapshot.task_ids == frozen.task_ids
        assert snapshot.num_answers == frozen.num_answers
        for name in COLUMNS:
            got, want = getattr(snapshot, name), getattr(frozen, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)

        fitted = model.run_em(None, tensor=snapshot)
        expected = model.run_em(None, tensor=frozen)
        assert fitted.log_likelihood_trace == expected.log_likelihood_trace
        assert fitted.convergence_trace == expected.convergence_trace
        for name in ESTIMATES:
            np.testing.assert_array_equal(
                getattr(fitted.store, name), getattr(expected.store, name), name
            )


def explicit_gather(tensor, answer_rows):
    """The fancy-index gather of ``answer_rows`` and their label rows."""
    counts = tensor.num_labels[tensor.a_task[answer_rows]]
    label_rows = np.concatenate(
        [
            np.arange(start, start + count)
            for start, count in zip(tensor.a_label_start[answer_rows], counts)
        ]
    )
    expand = np.repeat(np.arange(answer_rows.size), counts)
    return {
        "a_worker": tensor.a_worker[answer_rows],
        "a_task": tensor.a_task[answer_rows],
        "f_values": tensor.f_values[answer_rows],
        "expand": expand,
        "r_label": tensor.r_label[label_rows],
        "r_worker": tensor.a_worker[answer_rows][expand],
        "r_task": tensor.a_task[answer_rows][expand],
        "responses": tensor.responses[label_rows],
    }, label_rows


class TestWholeTensorRows:
    @pytest.mark.parametrize("order", ["every row", "reversed", "all but one"])
    def test_gather_rows_equals_the_explicit_gather(self, live, order):
        tensor, _, _ = live
        every = np.arange(tensor.num_answers, dtype=np.intp)
        answer_rows = {
            "every row": every,
            "reversed": every[::-1].copy(),
            "all but one": every[1:],
        }[order]
        rows, label_rows = em_kernel._gather_rows(tensor, answer_rows)
        want, want_label_rows = explicit_gather(tensor, answer_rows)
        for name, value in want.items():
            got = getattr(rows, name)
            assert got.dtype == value.dtype, name
            np.testing.assert_array_equal(got, value, err_msg=name)
        np.testing.assert_array_equal(
            np.arange(tensor.num_label_responses)[label_rows], want_label_rows
        )
        # Only every row in order reads the tensor's own columns.
        whole = order == "every row"
        assert np.shares_memory(rows.responses, tensor.responses) == whole

    def test_fold_over_every_row_equals_folding_its_halves(self, live):
        tensor, model, _ = live
        config = model.config
        start = em_kernel.initial_store(
            tensor, config.function_set, config.alpha, config.initial_p_qualified
        )
        moved, _ = em_kernel.em_step(tensor, start)
        every = np.arange(tensor.num_answers, dtype=np.intp)
        caches = []
        for parts in (1, 2):  # every row at once, or two gathered halves
            store = start.copy()
            cache = SufficientStatCache(tensor, store)
            for name in ESTIMATES:
                getattr(store, name)[...] = getattr(moved, name)
            folded = sum(cache.fold(rows) for rows in np.array_split(every, parts))
            assert folded == tensor.num_label_responses
            caches.append(cache)
        whole, halves = caches
        for name in ("_row_z1", "_row_i1", "_answer_dw", "_answer_dt"):
            np.testing.assert_array_equal(
                getattr(whole, name), getattr(halves, name), err_msg=name
            )
        for name, total in vars(whole._totals).items():
            np.testing.assert_allclose(
                total, getattr(halves._totals, name), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("every", ["workers", "tasks"])
    def test_gather_affected_rows_equals_the_chained_unique(self, live, every):
        tensor, _, _ = live
        workers = np.arange(tensor.num_workers, dtype=np.intp)
        tasks = np.arange(tensor.num_tasks, dtype=np.intp)
        if every == "workers":
            tasks = tasks[::3]
        else:
            workers = workers[1::2]
        want = np.unique(
            np.fromiter(
                itertools.chain(
                    *(tensor.rows_of_worker(int(i)) for i in workers),
                    *(tensor.rows_of_task(int(j)) for j in tasks),
                ),
                dtype=np.intp,
            )
        )
        got = em_kernel.gather_affected_rows(tensor, workers, tasks)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestInt8Responses:
    def test_build_columns_from_columns_and_resubmission(
        self, live, small_dataset, worker_pool, distance_model
    ):
        tensor, model, answers = live
        function_set = model.config.function_set
        assert tensor.responses.dtype == np.int8
        columns = tensor.columns()
        assert columns.responses.dtype == np.int8
        assert np.shares_memory(columns.responses, tensor.responses)  # no cast

        tasks, workers = registries(small_dataset, worker_pool)
        rebuilt = AnswerTensor.from_columns(
            columns, tasks, workers, distance_model, function_set
        )
        for name in COLUMNS:
            got, want = getattr(rebuilt, name), getattr(tensor, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)

        # A re-submitted pair rewrites the rebuilt tensor's own column.
        before = tensor.responses.copy()
        original = next(iter(answers))
        rebuilt.enable_row_tracking()
        result = append(
            rebuilt, [flipped(original)], small_dataset, worker_pool,
            distance_model, function_set,
        )
        row = int(result.rows[0])
        start = int(rebuilt.a_label_start[row])
        stop = start + original.num_labels
        assert rebuilt.responses.dtype == np.int8
        assert tuple(rebuilt.responses[start:stop]) == flipped(original).responses
        np.testing.assert_array_equal(tensor.responses, before)

    def test_constructor_normalises_the_dtype(self, live):
        tensor, _, _ = live
        fields = {name: getattr(tensor, name) for name in COLUMNS}
        del fields["a_label_start"]
        fields["responses"] = tensor.responses.astype(float)
        normalised = AnswerTensor(tensor.worker_ids, tensor.task_ids, **fields)
        assert normalised.responses.dtype == np.int8
        np.testing.assert_array_equal(normalised.responses, tensor.responses)

    def test_checkpoint_save_and_load(
        self, tmp_path, small_dataset, worker_pool, distance_model, collected_answers
    ):
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        model.fit(collected_answers)
        updater = IncrementalUpdater(model, full_refresh_interval=10_000)
        batch = fresh_answers(
            small_dataset, worker_pool, distance_model, collected_answers,
            small_dataset.tasks[:2],
        )
        log = collected_answers.copy()
        apply(updater, log, batch)
        apply(updater, log, [flipped(next(iter(collected_answers)))])
        tensor = updater.live_tensor
        store = updater.live_store
        CheckpointManager(tmp_path).save(
            CheckpointState(
                store=store,
                journal_seq=1,
                snapshot_version=1,
                published_at=0.0,
                columns=tensor.columns(),
                startup_digest=model.startup_digest,
            )
        )
        fresh = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        loaded, skipped = CheckpointManager(tmp_path).load_latest(fresh)
        assert skipped == 0
        assert loaded.columns.responses.dtype == np.int8
        np.testing.assert_array_equal(loaded.columns.responses, tensor.responses)
        restored = fresh._tensor_from_columns(loaded.columns)
        for name in COLUMNS:
            got, want = getattr(restored, name), getattr(tensor, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)


class TestBlockingRefreshCache:
    def _updater(self, small_dataset, worker_pool, distance_model, collected_answers):
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        model.fit(collected_answers)
        updater = IncrementalUpdater(
            model, full_refresh_interval=10_000, early_exit_threshold=0.005
        )
        batches = fresh_answers(
            small_dataset, worker_pool, distance_model, collected_answers,
            small_dataset.tasks,
        )
        log = collected_answers.copy()
        apply(updater, log, batches[:4])
        assert updater._stat_cache is not None
        return model, updater, log, batches[4:]

    def test_refit_runs_without_the_cache(
        self, monkeypatch, small_dataset, worker_pool, distance_model, collected_answers
    ):
        model, updater, log, _ = self._updater(
            small_dataset, worker_pool, distance_model, collected_answers
        )
        caches = []
        fit = model.fit_from_tensor

        def recording_fit(*args, **kwargs):
            caches.append(updater._stat_cache)
            return fit(*args, **kwargs)

        monkeypatch.setattr(model, "fit_from_tensor", recording_fit)
        updater.full_refresh([], answers=log)
        assert caches == [None]
        assert updater._stat_cache is None

    def test_next_apply_after_a_failed_refit_reseeds_the_cache(
        self, monkeypatch, small_dataset, worker_pool, distance_model, collected_answers
    ):
        stores = []
        for fail in (True, False):
            model, updater, log, rest = self._updater(
                small_dataset, worker_pool, distance_model, collected_answers
            )
            if fail:

                def broken_fit(*args, **kwargs):
                    raise RuntimeError("fit failed")

                with monkeypatch.context() as patch:
                    patch.setattr(model, "fit_from_tensor", broken_fit)
                    with pytest.raises(RuntimeError):
                        updater.full_refresh([], answers=log)
                assert updater._stat_cache is None
            else:
                updater.reset_sufficient_stats()
            stores.append(apply(updater, log, rest[:4]).copy())
            cache = updater._stat_cache
            assert cache is not None
            assert cache.in_sync_with(updater.live_tensor, updater.live_store)
        failed, reseeded = stores
        for name in ESTIMATES:
            np.testing.assert_array_equal(
                getattr(failed, name), getattr(reseeded, name), name
            )
