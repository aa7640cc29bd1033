"""Tests for repro.serving.journal (write-ahead log) and the checkpoint store."""

import io
import json
import os
import tempfile
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import export_answers

from repro.core.em_kernel import AnswerColumns
from repro.core.inference import InferenceConfig, LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.data.io import task_to_entry, worker_to_entry
from repro.data.models import AnswerSet
from repro.serving import (
    AnswerEvent,
    AnswerIngestor,
    AnswerJournal,
    CheckpointCorruptionError,
    CheckpointManager,
    CheckpointState,
    FaultInjector,
    IngestConfig,
    JournalCorruptionError,
    LiveStateError,
    RecoveryReport,
    ServingStateError,
    SimulatedCrash,
    SnapshotIntegrityError,
    StartupUniverseError,
    recover_ingestor,
)
from repro.serving import journal as journal_module
from repro.serving.snapshots import SnapshotStore


def make_events(small_dataset, worker_pool, distance_model, count, with_payloads=False):
    simulator = AnswerSimulator(distance_model, noise=0.0)
    events = []
    index = 0
    for profile in worker_pool:
        for task in small_dataset.tasks:
            if index >= count:
                return events
            events.append(
                AnswerEvent(
                    simulator.sample_answer(profile, task, seed=1000 + index),
                    time=0.1 * index,
                    worker=profile.worker if with_payloads else None,
                    task=task if with_payloads else None,
                )
            )
            index += 1
    return events


@pytest.fixture()
def decoded(monkeypatch):
    """Every payload the journal decodes into a record during the test."""
    payloads = []
    decode = journal_module._decode_record
    monkeypatch.setattr(
        journal_module,
        "_decode_record",
        lambda payload: payloads.append(payload) or decode(payload),
    )
    return payloads


class TestErrorHierarchy:
    def test_typed_errors_share_a_root(self):
        for err in (
            JournalCorruptionError,
            CheckpointCorruptionError,
            SnapshotIntegrityError,
            LiveStateError,
            StartupUniverseError,
        ):
            assert issubclass(err, ServingStateError)
            # Callers that guarded with bare RuntimeError keep working.
            assert issubclass(err, RuntimeError)


class TestAppendReplay:
    def test_round_trip_preserves_events(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        events = make_events(
            small_dataset, worker_pool, distance_model, 10, with_payloads=True
        )
        journal = AnswerJournal(tmp_path)
        seqs = [journal.append(event) for event in events]
        assert seqs == list(range(1, 11))
        assert journal.last_seq == 10

        replayed = list(journal.replay())
        assert [seq for seq, _ in replayed] == seqs
        for original, (_, decoded) in zip(events, replayed):
            assert decoded.answer == original.answer
            assert decoded.time == original.time
            assert decoded.worker == original.worker
            assert decoded.task == original.task
        journal.close()

    def test_replay_after_skips_covered_prefix(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        events = make_events(small_dataset, worker_pool, distance_model, 8)
        journal = AnswerJournal(tmp_path)
        for event in events:
            journal.append(event)
        tail = list(journal.replay(after=5))
        assert [seq for seq, _ in tail] == [6, 7, 8]
        journal.close()

    def test_reopen_continues_the_sequence(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        events = make_events(small_dataset, worker_pool, distance_model, 6)
        journal = AnswerJournal(tmp_path)
        for event in events[:4]:
            journal.append(event)
        journal.close()

        reopened = AnswerJournal(tmp_path)
        assert reopened.last_seq == 4
        assert [reopened.append(event) for event in events[4:]] == [5, 6]
        assert len(list(reopened.replay())) == 6
        reopened.close()

    def test_continue_after_skips_ahead_but_never_back(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        events = make_events(small_dataset, worker_pool, distance_model, 2)
        journal = AnswerJournal(tmp_path)
        journal.append(events[0])
        journal.continue_after(40)
        assert journal.append(events[1]) == 41
        with pytest.raises(ValueError, match="backwards"):
            journal.continue_after(7)
        journal.close()

        reopened = AnswerJournal(tmp_path)
        assert reopened.last_seq == 41
        assert [seq for seq, _ in reopened.replay()] == [1, 41]
        assert reopened.segment_paths()[-1].name == "segment-0000000041.wal"
        reopened.close()


class TestSegments:
    def test_rotation_and_truncate_covered(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        events = make_events(small_dataset, worker_pool, distance_model, 10)
        journal = AnswerJournal(tmp_path, max_segment_records=3)
        for event in events:
            journal.append(event)
        assert len(journal.segment_paths()) == 4  # 3+3+3+1
        assert journal.stats.segments_created == 4

        # A checkpoint covering seq 7 frees the first two segments (last seqs
        # 3 and 6) but not the third (last seq 9 > 7) or the open tail.
        removed = journal.truncate_covered(7)
        assert removed == 2
        assert journal.stats.segments_truncated == 2
        remaining = journal.segment_paths()
        assert len(remaining) == 2
        # Replay over the remaining segments still yields the uncovered tail.
        assert [seq for seq, _ in journal.replay(after=7)] == [8, 9, 10]
        journal.close()

    def test_truncate_never_removes_the_open_segment(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        events = make_events(small_dataset, worker_pool, distance_model, 4)
        journal = AnswerJournal(tmp_path, max_segment_records=100)
        for event in events:
            journal.append(event)
        assert journal.truncate_covered(4) == 0
        assert len(journal.segment_paths()) == 1
        journal.close()


class TestCorruption:
    def test_torn_tail_is_dropped_on_reopen(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        from repro.serving.faults import tear_journal_tail

        events = make_events(small_dataset, worker_pool, distance_model, 5)
        journal = AnswerJournal(tmp_path)
        for event in events:
            journal.append(event)
        journal.close()

        segment = journal.segment_paths()[-1]
        assert tear_journal_tail(segment, drop_bytes=7) == 7

        reopened = AnswerJournal(tmp_path)
        assert reopened.last_seq == 4  # the torn final record is gone
        assert reopened.stats.torn_records_dropped == 1
        assert [seq for seq, _ in reopened.replay()] == [1, 2, 3, 4]
        # The truncation is durable: appending continues from the torn point.
        assert reopened.append(events[4]) == 5
        reopened.close()

    def test_mid_file_corruption_refuses_to_open(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        events = make_events(small_dataset, worker_pool, distance_model, 5)
        journal = AnswerJournal(tmp_path)
        for event in events:
            journal.append(event)
        journal.close()

        segment = journal.segment_paths()[0]
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = b"deadbeef" + lines[1][8:]  # break record 2's checksum
        segment.write_bytes(b"".join(lines))

        # Record 2 lies below any tail a restart would replay (and so
        # decode); the open scan refuses it all the same.
        with pytest.raises(JournalCorruptionError, match="record 2"):
            AnswerJournal(tmp_path)

    def test_record_seq_must_match_its_position(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        events = make_events(small_dataset, worker_pool, distance_model, 6)
        journal = AnswerJournal(tmp_path)
        for event in events:
            journal.append(event)
        journal.close()
        # Re-seal record 4 with seq 9 and a valid CRC: framing and CRC hold,
        # so only the decoded seq can tell.
        segment = journal.segment_paths()[0]
        lines = segment.read_bytes().splitlines(keepends=True)
        payload = lines[3][9:-1].replace(b'"seq":4', b'"seq":9')
        lines[3] = b"%08x %s\n" % (zlib.crc32(payload), payload)
        segment.write_bytes(b"".join(lines))

        reopened = AnswerJournal(tmp_path)
        assert reopened.last_seq == 6
        assert [seq for seq, _ in reopened.replay(after=4)] == [5, 6]
        with pytest.raises(JournalCorruptionError, match="seq 9 where its position"):
            list(reopened.replay(after=2))
        reopened.close()

    def test_open_decodes_nothing_and_replay_only_its_tail(
        self, tmp_path, small_dataset, worker_pool, distance_model, decoded
    ):
        events = make_events(small_dataset, worker_pool, distance_model, 10)
        journal = AnswerJournal(tmp_path, max_segment_records=3)
        for event in events:
            journal.append(event)
        journal.close()
        reopened = AnswerJournal(tmp_path)
        assert reopened.last_seq == 10 and decoded == []
        tail = list(reopened.replay(after=7))
        assert [seq for seq, _ in tail] == [8, 9, 10]
        assert len(decoded) == 3
        assert [event.answer for _, event in tail] == [e.answer for e in events[7:]]
        reopened.close()

    def test_checksum_actually_covers_the_payload(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        events = make_events(small_dataset, worker_pool, distance_model, 1)
        journal = AnswerJournal(tmp_path)
        journal.append(events[0])
        journal.close()
        segment = journal.segment_paths()[0]
        raw = segment.read_bytes()
        crc_hex, payload = raw.split(b" ", 1)
        assert int(crc_hex, 16) == zlib.crc32(payload.rstrip(b"\n"))


def startup_model(small_dataset, worker_pool, distance_model, open_world=False):
    """A fresh model over the startup universe: every entity, or only the
    first 8 tasks and 5 workers when ``open_world`` (the rest are learned)."""
    tasks, workers = small_dataset.tasks, worker_pool.workers
    if open_world:
        tasks, workers = tasks[:8], workers[:5]
    return LocationAwareInference(tasks, workers, distance_model)


class TestCheckpointManager:
    def _state(self, small_dataset, worker_pool, distance_model, seq=7,
               open_world=False):
        """A state over one worker's answers to all 12 tasks; the
        ``open_world`` one learned 4 of those tasks and 3 more workers."""
        inference = startup_model(
            small_dataset, worker_pool, distance_model, open_world
        )
        for worker in worker_pool.workers:
            inference.add_worker(worker)
        for task in small_dataset.tasks:
            inference.add_task(task)
        events = make_events(small_dataset, worker_pool, distance_model, 12)
        answers = AnswerSet(event.answer for event in events)
        inference.fit(answers)
        task_ids = list(inference.tasks)
        store = inference.parameters.regather(
            list(inference.workers),
            task_ids,
            [inference.tasks[task_id].num_labels for task_id in task_ids],
        )
        workers, tasks = inference.learned_entities()
        return CheckpointState(
            store=store,
            journal_seq=seq,
            snapshot_version=3,
            published_at=12.5,
            columns=AnswerColumns.gather(answers, inference.tasks, inference.workers),
            workers=workers,
            tasks=tasks,
            startup_digest=inference.startup_digest,
            answers_since_full_refresh=5,
            counters={"answers": 12, "update_seconds": 0.25},
        )

    def test_save_load_round_trip(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        state = self._state(
            small_dataset, worker_pool, distance_model, open_world=True
        )
        assert (len(state.workers), len(state.tasks)) == (3, 4)
        manager = CheckpointManager(tmp_path)
        path = manager.save(state)
        assert path.exists() and path.with_suffix(".npz.crc").exists()

        loaded, skipped = CheckpointManager(tmp_path).load_latest(
            startup_model(small_dataset, worker_pool, distance_model, True)
        )
        assert skipped == 0
        assert loaded.journal_seq == 7
        assert loaded.snapshot_version == 3
        assert loaded.published_at == 12.5
        assert loaded.columns.worker_ids == state.columns.worker_ids
        assert loaded.columns.task_ids == state.columns.task_ids
        for name in ("num_labels", "a_worker", "a_task", "responses"):
            np.testing.assert_array_equal(
                getattr(loaded.columns, name), getattr(state.columns, name)
            )
        assert loaded.workers == state.workers
        assert loaded.tasks == state.tasks
        assert loaded.startup_digest == state.startup_digest
        assert loaded.answers_since_full_refresh == 5
        assert loaded.counters["answers"] == 12
        assert loaded.counters["update_seconds"] == pytest.approx(0.25)
        assert state.store.max_difference(loaded.store) == 0.0
        np.testing.assert_array_equal(state.store.p_qualified, loaded.store.p_qualified)

    @pytest.mark.parametrize("engine", ["vectorized", "sparse"])
    @settings(max_examples=12, deadline=None)
    @given(
        picks=st.lists(
            st.tuples(
                st.integers(0, 7), st.integers(0, 11), st.integers(0, 2**16)
            ),
            min_size=1,
            max_size=48,
        ),
        open_world=st.booleans(),
        decay=st.booleans(),
    )
    def test_live_tensor_round_trip(
        self, small_dataset, worker_pool, distance_model, engine, picks,
        open_world, decay,
    ):
        """Columns saved from a live tensor rebuild it array for array.

        Random streams re-answer pairs (rewritten in place), may register
        held-back workers/tasks on first sight, may age answers with decay,
        and run on either distance source; the checkpoint's columns must
        rebuild the live tensor exactly (row lists and pair map included),
        match ``AnswerTensor.build`` over the oracle's exported answers, and
        restore it — with its arrival epochs — through ``recover_ingestor``.
        """
        profiles = list(worker_pool)
        tasks = small_dataset.tasks

        def inference():
            startup_tasks = tasks[:8] if open_world else tasks
            startup_workers = [p.worker for p in profiles[: 5 if open_world else 8]]
            config = (
                InferenceConfig(
                    engine="sparse",
                    candidate_radius=0.3 * small_dataset.max_distance,
                )
                if engine == "sparse"
                else InferenceConfig()
            )
            return LocationAwareInference(
                startup_tasks, startup_workers, distance_model, config=config
            )

        config = IngestConfig(
            max_batch_answers=4,
            full_refresh_interval=1000,
            checkpoint_interval=1,
            pipeline=False,
            stat_decay=0.9 if decay else 1.0,
        )
        simulator = AnswerSimulator(distance_model, noise=0.2)
        with tempfile.TemporaryDirectory() as state_dir:
            state_dir = Path(state_dir)
            live = inference()
            ingestor = AnswerIngestor(
                live,
                SnapshotStore(),
                config=config,
                journal=AnswerJournal(state_dir / "journal"),
                checkpoints=CheckpointManager(state_dir / "checkpoints"),
            )
            for index, (w, t, seed) in enumerate(picks):
                ingestor.submit(
                    AnswerEvent(
                        simulator.sample_answer(profiles[w], tasks[t], seed=seed),
                        time=float(index),
                        worker=profiles[w].worker,
                        task=tasks[t],
                    )
                )
            ingestor.flush()
            ingestor.journal.close()
            tensor = ingestor._updater.live_tensor
            decay_epoch, arrivals = ingestor._updater.export_decay_state()

            loaded, skipped = CheckpointManager(state_dir / "checkpoints").load_latest(
                inference()
            )
            assert skipped == 0 and loaded.journal_seq == len(picks)
            columns = loaded.columns
            assert list(columns.answers()) == export_answers(tensor)
            assert_tensors_identical(
                live._tensor_from_columns(columns).enable_row_tracking(), tensor
            )
            assert_tensors_identical(
                live._build_tensor(AnswerSet(export_answers(tensor))), tensor,
                rows=False,
            )
            if decay:
                assert loaded.decay_epoch == decay_epoch
                np.testing.assert_array_equal(loaded.arrival_epochs, arrivals)
            else:
                assert loaded.arrival_epochs is None

            recovered, report = recover_ingestor(
                state_dir,
                inference=inference(),
                snapshots=SnapshotStore(),
                ingest_config=config,
            )
            recovered.journal.close()
            assert report.checkpoint_answers == tensor.num_answers
            assert report.replayed_events == 0
            assert_tensors_identical(recovered._updater.live_tensor, tensor)
            restored_epoch, restored_arrivals = recovered._updater.export_decay_state()
            if decay:
                assert restored_epoch == decay_epoch
                np.testing.assert_array_equal(restored_arrivals, arrivals)

    def test_corrupt_checkpoint_is_skipped_for_an_older_one(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        from repro.serving.faults import corrupt_file

        manager = CheckpointManager(tmp_path)
        manager.save(self._state(small_dataset, worker_pool, distance_model, seq=5))
        newest = manager.save(
            self._state(small_dataset, worker_pool, distance_model, seq=9)
        )
        corrupt_file(newest)

        startup = startup_model(small_dataset, worker_pool, distance_model)
        with pytest.raises(CheckpointCorruptionError):
            manager.load(newest, startup)
        loaded, skipped = manager.load_latest(startup)
        assert skipped == 1
        assert loaded.journal_seq == 5

    def test_missing_crc_sidecar_is_corruption(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        manager = CheckpointManager(tmp_path)
        path = manager.save(self._state(small_dataset, worker_pool, distance_model))
        path.with_suffix(".npz.crc").unlink()
        startup = startup_model(small_dataset, worker_pool, distance_model)
        with pytest.raises(CheckpointCorruptionError):
            manager.load(path, startup)
        loaded, skipped = manager.load_latest(startup)
        assert loaded is None and skipped == 1

    def test_prune_keeps_the_newest(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        manager = CheckpointManager(tmp_path, keep=2)
        for seq in (3, 6, 9, 12):
            manager.save(
                self._state(small_dataset, worker_pool, distance_model, seq=seq)
            )
        remaining = manager.checkpoint_paths()
        assert [p.name for p in remaining] == [
            "ckpt-0000000009.npz",
            "ckpt-0000000012.npz",
        ]

    def test_empty_directory_is_a_cold_start(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        loaded, skipped = CheckpointManager(tmp_path / "none").load_latest(
            startup_model(small_dataset, worker_pool, distance_model)
        )
        assert loaded is None and skipped == 0


def assert_tensors_identical(a, b, rows=True):
    """Two answer tensors hold equal arrays (and, with ``rows``, row indexes)."""
    assert a.worker_ids == b.worker_ids
    assert a.task_ids == b.task_ids
    for name in (
        "num_labels", "label_offsets", "a_worker", "a_task", "distances",
        "f_values", "a_label_start", "r_answer", "r_worker", "r_task",
        "r_label", "responses", "task_of_label",
    ):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)
    if rows:
        for index in range(a.num_workers):
            assert a.rows_of_worker(index) == b.rows_of_worker(index)
        for index in range(a.num_tasks):
            assert a.rows_of_task(index) == b.rows_of_task(index)
        assert a._pair_row == b._pair_row


def _rewrite_archive(path, mutate):
    """Apply ``mutate`` to a checkpoint's arrays and re-seal it with a valid CRC."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    mutate(arrays)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    raw = buffer.getvalue()
    path.write_bytes(raw)
    path.with_suffix(".npz.crc").write_text(f"{zlib.crc32(raw):08x}\n")


def _set(key, value):
    def mutate(arrays):
        arrays[key] = value(arrays[key]) if callable(value) else value
    return mutate


def _first_task_gains_a_label(arrays):
    """The columns give their first task a fifth label (one more tick per
    row, so they stay self-consistent) that its universe entry lacks."""
    num_labels = arrays["answers_num_labels"].copy()
    a_task = arrays["answers_a_task"]
    row_ends = np.cumsum(num_labels[a_task])
    arrays["answers_responses"] = np.insert(
        arrays["answers_responses"], row_ends[a_task == 0], 0
    )
    num_labels[0] += 1
    arrays["answers_num_labels"] = num_labels


def _edit(key, edit):
    def mutate(arrays):
        array = arrays[key].copy()
        edit(array)
        arrays[key] = array
    return mutate


#: One defect per case (each leaves the CRC valid) and the refusal it draws.
ARCHIVE_DEFECTS = {
    "missing-array": (
        lambda arrays: arrays.pop("answers_a_task"),
        "missing array 'answers_a_task'",
    ),
    "missing-metadata": (
        lambda arrays: arrays.pop("tasks_json"),
        "missing array 'tasks_json'",
    ),
    "float-indices": (
        _set("answers_a_worker", lambda a: a.astype(float)),
        "'answers_a_worker' is float64",
    ),
    "wide-responses": (
        _set("answers_responses", lambda a: a.astype(np.int64)),
        "'answers_responses' is int64",
    ),
    "text-metadata": (
        _set("tasks_json", lambda a: np.asarray(a.tobytes().decode(), dtype=np.str_)),
        "'tasks_json' is <U",
    ),
    "two-dim-indices": (
        _set("answers_a_task", lambda a: a.reshape(-1, 1)),
        r"'answers_a_task' is int64 with shape \(\d+, 1\)",
    ),
    "short-num-labels": (
        _set("answers_num_labels", lambda a: a[:-1]),
        "one positive count per task",
    ),
    "worker-out-of-range": (
        _edit("answers_a_worker", lambda a: a.__setitem__(0, a.max() + 1)),
        "a_worker indexes outside",
    ),
    "negative-task": (
        _edit("answers_a_task", lambda a: a.__setitem__(0, -1)),
        "a_task indexes outside",
    ),
    "response-outside-0-1": (
        _edit("answers_responses", lambda a: a.__setitem__(0, 2)),
        "responses must be 0/1",
    ),
    "responses-too-short": (
        _set("answers_responses", lambda a: a[:-1]),
        "the rows' tasks have",
    ),
    "label-count-vs-universe": (
        _first_task_gains_a_label,
        "has 5 labels, the restored universe 4",
    ),
    "learned-task-missing": (
        _set("tasks_json", np.frombuffer(b"[]", dtype=np.uint8)),
        "has 4 labels, the restored universe None",
    ),
    "worker-outside-universe": (
        _set("answers_worker_ids", lambda a: np.asarray(["stranger", *a[1:]])),
        "tensor worker 'stranger' is not in the restored universe",
    ),
    "duplicate-pair": (
        _edit("answers_a_task", lambda a: a.__setitem__(1, a[0])),
        "same \\(worker, task\\) pair",
    ),
    "arrival-epochs-misaligned": (
        _set("arrival_epochs", lambda a: a[:-1]),
        "arrival_epochs has shape",
    ),
    "unknown-format": (
        _set("format", np.asarray(1, dtype=np.int64)),
        "has format 1, this build reads format 3",
    ),
    "no-format": (
        lambda arrays: arrays.pop("format"),
        "has format None",
    ),
}


class TestCheckpointBoundary:
    """A checkpoint file is outside input: ``load`` validates every column
    against the universe it restores into (startup plus learned entities)."""

    @pytest.mark.parametrize("defect", sorted(ARCHIVE_DEFECTS))
    def test_defective_archive_falls_back_to_the_older_one(
        self, tmp_path, small_dataset, worker_pool, distance_model, defect
    ):
        state = TestCheckpointManager()._state(
            small_dataset, worker_pool, distance_model, open_world=True
        )
        # Rows 0 and 1 share a worker, so "duplicate-pair" repeats a pair
        # (and every task has as many labels, so only that check can fire).
        assert state.columns.a_worker[0] == state.columns.a_worker[1]
        assert len(set(state.columns.num_labels.tolist())) == 1
        state = replace(
            state,
            decay_epoch=4,
            arrival_epochs=np.arange(state.columns.num_answers, dtype=np.int64),
        )
        startup = startup_model(small_dataset, worker_pool, distance_model, True)
        manager = CheckpointManager(tmp_path)
        manager.save(replace(state, journal_seq=5))
        newest = manager.save(replace(state, journal_seq=9))
        assert manager.load(newest, startup).journal_seq == 9

        mutate, refusal = ARCHIVE_DEFECTS[defect]
        _rewrite_archive(newest, mutate)
        with pytest.raises(CheckpointCorruptionError, match=refusal):
            manager.load(newest, startup)
        loaded, skipped = manager.load_latest(startup)
        assert skipped == 1
        assert loaded.journal_seq == 5


class TestCheckpointDurability:
    """With the fsync policy on, a checkpoint is durable before anything
    it makes redundant (older checkpoints, journal segments) is unlinked."""

    def _run(self, tmp_path, small_dataset, worker_pool, distance_model, monkeypatch,
             fsync):
        """Drive a checkpointing ingestor; log every fsync and unlink in order.

        An fsync is logged as the synced file's identity (inode, size,
        mtime) and whether it is a directory; an unlink as the newest
        checkpoint's archive and sidecar identities at that moment.
        """
        checkpoint_dir = tmp_path / "checkpoints"
        log = []
        real_fsync, real_unlink = os.fsync, Path.unlink

        def identity(path_or_stat):
            st = path_or_stat if isinstance(path_or_stat, os.stat_result) else (
                path_or_stat.stat()
            )
            return st.st_ino, st.st_size, st.st_mtime_ns

        def logged_fsync(descriptor):
            real_fsync(descriptor)
            st = os.fstat(descriptor)
            log.append(("fsync", identity(st), st.st_ino == checkpoint_dir.stat().st_ino))

        def logged_unlink(path, missing_ok=False):
            newest = max(checkpoint_dir.glob("ckpt-*.npz"))
            log.append(
                ("unlink", identity(newest), identity(newest.with_suffix(".npz.crc")))
            )
            real_unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(Path, "unlink", logged_unlink)
        journal = AnswerJournal(tmp_path / "journal", max_segment_records=4)
        ingestor = AnswerIngestor(
            LocationAwareInference(
                small_dataset.tasks, worker_pool.workers, distance_model
            ),
            SnapshotStore(),
            config=IngestConfig(
                max_batch_answers=4, checkpoint_interval=8, pipeline=False
            ),
            journal=journal,
            checkpoints=CheckpointManager(checkpoint_dir, keep=1, fsync=fsync),
        )
        for event in make_events(small_dataset, worker_pool, distance_model, 40):
            ingestor.submit(event)
        ingestor.flush()
        journal.close()
        assert ingestor.stats.checkpoints_written >= 3
        assert journal.stats.segments_truncated > 0
        return log

    def test_fsyncs_precede_every_unlink(
        self, tmp_path, small_dataset, worker_pool, distance_model, monkeypatch
    ):
        log = self._run(
            tmp_path, small_dataset, worker_pool, distance_model, monkeypatch, True
        )
        unlinks = [index for index, entry in enumerate(log) if entry[0] == "unlink"]
        assert unlinks
        for index in unlinks:
            _, archive, sidecar = log[index]
            synced = [entry for entry in log[:index] if entry[0] == "fsync"]
            files = [entry[1] for entry in synced]
            # The newest archive, then its sidecar, then the directory, were
            # all fsync'd before this unlink.
            assert archive in files and sidecar in files
            after_sidecar = synced[files.index(sidecar) + 1 :]
            assert files.index(archive) < files.index(sidecar)
            assert any(is_directory for _, _, is_directory in after_sidecar)

    def test_policy_off_never_fsyncs(
        self, tmp_path, small_dataset, worker_pool, distance_model, monkeypatch
    ):
        log = self._run(
            tmp_path, small_dataset, worker_pool, distance_model, monkeypatch, False
        )
        assert [entry for entry in log if entry[0] == "fsync"] == []
        assert any(entry[0] == "unlink" for entry in log)


class TestRecoveryReport:
    def test_summaries(self):
        cold = RecoveryReport(cold_start=True, replayed_events=4, torn_tail=True)
        assert "cold start" in cold.summary()
        assert "torn journal tail" in cold.summary()
        warm = RecoveryReport(
            checkpoint_seq=40,
            checkpoint_version=7,
            checkpoint_answers=40,
            replayed_events=3,
            corrupt_checkpoints_skipped=1,
        )
        text = warm.summary()
        assert "seq 40" in text and "v7" in text and "replayed 3" in text
        assert "1 corrupt" in text


def _archive_entities(path):
    """A checkpoint archive's learned-entity entries, as decoded JSON."""
    with np.load(path, allow_pickle=False) as data:
        return (
            json.loads(data["workers_json"].tobytes()),
            json.loads(data["tasks_json"].tobytes()),
        )


class TestStartupUniverseCheck:
    """A restart handed another startup universe than the crashed run's is
    refused with a typed error before any journal record is replayed."""

    CONFIG = dict(max_batch_answers=4, checkpoint_interval=8, pipeline=False)

    def _crash(self, tmp_path, small_dataset, worker_pool, distance_model):
        journal = AnswerJournal(tmp_path / "journal", max_segment_records=16)
        ingestor = AnswerIngestor(
            startup_model(small_dataset, worker_pool, distance_model),
            SnapshotStore(),
            config=IngestConfig(**self.CONFIG),
            journal=journal,
            checkpoints=CheckpointManager(tmp_path / "checkpoints"),
        )
        for event in make_events(small_dataset, worker_pool, distance_model, 30):
            ingestor.submit(event)
        journal.close()  # the process dies here: no closing flush

    def _recover(self, tmp_path, tasks, workers, distance_model):
        return recover_ingestor(
            tmp_path,
            inference=LocationAwareInference(tasks, workers, distance_model),
            snapshots=SnapshotStore(),
            ingest_config=IngestConfig(**self.CONFIG),
        )

    @pytest.mark.parametrize(
        "change", ["label-count", "moved-poi", "moved-worker", "missing-worker"]
    )
    def test_another_universe_is_refused_before_replay(
        self, tmp_path, small_dataset, worker_pool, distance_model, decoded, change
    ):
        self._crash(tmp_path, small_dataset, worker_pool, distance_model)
        tasks, workers = list(small_dataset.tasks), list(worker_pool.workers)
        task, worker = tasks[0], workers[0]
        if change == "label-count":
            tasks[0] = replace(
                task, labels=task.labels + ("extra",), truth=task.truth + (0,)
            )
        elif change == "moved-poi":
            moved = replace(task.poi, location=task.location.offset(0.001, 0.0))
            tasks[0] = replace(task, poi=moved)
        elif change == "moved-worker":
            moved = worker.locations[0].offset(0.0, 0.001)
            workers[0] = replace(worker, locations=(moved,) + worker.locations[1:])
        else:
            # The last worker answered nothing: only the digest knows of it.
            workers = workers[:-1]
        with pytest.raises(StartupUniverseError, match="another startup universe"):
            self._recover(tmp_path, tasks, workers, distance_model)
        assert decoded == []

    def test_the_same_universe_decodes_only_the_tail(
        self, tmp_path, small_dataset, worker_pool, distance_model, decoded
    ):
        self._crash(tmp_path, small_dataset, worker_pool, distance_model)
        # The same universe in another order is the same universe.
        recovered, report = self._recover(
            tmp_path,
            small_dataset.tasks[::-1],
            worker_pool.workers[::-1],
            distance_model,
        )
        recovered.journal.close()
        assert report.checkpoint_seq == 24 and report.replayed_events == 6
        assert len(decoded) == report.replayed_events


class TestLearnedEntityCheckpoints:
    """Checkpoints carry only the entities learned after startup, and
    restarts from them stay bit-equal to an uncrashed run."""

    CONFIG = dict(
        max_batch_answers=8,
        max_batch_delay=4.0,
        full_refresh_interval=30,
        checkpoint_interval=20,
    )

    def _events(self, small_dataset, worker_pool, distance_model):
        """Every (task, worker) pair, task-major, each with its payloads: the
        held-back workers arrive early, the held-back tasks late."""
        simulator = AnswerSimulator(distance_model, noise=0.1)
        pairs = [
            (task, profile) for task in small_dataset.tasks for profile in worker_pool
        ]
        return [
            AnswerEvent(
                simulator.sample_answer(profile, task, seed=7000 + index),
                time=float(index),
                worker=profile.worker,
                task=task,
            )
            for index, (task, profile) in enumerate(pairs)
        ]

    def test_closed_world_checkpoint_holds_no_entity_entries(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        ingestor = AnswerIngestor(
            startup_model(small_dataset, worker_pool, distance_model),
            SnapshotStore(),
            config=IngestConfig(**self.CONFIG),
            journal=AnswerJournal(tmp_path / "journal"),
            checkpoints=CheckpointManager(tmp_path / "checkpoints"),
        )
        for event in make_events(small_dataset, worker_pool, distance_model, 60):
            ingestor.submit(event)
        ingestor.flush()
        ingestor.close()
        ingestor.journal.close()
        paths = ingestor.checkpoints.checkpoint_paths()
        assert paths
        for path in paths:
            assert _archive_entities(path) == ([], [])

    def test_open_world_checkpoint_holds_the_learned_entities_in_order(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        inference = startup_model(small_dataset, worker_pool, distance_model, True)
        ingestor = AnswerIngestor(
            inference,
            SnapshotStore(),
            config=IngestConfig(
                **dict(self.CONFIG, checkpoint_interval=1, pipeline=False)
            ),
            journal=AnswerJournal(tmp_path / "journal"),
            checkpoints=CheckpointManager(tmp_path / "checkpoints"),
        )
        events = self._events(small_dataset, worker_pool, distance_model)
        for event in events:
            ingestor.submit(event)
        ingestor.flush()
        ingestor.journal.close()
        # First sight, in stream order, of everything past the startup set.
        startup_workers = {w.worker_id for w in worker_pool.workers[:5]}
        startup_tasks = {t.task_id for t in small_dataset.tasks[:8]}
        learned_workers = list(dict.fromkeys(
            e.worker for e in events if e.worker.worker_id not in startup_workers
        ))
        learned_tasks = list(dict.fromkeys(
            e.task for e in events if e.task.task_id not in startup_tasks
        ))
        assert inference.learned_entities() == (learned_workers, learned_tasks)
        newest = ingestor.checkpoints.checkpoint_paths()[-1]
        assert _archive_entities(newest) == (
            [worker_to_entry(worker) for worker in learned_workers],
            [task_to_entry(task) for task in learned_tasks],
        )

    def test_two_chained_restarts_end_bit_equal(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        events = self._events(small_dataset, worker_pool, distance_model)
        config = IngestConfig(**self.CONFIG)

        def startup():
            return startup_model(small_dataset, worker_pool, distance_model, True)

        reference = AnswerIngestor(startup(), SnapshotStore(), config=config)
        for event in events:
            reference.submit(event)
        reference.flush()
        reference.close()

        def crash_after(count):
            faults = FaultInjector()
            faults.arm("ingest.submit", after=count + 1, crash=True)
            return faults

        journal = AnswerJournal(tmp_path / "journal", max_segment_records=16)
        crashed = AnswerIngestor(
            startup(),
            SnapshotStore(),
            config=config,
            journal=journal,
            checkpoints=CheckpointManager(tmp_path / "checkpoints"),
            faults=crash_after(30),
        )
        with pytest.raises(SimulatedCrash):
            for event in events:
                crashed.submit(event)
        crashed.close()
        journal.close()

        def newest_checkpoint():
            state, _ = CheckpointManager(tmp_path / "checkpoints").load_latest(
                startup()
            )
            return state

        # First restart: the checkpoint learned workers only; crash again
        # once the held-back tasks have arrived and been checkpointed.
        checkpointed = newest_checkpoint()
        assert checkpointed.workers and not checkpointed.tasks
        first, report = recover_ingestor(
            tmp_path,
            inference=startup(),
            snapshots=SnapshotStore(),
            ingest_config=config,
            faults=crash_after(58),
        )
        assert not report.cold_start
        with pytest.raises(SimulatedCrash):
            for event in events[first.journal.last_seq :]:
                first.submit(event)
        first.close()
        first.journal.close()
        checkpointed = newest_checkpoint()
        assert checkpointed.workers and checkpointed.tasks

        second, report = recover_ingestor(
            tmp_path,
            inference=startup(),
            snapshots=SnapshotStore(),
            ingest_config=config,
        )
        assert report.checkpoint_seq == checkpointed.journal_seq
        for event in events[second.journal.last_seq :]:
            second.submit(event)
        second.flush()
        second.close()
        second.journal.close()

        assert second.stats.answers == reference.stats.answers
        assert second._inference.learned_entities() == (
            reference._inference.learned_entities()
        )
        for got, want in (
            (second._updater.live_store, reference._updater.live_store),
            (second._snapshots.latest().store, reference._snapshots.latest().store),
        ):
            assert got.worker_ids == want.worker_ids
            assert got.task_ids == want.task_ids
            for name in (
                "p_qualified", "distance_weights", "influence_weights", "label_probs",
            ):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
