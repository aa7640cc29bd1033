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
from repro.data.models import AnswerSet
from repro.serving import (
    AnswerEvent,
    AnswerIngestor,
    AnswerJournal,
    CheckpointCorruptionError,
    CheckpointManager,
    CheckpointState,
    IngestConfig,
    JournalCorruptionError,
    LiveStateError,
    RecoveryReport,
    ServingStateError,
    SnapshotIntegrityError,
    recover_ingestor,
)
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


class TestErrorHierarchy:
    def test_typed_errors_share_a_root(self):
        for err in (
            JournalCorruptionError,
            CheckpointCorruptionError,
            SnapshotIntegrityError,
            LiveStateError,
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

        with pytest.raises(JournalCorruptionError):
            AnswerJournal(tmp_path)

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


class TestCheckpointManager:
    def _state(self, small_dataset, worker_pool, distance_model, seq=7):
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        events = make_events(small_dataset, worker_pool, distance_model, 12)
        answers = [event.answer for event in events]
        from repro.data.models import AnswerSet

        inference.fit(AnswerSet(answers))
        task_ids = list(inference.tasks)
        store = inference.parameters.regather(
            list(inference.workers),
            task_ids,
            [inference.tasks[task_id].num_labels for task_id in task_ids],
        )
        return CheckpointState(
            store=store,
            journal_seq=seq,
            snapshot_version=3,
            published_at=12.5,
            columns=AnswerColumns.gather(
                AnswerSet(answers), inference.tasks, inference.workers
            ),
            workers=list(inference.workers.values()),
            tasks=list(inference.tasks.values()),
            answers_since_full_refresh=5,
            counters={"answers": 12, "update_seconds": 0.25},
        )

    def test_save_load_round_trip(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        state = self._state(small_dataset, worker_pool, distance_model)
        manager = CheckpointManager(tmp_path)
        path = manager.save(state)
        assert path.exists() and path.with_suffix(".npz.crc").exists()

        loaded, skipped = CheckpointManager(tmp_path).load_latest()
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

            loaded, skipped = CheckpointManager(state_dir / "checkpoints").load_latest()
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

        with pytest.raises(CheckpointCorruptionError):
            manager.load(newest)
        loaded, skipped = manager.load_latest()
        assert skipped == 1
        assert loaded.journal_seq == 5

    def test_missing_crc_sidecar_is_corruption(
        self, tmp_path, small_dataset, worker_pool, distance_model
    ):
        manager = CheckpointManager(tmp_path)
        path = manager.save(self._state(small_dataset, worker_pool, distance_model))
        path.with_suffix(".npz.crc").unlink()
        with pytest.raises(CheckpointCorruptionError):
            manager.load(path)
        loaded, skipped = manager.load_latest()
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

    def test_empty_directory_is_a_cold_start(self, tmp_path):
        loaded, skipped = CheckpointManager(tmp_path / "none").load_latest()
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
    tasks = json.loads(arrays["tasks_json"].tobytes())
    task_id = str(arrays["answers_task_ids"][0])
    for entry in tasks:
        if entry["task_id"] == task_id:
            entry["labels"].append("extra")
            entry["truth"].append(0)
    arrays["tasks_json"] = np.frombuffer(json.dumps(tasks).encode(), dtype=np.uint8)


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
    "label-count-vs-metadata": (
        _first_task_gains_a_label,
        "has 4 labels, its metadata 5",
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
        "has format 1, this build reads format 2",
    ),
    "no-format": (
        lambda arrays: arrays.pop("format"),
        "has format None",
    ),
}


class TestCheckpointBoundary:
    """A checkpoint file is outside input: ``load`` validates every column."""

    @pytest.mark.parametrize("defect", sorted(ARCHIVE_DEFECTS))
    def test_defective_archive_falls_back_to_the_older_one(
        self, tmp_path, small_dataset, worker_pool, distance_model, defect
    ):
        state = TestCheckpointManager()._state(
            small_dataset, worker_pool, distance_model
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
        manager = CheckpointManager(tmp_path)
        manager.save(replace(state, journal_seq=5))
        newest = manager.save(replace(state, journal_seq=9))
        assert manager.load(newest).journal_seq == 9

        mutate, refusal = ARCHIVE_DEFECTS[defect]
        _rewrite_archive(newest, mutate)
        with pytest.raises(CheckpointCorruptionError, match=refusal):
            manager.load(newest)
        loaded, skipped = manager.load_latest()
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
