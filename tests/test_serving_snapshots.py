"""Tests for repro.serving.snapshots (versioned snapshot store + persistence)."""

import numpy as np
import pytest

from repro.core.inference import LocationAwareInference
from repro.core.params import ArrayParameterStore
from repro.serving.snapshots import ParameterSnapshot, SnapshotStore, load_snapshot


@pytest.fixture()
def fitted_store(small_dataset, worker_pool, distance_model, collected_answers):
    """An ArrayParameterStore flattened from a real fit over the test corpus."""
    model = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    model.fit(collected_answers)
    worker_ids = collected_answers.worker_ids()
    task_ids = collected_answers.task_ids()
    registry = small_dataset.task_index
    num_labels = [registry[task_id].num_labels for task_id in task_ids]
    return model.parameters.regather(worker_ids, task_ids, num_labels)


def assert_stores_equal(a: ArrayParameterStore, b: ArrayParameterStore) -> None:
    assert a.worker_ids == b.worker_ids
    assert a.task_ids == b.task_ids
    assert a.alpha == b.alpha
    assert a.function_set.lambdas == b.function_set.lambdas
    assert np.array_equal(a.label_offsets, b.label_offsets)
    assert np.array_equal(a.p_qualified, b.p_qualified)
    assert np.array_equal(a.distance_weights, b.distance_weights)
    assert np.array_equal(a.influence_weights, b.influence_weights)
    assert np.array_equal(a.label_probs, b.label_probs)


class TestNpzRoundTrip:
    def test_store_round_trip_is_bit_exact(self, fitted_store, tmp_path):
        path = fitted_store.save_npz(tmp_path / "params.npz")
        restored = ArrayParameterStore.load_npz(path)
        assert_stores_equal(fitted_store, restored)

    def test_snapshot_round_trip_keeps_metadata(self, fitted_store, tmp_path):
        store = SnapshotStore()
        snapshot = store.publish(fitted_store, published_at=12.5, source="full_refresh")
        path = snapshot.save(tmp_path / "snap.npz")
        restored = load_snapshot(path)
        assert restored.version == snapshot.version
        assert restored.published_at == 12.5
        assert restored.source == "restore"
        assert_stores_equal(snapshot.store, restored.store)

    def test_restored_arrays_are_frozen(self, fitted_store, tmp_path):
        snapshot = SnapshotStore().publish(fitted_store)
        restored = load_snapshot(snapshot.save(tmp_path / "snap.npz"))
        with pytest.raises(ValueError):
            restored.store.p_qualified[0] = 0.0


class TestVersioning:
    def test_versions_are_monotonic(self, fitted_store):
        store = SnapshotStore(max_snapshots=10)
        versions = [store.publish(fitted_store).version for _ in range(6)]
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)
        assert store.versions == versions

    def test_retention_is_bounded_and_keeps_newest(self, fitted_store):
        store = SnapshotStore(max_snapshots=3)
        for _ in range(7):
            store.publish(fitted_store)
        assert len(store) == 3
        assert store.versions == [4, 5, 6]
        assert store.latest().version == 6
        with pytest.raises(KeyError):
            store.get(0)
        assert store.get(5).version == 5

    def test_every_retained_version_reads_its_own_estimate(self, fitted_store):
        store = SnapshotStore(max_snapshots=4)
        live = fitted_store.copy()
        values = [0.05 + 0.1 * index for index in range(9)]
        for index, value in enumerate(values):
            live.p_qualified[0] = value
            live.label_probs[-1] = value
            if index % 2:
                store.publish(live.copy(), copy=False)
            else:
                store.publish(live)
        assert store.versions == [5, 6, 7, 8]
        for version in range(9):
            if version < 5:
                with pytest.raises(KeyError):
                    store.get(version)
                continue
            snapshot = store.get(version)
            assert snapshot.store.p_qualified[0] == values[version]
            assert snapshot.store.label_probs[-1] == values[version]

    def test_adopt_continues_monotonically(self, fitted_store, tmp_path):
        source = SnapshotStore()
        for _ in range(4):
            snapshot = source.publish(fitted_store)
        restored = load_snapshot(snapshot.save(tmp_path / "snap.npz"))

        fresh = SnapshotStore()
        fresh.adopt(restored)
        assert fresh.latest().version == 3
        assert fresh.publish(fitted_store).version == 4

    def test_adopt_rejects_stale_versions(self, fitted_store):
        store = SnapshotStore()
        store.publish(fitted_store)
        store.publish(fitted_store)
        stale = ParameterSnapshot(version=0, store=fitted_store.copy().freeze())
        with pytest.raises(ValueError):
            store.adopt(stale)

    def test_invalid_construction(self, fitted_store):
        with pytest.raises(ValueError):
            SnapshotStore(max_snapshots=0)
        with pytest.raises(ValueError):
            ParameterSnapshot(version=-1, store=fitted_store)


class TestCopyOnWrite:
    def test_publish_does_not_alias_the_live_store(self, fitted_store):
        store = SnapshotStore()
        snapshot = store.publish(fitted_store)
        before = snapshot.store.p_qualified.copy()
        fitted_store.p_qualified[:] = 0.123
        assert np.array_equal(snapshot.store.p_qualified, before)

    def test_publish_leaves_every_caller_array_writable(self, fitted_store):
        SnapshotStore().publish(fitted_store)
        # The copy-on-write contract: freezing the snapshot must not freeze
        # the caller's arrays — including the shared-looking label_offsets.
        fitted_store.label_offsets[0] = fitted_store.label_offsets[0]
        fitted_store.p_qualified[0] = fitted_store.p_qualified[0]

    def test_handed_over_store_is_frozen_in_place(self, fitted_store):
        handed = fitted_store.copy()
        snapshot = SnapshotStore().publish(handed, copy=False)
        assert snapshot.store is handed
        assert handed.frozen
        with pytest.raises(ValueError):
            handed.p_qualified[0] = 0.0
        with pytest.raises(ValueError):
            handed.label_probs[0] = 0.0
        # The store it was copied from keeps its own writable arrays.
        assert not fitted_store.frozen
        fitted_store.p_qualified[0] = fitted_store.p_qualified[0]

    def test_snapshot_arrays_are_read_only(self, fitted_store):
        snapshot = SnapshotStore().publish(fitted_store)
        with pytest.raises(ValueError):
            snapshot.store.label_probs[0] = 1.0
        with pytest.raises(ValueError):
            snapshot.store.distance_weights[0, 0] = 1.0

    def test_latest_is_none_before_first_publish(self):
        assert SnapshotStore().latest() is None

    def test_as_model_is_cached_and_consistent(self, fitted_store):
        snapshot = SnapshotStore().publish(fitted_store)
        model = snapshot.as_model()
        assert snapshot.as_model() is model
        worker_id = fitted_store.worker_ids[0]
        i = fitted_store.worker_ids.index(worker_id)
        assert model.worker(worker_id).p_qualified == pytest.approx(
            float(fitted_store.p_qualified[i])
        )


class TestWarmStartFromSnapshot:
    def test_restored_snapshot_warm_start_matches_live(
        self, small_dataset, worker_pool, distance_model, collected_answers,
        fitted_store, tmp_path,
    ):
        """Warm-starting EM from a restored snapshot equals the live store."""
        restored = load_snapshot(
            SnapshotStore().publish(fitted_store).save(tmp_path / "snap.npz")
        )

        def warm_fit(initial):
            model = LocationAwareInference(
                small_dataset.tasks, worker_pool.workers, distance_model
            )
            return model.fit(collected_answers, initial=initial).parameters

        live_params = warm_fit(fitted_store)
        restored_params = warm_fit(restored.store)
        assert live_params.max_difference(restored_params) <= 1e-9

    def test_warm_start_adopts_snapshot_without_fitting(
        self, small_dataset, worker_pool, distance_model, fitted_store
    ):
        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        assert not model.is_fitted
        model.warm_start(fitted_store)
        assert model.is_fitted
        task_id = fitted_store.task_ids[0]
        j = fitted_store.task_ids.index(task_id)
        expected = fitted_store.label_probs[fitted_store.task_label_slice(j)]
        assert model.label_probabilities(task_id) == pytest.approx(expected)


class TestIntegrity:
    def test_corrupt_snapshot_file_raises_typed_error(self, fitted_store, tmp_path):
        from repro.serving import ServingStateError, SnapshotIntegrityError
        from repro.serving.faults import corrupt_file

        path = SnapshotStore().publish(fitted_store).save(tmp_path / "snap.npz")
        # Smash the archive header: a flipped data byte deep inside a float
        # array can go unnoticed here (that is what the checkpoint manager's
        # CRC sidecars exist for); plain snapshot loads promise to catch
        # *structural* corruption.
        corrupt_file(path, offset=0, flips=8)
        with pytest.raises(SnapshotIntegrityError) as excinfo:
            load_snapshot(path)
        assert "snap.npz" in str(excinfo.value)
        assert isinstance(excinfo.value, ServingStateError)

    def test_truncated_snapshot_file_raises(self, fitted_store, tmp_path):
        from repro.serving import SnapshotIntegrityError

        path = SnapshotStore().publish(fitted_store).save(tmp_path / "snap.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(path)

    def test_missing_metadata_is_integrity_failure(self, fitted_store, tmp_path):
        from repro.serving import SnapshotIntegrityError

        # A bare parameter archive is readable but is not a snapshot: the
        # version/published_at metadata is missing.
        path = fitted_store.save_npz(tmp_path / "params.npz")
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(path)

    def test_round_trip_still_works_after_corruption_check(
        self, fitted_store, tmp_path
    ):
        path = SnapshotStore().publish(fitted_store).save(tmp_path / "snap.npz")
        assert_stores_equal(load_snapshot(path).store, fitted_store)

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (lambda a: a.update(label_offsets=a["label_offsets"][:-1]), "label_offsets has"),
            (lambda a: a.update(label_offsets=a["label_offsets"] + 1), "must start at 0"),
            (lambda a: a["label_offsets"].__setitem__(1, 0), "strictly increasing"),
            (lambda a: a.update(label_probs=a["label_probs"][:-1]), "label_probs holds"),
            (lambda a: a.update(p_qualified=a["p_qualified"][:-1]), "p_qualified shape"),
            (
                lambda a: a.update(distance_weights=a["distance_weights"][:, :-1]),
                "distance_weights shape",
            ),
            (
                lambda a: a.update(influence_weights=a["influence_weights"][:-1]),
                "influence_weights shape",
            ),
            (lambda a: a["p_qualified"].__setitem__(0, 1.5), "p_qualified contains"),
            (lambda a: a["label_probs"].__setitem__(0, np.nan), "label_probs contains"),
            (
                lambda a: a["influence_weights"].__setitem__((0, 0), np.inf),
                "influence_weights contains",
            ),
        ],
        ids=[
            "offsets-length",
            "offsets-start",
            "offsets-order",
            "label-slots",
            "worker-rows",
            "distance-shape",
            "influence-rows",
            "probability-range",
            "label-nan",
            "influence-inf",
        ],
    )
    def test_incoherent_archive_is_refused(self, fitted_store, tmp_path, corrupt, reason):
        """A readable archive whose arrays break the store's layout or ranges
        is refused on load, naming the file and the violated invariant."""
        from repro.serving import SnapshotIntegrityError

        snapshot = SnapshotStore().publish(fitted_store)
        arrays = {
            key: np.array(value) for key, value in snapshot.store.to_npz_dict().items()
        }
        corrupt(arrays)
        path = tmp_path / "incoherent.npz"
        np.savez(path, snapshot_version=1, published_at=0.0, **arrays)
        with pytest.raises(SnapshotIntegrityError, match=reason) as excinfo:
            load_snapshot(path)
        assert "incoherent.npz" in str(excinfo.value)
