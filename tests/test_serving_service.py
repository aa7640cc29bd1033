"""Tests for repro.serving.service (the end-to-end serving session)."""

import pytest

from repro.core.inference import LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.crowd.arrival import UniformRandomArrival
from repro.crowd.budget import Budget
from repro.crowd.platform import CrowdPlatform
from repro.data.models import AnswerSet
from repro.serving import (
    AnswerEvent,
    AnswerIngestor,
    IngestConfig,
    OnlineServingService,
    ServingConfig,
    SnapshotStore,
    load_snapshot,
)
from repro.framework.metrics import labelling_accuracy


def make_platform(small_dataset, worker_pool, distance_model, budget=60):
    return CrowdPlatform(
        dataset=small_dataset,
        worker_pool=worker_pool,
        budget=Budget(total=budget),
        distance_model=distance_model,
        answer_simulator=AnswerSimulator(distance_model, noise=0.05),
        arrival_process=UniformRandomArrival(worker_pool, batch_size=3, seed=7),
        seed=7,
    )


def make_config(**overrides):
    defaults = dict(
        tasks_per_worker=2,
        ingest=IngestConfig(
            max_batch_answers=8, max_batch_delay=4.0, full_refresh_interval=40
        ),
        seed=13,
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


class TestEndToEnd:
    def test_run_consumes_the_budget_and_reports(
        self, small_dataset, worker_pool, distance_model
    ):
        platform = make_platform(small_dataset, worker_pool, distance_model)
        service = OnlineServingService(platform, config=make_config())
        report = service.run()

        assert platform.budget.exhausted
        assert report.answers_ingested == 60
        assert report.answers_ingested == len(platform.answers)
        assert report.workers_served > 0
        assert report.frontend.requests >= report.workers_served
        assert report.ingest.batches >= 1
        assert report.snapshots_published == report.ingest.snapshots_published
        assert report.latest_version is not None
        assert service.snapshots.versions == sorted(service.snapshots.versions)
        assert 0.0 <= report.final_accuracy <= 1.0
        assert report.final_accuracy > 0.6  # low-noise simulated crowd
        assert report.frontend.p50_latency_ms <= report.frontend.p95_latency_ms
        summary = report.summary()
        assert "answers ingested: 60" in summary
        assert "p95" in summary

    def test_max_rounds_bounds_the_run(
        self, small_dataset, worker_pool, distance_model
    ):
        platform = make_platform(small_dataset, worker_pool, distance_model)
        service = OnlineServingService(platform, config=make_config())
        report = service.run(max_rounds=3)
        assert report.rounds <= 3
        assert not platform.budget.exhausted

    def test_every_strategy_runs(self, small_dataset, worker_pool, distance_model):
        for strategy in ("accopt", "uncertainty", "spatial", "random"):
            platform = make_platform(
                small_dataset, worker_pool, distance_model, budget=20
            )
            service = OnlineServingService(
                platform, config=make_config(strategy=strategy)
            )
            report = service.run()
            assert report.answers_ingested == 20, strategy

    def test_requires_an_arrival_process(
        self, small_dataset, worker_pool, distance_model
    ):
        platform = CrowdPlatform(
            dataset=small_dataset,
            worker_pool=worker_pool,
            budget=Budget(total=10),
            distance_model=distance_model,
        )
        with pytest.raises(ValueError):
            OnlineServingService(platform)


class TestRestart:
    def test_resume_from_saved_snapshot_continues_versions(
        self, small_dataset, worker_pool, distance_model, tmp_path
    ):
        platform = make_platform(small_dataset, worker_pool, distance_model, budget=30)
        service = OnlineServingService(platform, config=make_config())
        service.run()
        saved_version = service.snapshots.latest().version
        path = service.save_latest_snapshot(tmp_path / "snap.npz")
        assert path is not None

        restored = load_snapshot(path)
        fresh_platform = make_platform(
            small_dataset, worker_pool, distance_model, budget=20
        )
        resumed = OnlineServingService(
            fresh_platform, config=make_config(), initial_snapshot=restored
        )
        # The restored estimate is immediately live for the frontend...
        assert resumed.snapshots.latest().version == saved_version
        assert resumed.inference.is_fitted
        report = resumed.run()
        # ...and every later publish strictly increases the version.
        assert report.latest_version > saved_version
        assert resumed.snapshots.versions == sorted(resumed.snapshots.versions)
        # Restored entities survive re-publishing even if the new session has
        # not collected answers from them yet — no cold-start regression.
        final_store = resumed.snapshots.latest().store
        assert set(restored.store.worker_ids) <= set(final_store.worker_ids)
        assert set(restored.store.task_ids) <= set(final_store.task_ids)

    def test_save_without_snapshots_returns_none(
        self, small_dataset, worker_pool, distance_model, tmp_path
    ):
        platform = make_platform(small_dataset, worker_pool, distance_model)
        service = OnlineServingService(platform, config=make_config())
        assert service.save_latest_snapshot(tmp_path / "snap.npz") is None


class TestStreamReplay:
    """Replay a multi-hundred-answer stream and check serving tracks full EM."""

    def test_incremental_serving_tracks_batch_accuracy(
        self, small_dataset, worker_pool, distance_model
    ):
        platform = make_platform(small_dataset, worker_pool, distance_model, budget=90)
        service = OnlineServingService(
            platform,
            config=make_config(
                ingest=IngestConfig(
                    max_batch_answers=6, max_batch_delay=2.0, full_refresh_interval=30
                )
            ),
        )
        report = service.run()
        # The session may stop just short of the budget if a whole arrival
        # batch is saturated; whatever was simulated must have been ingested.
        assert report.answers_ingested == len(platform.answers)
        assert report.answers_ingested >= 60

        # Offline reference: one full EM fit over the identical answer log.
        offline = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        offline.fit(platform.answers)
        offline_accuracy = labelling_accuracy(
            offline.predict_all(), small_dataset.tasks
        )
        assert abs(report.final_accuracy - offline_accuracy) <= 0.1

    def test_replaying_a_stream_through_the_ingestor_alone(
        self, small_dataset, worker_pool, distance_model
    ):
        """Ingestor-only replay (the benchmark's code path, scaled down)."""
        simulator = AnswerSimulator(distance_model, noise=0.05)
        stream = []
        index = 0
        for profile in worker_pool:
            for task in small_dataset.tasks:
                stream.append(
                    AnswerEvent(
                        simulator.sample_answer(profile, task, seed=index),
                        time=0.05 * index,
                    )
                )
                index += 1
        inference = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        snapshots = SnapshotStore(max_snapshots=4)
        ingest = AnswerIngestor(
            inference,
            snapshots,
            config=IngestConfig(
                max_batch_answers=16, max_batch_delay=1.0, full_refresh_interval=48
            ),
        )
        for event in stream:
            ingest.submit(event)
        ingest.flush(full=True)
        assert ingest.stats.answers == len(stream)
        assert ingest.stats.full_refreshes >= 2
        assert ingest.stats.incremental_updates >= 1
        assert len(snapshots) == 4  # retention bound respected
        assert snapshots.versions == sorted(snapshots.versions)