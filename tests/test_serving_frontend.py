"""Tests for repro.serving.frontend (live assignment against snapshots)."""

import pytest

from oracles import nearest_unanswered_task
from repro.core.inference import LocationAwareInference
from repro.data.models import POI, Answer, AnswerSet, Task, Worker
from repro.framework.scenarios import SCENARIO_NAMES, build_scenario
from repro.serving.frontend import NO_SNAPSHOT, AssignmentFrontend
from repro.serving.service import OnlineServingService
from repro.serving.snapshots import ParameterSnapshot, SnapshotStore
from repro.spatial.distance import DistanceModel
from repro.spatial.geometry import GeoPoint


@pytest.fixture()
def snapshot_setup(small_dataset, worker_pool, distance_model, collected_answers):
    """A snapshot store primed with one real fit, plus the ingredients."""
    model = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    model.fit(collected_answers)
    registry = small_dataset.task_index
    task_ids = collected_answers.task_ids()
    store = model.parameters.regather(
        collected_answers.worker_ids(),
        task_ids,
        [registry[task_id].num_labels for task_id in task_ids],
    )
    snapshots = SnapshotStore()
    return snapshots, store


def make_frontend(small_dataset, worker_pool, distance_model, snapshots, **kwargs):
    return AssignmentFrontend(
        small_dataset.tasks,
        worker_pool.workers,
        distance_model,
        snapshots,
        **kwargs,
    )


class TestColdStart:
    def test_assigns_on_priors_before_any_snapshot(
        self, small_dataset, worker_pool, distance_model
    ):
        frontend = make_frontend(
            small_dataset, worker_pool, distance_model, SnapshotStore()
        )
        worker_id = worker_pool.worker_ids[0]
        response = frontend.assign(worker_id, 2, AnswerSet())
        assert len(response.task_ids) == 2
        assert response.snapshot_version == NO_SNAPSHOT
        assert frontend.seen_version is None

    def test_unknown_strategy_rejected(
        self, small_dataset, worker_pool, distance_model
    ):
        with pytest.raises(ValueError):
            make_frontend(
                small_dataset, worker_pool, distance_model, SnapshotStore(),
                strategy="greedy-est",
            )


class TestSnapshotTracking:
    def test_requests_carry_latest_version(
        self, small_dataset, worker_pool, distance_model, snapshot_setup
    ):
        snapshots, store = snapshot_setup
        frontend = make_frontend(
            small_dataset, worker_pool, distance_model, snapshots
        )
        snapshots.publish(store)
        response = frontend.assign(worker_pool.worker_ids[0], 2, AnswerSet())
        assert response.snapshot_version == 0
        snapshots.publish(store)
        response = frontend.assign(worker_pool.worker_ids[1], 2, AnswerSet())
        assert response.snapshot_version == 1

    def test_parameters_refresh_once_per_version(
        self, small_dataset, worker_pool, distance_model, snapshot_setup
    ):
        snapshots, store = snapshot_setup
        frontend = make_frontend(
            small_dataset, worker_pool, distance_model, snapshots
        )
        snapshots.publish(store)
        for worker_id in worker_pool.worker_ids[:3]:
            frontend.assign(worker_id, 1, AnswerSet())
        assert frontend.stats.parameter_refreshes == 1  # one version, one push
        snapshots.publish(store)
        frontend.assign(worker_pool.worker_ids[3], 1, AnswerSet())
        assert frontend.stats.parameter_refreshes == 2
        assert frontend.seen_version == 1

    def test_version_change_never_converts_the_snapshot(
        self, small_dataset, worker_pool, distance_model, snapshot_setup,
        monkeypatch,
    ):
        """AccOpt is fed the snapshot's store; no request builds the
        dict-of-dataclasses view."""
        snapshots, store = snapshot_setup

        def refuse(snapshot):
            raise AssertionError("ParameterSnapshot.as_model on the request path")

        monkeypatch.setattr(ParameterSnapshot, "as_model", refuse)
        frontend = make_frontend(
            small_dataset, worker_pool, distance_model, snapshots,
            probe_interval=1,
        )
        for worker_id in worker_pool.worker_ids[:3]:
            snapshots.publish(store)
            assert frontend.assign(worker_id, 2, AnswerSet()).task_ids
        assert frontend.stats.parameter_refreshes == 3

    def test_strategies_all_serve(self, small_dataset, worker_pool, distance_model, snapshot_setup):
        snapshots, store = snapshot_setup
        snapshots.publish(store)
        for strategy in ("accopt", "uncertainty", "spatial", "random"):
            frontend = make_frontend(
                small_dataset, worker_pool, distance_model, snapshots,
                strategy=strategy, seed=11,
            )
            response = frontend.assign(worker_pool.worker_ids[0], 2, AnswerSet())
            assert len(response.task_ids) == 2, strategy


class TestStats:
    def test_latency_and_counters_recorded(
        self, small_dataset, worker_pool, distance_model, snapshot_setup
    ):
        snapshots, store = snapshot_setup
        snapshots.publish(store)
        frontend = make_frontend(
            small_dataset, worker_pool, distance_model, snapshots
        )
        for worker_id in worker_pool.worker_ids[:4]:
            frontend.assign(worker_id, 2, AnswerSet())
        stats = frontend.stats
        assert stats.requests == 4
        assert stats.tasks_assigned == 8
        assert len(stats.latencies.samples) == 4
        assert all(latency >= 0.0 for latency in stats.latencies.samples)
        assert stats.p50_latency_ms <= stats.p95_latency_ms

    def test_empty_percentiles_are_zero(
        self, small_dataset, worker_pool, distance_model
    ):
        frontend = make_frontend(
            small_dataset, worker_pool, distance_model, SnapshotStore()
        )
        assert frontend.stats.p50_latency_ms == 0.0
        assert frontend.stats.p95_latency_ms == 0.0

    def test_snapshot_age_measures_the_served_snapshot(
        self, small_dataset, worker_pool, distance_model, snapshot_setup
    ):
        """Age is the served snapshot's own published_wall gap, clamped >= 0 —
        not the distance to whatever newer version exists in the store."""
        snapshots, store = snapshot_setup
        frontend = make_frontend(
            small_dataset, worker_pool, distance_model, snapshots
        )
        # No snapshot yet: prior-only responses report zero age.
        response = frontend.assign(worker_pool.worker_ids[0], 1, AnswerSet())
        assert response.snapshot_age_s == 0.0
        snapshot = snapshots.publish(store)
        import time as time_module

        before = time_module.monotonic() - snapshot.published_wall
        response = frontend.assign(worker_pool.worker_ids[1], 1, AnswerSet())
        after = time_module.monotonic() - snapshot.published_wall
        assert before <= response.snapshot_age_s <= after
        assert response.snapshot_age_s >= 0.0

    def test_saturated_worker_gets_empty_response(
        self, small_dataset, worker_pool, distance_model, collected_answers,
        snapshot_setup,
    ):
        snapshots, store = snapshot_setup
        snapshots.publish(store)
        frontend = make_frontend(
            small_dataset, worker_pool, distance_model, snapshots
        )
        # Build an answer log where one worker has answered every task.
        answers = collected_answers.copy()
        worker_id = worker_pool.worker_ids[0]
        from repro.crowd.answer_model import AnswerSimulator

        simulator = AnswerSimulator(distance_model, noise=0.0)
        profile = worker_pool.profile(worker_id)
        for task in small_dataset.tasks:
            if answers.get(worker_id, task.task_id) is None:
                answers.add(simulator.sample_answer(profile, task, seed=5))
        response = frontend.assign(worker_id, 2, answers)
        assert response.task_ids == ()
        assert frontend.stats.empty_responses == 1


class TestLatencyReservoir:
    def test_invalid_capacity_rejected(self):
        from repro.serving.frontend import LatencyReservoir

        with pytest.raises(ValueError):
            LatencyReservoir(capacity=0)

    def test_empty_reservoir_reports_zero(self):
        from repro.serving.frontend import LatencyReservoir

        reservoir = LatencyReservoir(capacity=4)
        assert len(reservoir) == 0
        assert reservoir.count == 0
        assert not reservoir.saturated
        assert reservoir.percentile(50) == 0.0
        assert reservoir.percentile(99) == 0.0

    def test_single_sample_is_every_percentile(self):
        from repro.serving.frontend import LatencyReservoir

        reservoir = LatencyReservoir(capacity=4)
        reservoir.add(3.5)
        for percentile in (0, 50, 90, 99, 100):
            assert reservoir.percentile(percentile) == 3.5
        assert len(reservoir) == 1
        assert not reservoir.saturated

    def test_exact_below_capacity(self):
        from repro.serving.frontend import LatencyReservoir

        reservoir = LatencyReservoir(capacity=100)
        values = [float(i) for i in range(50)]
        for value in values:
            reservoir.add(value)
        assert sorted(reservoir.samples) == values
        assert not reservoir.saturated
        assert reservoir.percentile(0) == 0.0
        assert reservoir.percentile(100) == 49.0

    def test_at_capacity_retention_is_bounded(self):
        from repro.serving.frontend import LatencyReservoir

        reservoir = LatencyReservoir(capacity=8, seed=123)
        for i in range(200):
            reservoir.add(float(i))
        assert len(reservoir) == 8
        assert reservoir.count == 200
        assert reservoir.saturated
        # Every retained sample came from the stream.
        assert all(0.0 <= sample <= 199.0 for sample in reservoir.samples)

    def test_percentiles_are_monotonic(self):
        from repro.serving.frontend import LatencyReservoir

        reservoir = LatencyReservoir(capacity=64, seed=7)
        for i in range(1000):
            reservoir.add((i * 37 % 101) / 7.0)
        levels = (1, 25, 50, 75, 90, 99)
        reported = [reservoir.percentile(level) for level in levels]
        assert reported == sorted(reported)


# ------------------------------------------------------------ trust probes
#: A task id no universe holds: a probe that fires replaces it.
UNPICKED = ("not-a-task",)


def probe_pick(frontend, worker_id, answered):
    """The frontend's probe pick for ``answered`` (None: no swap), read off
    a fresh answer log in which ``worker_id`` answered exactly those tasks."""
    answers = AnswerSet(Answer(worker_id, task_id, (1,)) for task_id in answered)
    picked = frontend._maybe_probe(worker_id, 1, UNPICKED, answers)
    return None if picked == UNPICKED else picked[-1]


def make_task(task_id, x, y):
    return Task(
        task_id=task_id,
        poi=POI(poi_id=f"poi-{task_id}", name=task_id, location=GeoPoint(x, y)),
        labels=("a", "b"),
        truth=(1, 0),
    )


def probing_frontend(tasks, workers):
    return AssignmentFrontend(
        tasks,
        workers,
        DistanceModel(max_distance=20.0),
        SnapshotStore(),
        probe_interval=1,
    )


class TestTrustProbes:
    def test_probe_serves_nearest_unanswered_task(
        self, small_dataset, worker_pool, distance_model
    ):
        frontend = make_frontend(
            small_dataset, worker_pool, distance_model, SnapshotStore(),
            probe_interval=1,
        )
        worker = worker_pool.workers[0]
        response = frontend.assign(worker.worker_id, 2, AnswerSet())
        nearest = nearest_unanswered_task(small_dataset.tasks, worker, distance_model)
        assert nearest in response.task_ids

    def test_probe_swap_and_cadence(
        self, small_dataset, worker_pool, distance_model
    ):
        from repro.crowd.answer_model import AnswerSimulator

        frontend = make_frontend(
            small_dataset, worker_pool, distance_model, SnapshotStore(),
            probe_interval=2,
        )
        worker = worker_pool.workers[0]
        worker_id = worker.worker_id
        profile = worker_pool.profile(worker_id)
        nearest = nearest_unanswered_task(small_dataset.tasks, worker, distance_model)
        decoys = tuple(
            t.task_id for t in small_dataset.tasks if t.task_id != nearest
        )[:2]

        # Request 0 of the worker's probe cycle: the last pick is swapped for
        # the nearest unanswered task and the probe is counted.
        probed = frontend._maybe_probe(worker_id, 2, decoys, AnswerSet())
        assert probed == decoys[:1] + (nearest,)
        assert frontend.stats.probes == 1

        # After h answered tasks the cadence counter is odd: no probe fires.
        simulator = AnswerSimulator(distance_model, noise=0.0)
        answers = AnswerSet()
        for index in range(2):
            answers.add(
                simulator.sample_answer(
                    profile, small_dataset.tasks[index], seed=900 + index
                )
            )
        unprobed = frontend._maybe_probe(worker_id, 2, decoys, answers)
        assert unprobed == decoys
        assert frontend.stats.probes == 1

    def test_probes_disabled_by_default(
        self, small_dataset, worker_pool, distance_model
    ):
        frontend = make_frontend(
            small_dataset, worker_pool, distance_model, SnapshotStore()
        )
        frontend.assign(worker_pool.worker_ids[0], 2, AnswerSet())
        assert frontend.stats.probes == 0

    @pytest.mark.parametrize("seed", [3, 17, 29])
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_pick_matches_scalar_oracle_on_a_served_campaign(
        self, scenario, seed, monkeypatch
    ):
        """Every answered set a served campaign probed at gives the oracle's
        pick, on every scenario preset (haversine distances)."""
        built = build_scenario(
            scenario, num_tasks=30, num_workers=12, budget=120, seed=seed
        )
        platform = built.platform
        service = OnlineServingService(platform, built.config)
        probed = service.frontend._maybe_probe
        recorded = []

        def record(worker_id, h, task_ids, answers):
            recorded.append((worker_id, answers.tasks_of_worker(worker_id)))
            return probed(worker_id, h, task_ids, answers)

        monkeypatch.setattr(service.frontend, "_maybe_probe", record)
        service.run()
        service.close()
        assert len(recorded) >= 20
        assert any(answered for _, answered in recorded)

        tasks, workers = platform.dataset.tasks, platform.worker_pool.workers
        frontend = AssignmentFrontend(
            tasks, workers, platform.distance_model, SnapshotStore(),
            probe_interval=1,
        )
        by_id = {worker.worker_id: worker for worker in workers}
        for worker_id, answered in recorded:
            assert probe_pick(frontend, worker_id, answered) == nearest_unanswered_task(
                tasks, by_id[worker_id], platform.distance_model, answered
            )

    def test_every_task_answered_means_no_swap(self):
        tasks = [make_task("t0", 1.0, 1.0), make_task("t1", 2.0, 2.0)]
        worker = Worker("w", (GeoPoint(0.0, 0.0),))
        frontend = probing_frontend(tasks, [worker])
        assert probe_pick(frontend, "w", {"t0", "t1"}) is None
        assert frontend.stats.probes == 0
        assert nearest_unanswered_task(
            tasks, worker, DistanceModel(max_distance=20.0), {"t0", "t1"}
        ) is None

    def test_task_added_after_the_first_probe(self):
        tasks = [make_task("far", 5.0, 5.0), make_task("near", 1.2, 0.0)]
        worker = Worker("w", (GeoPoint(0.0, 0.0),))
        frontend = probing_frontend(tasks, [worker])
        assert probe_pick(frontend, "w", ()) == "near"
        late = make_task("late", 0.2, 1.0)
        assert frontend.add_task(late)
        grown = tasks + [late]
        model = DistanceModel(max_distance=20.0)
        for answered in ((), {"late"}, {"late", "near"}):
            expected = nearest_unanswered_task(grown, worker, model, answered)
            assert probe_pick(frontend, "w", answered) == expected
        assert probe_pick(frontend, "w", ()) == "late"
        assert probe_pick(frontend, "w", {"late", "near", "far"}) is None

    @pytest.mark.parametrize("order", [("far", "b", "a"), ("far", "a", "b")])
    def test_co_located_tasks_go_to_the_first_in_order(self, order):
        place = {"far": (5.0, 5.0), "a": (1.0, 1.0), "b": (1.0, 1.0)}
        tasks = [make_task(task_id, *place[task_id]) for task_id in order]
        worker = Worker("w", (GeoPoint(0.0, 0.0),))
        frontend = probing_frontend(tasks, [worker])
        assert probe_pick(frontend, "w", ()) == order[1]
        assert nearest_unanswered_task(
            tasks, worker, DistanceModel(max_distance=20.0)
        ) == order[1]
        assert probe_pick(frontend, "w", {order[1]}) == order[2]

    def test_worker_with_two_locations(self):
        tasks = [
            make_task("by-first", 3.0, 0.0),
            make_task("by-second", 9.0, 9.0),
            make_task("between", 4.0, 4.0),
        ]
        worker = Worker("w", (GeoPoint(0.0, 0.0), GeoPoint(10.0, 10.0)))
        frontend = probing_frontend(tasks, [worker])
        model = DistanceModel(max_distance=20.0)
        for answered in ((), {"by-second"}, {"by-second", "by-first"}):
            expected = nearest_unanswered_task(tasks, worker, model, answered)
            assert probe_pick(frontend, "w", answered) == expected
        assert probe_pick(frontend, "w", ()) == "by-second"
        assert probe_pick(frontend, "w", {"by-second"}) == "by-first"


class TestProbeReadsTheAssignersArrays:
    """The probe masks the assigner's distance row with the worker's answered
    columns and breaks ties by the frontend's task order.  With ``h = 1`` and
    a probe on every request, each served HIT is the probe's pick, so a served
    campaign checks it against the scalar oracle request by request."""

    #: Construction order; ``tie-z`` and ``tie-a`` share a place and sort
    #: the other way round, so the assigner's columns put ``tie-a`` first.
    PLACES = {
        "t-far": (8.0, 8.0),
        "tie-z": (1.0, 1.0),
        "tie-a": (1.0, 1.0),
        "mid": (3.0, 0.0),
        "edge": (0.0, 4.0),
    }
    #: Tasks posted once every worker's row is cached: one nearer than any,
    #: one co-located with ``mid``.
    LATE = {"late": (0.2, 0.2), "late-mid": (3.0, 0.0)}

    @pytest.mark.parametrize(
        "options",
        [
            {"strategy": "accopt"},
            {"strategy": "accopt", "engine": "sparse", "candidate_radius": 1e9},
            {"strategy": "random", "seed": 5},
            {"strategy": "spatial"},
            {"strategy": "uncertainty"},
        ],
        ids=["accopt-dense", "accopt-sparse", "random", "spatial", "uncertainty"],
    )
    def test_served_picks_match_the_scalar_oracle(self, options):
        tasks = [make_task(task_id, *xy) for task_id, xy in self.PLACES.items()]
        workers = [
            Worker("w0", (GeoPoint(0.0, 0.0),)),
            Worker("w1", (GeoPoint(10.0, 10.0), GeoPoint(1.1, 1.0))),
            Worker("w2", (GeoPoint(3.0, 0.5),)),
        ]
        model = DistanceModel(max_distance=20.0)
        frontend = AssignmentFrontend(
            tasks, workers, model, SnapshotStore(), probe_interval=1, **options
        )
        answers = AnswerSet()
        served = {worker.worker_id: [] for worker in workers}
        for step in range(len(self.PLACES) + len(self.LATE) + 1):
            if step == 1:
                for task_id, xy in self.LATE.items():
                    tasks.append(make_task(task_id, *xy))
                    assert frontend.add_task(tasks[-1])
            for worker in workers:
                response = frontend.assign(worker.worker_id, 1, answers)
                expected = nearest_unanswered_task(
                    tasks, worker, model, answers.tasks_of_worker(worker.worker_id)
                )
                assert response.task_ids == ((expected,) if expected else ())
                for task_id in response.task_ids:
                    served[worker.worker_id].append(task_id)
                    answers.add(Answer(worker.worker_id, task_id, (1, 0)))
        assert served["w0"] == [
            "tie-z", "late", "tie-a", "mid", "late-mid", "edge", "t-far"
        ]
        assert served["w1"][:2] == ["tie-z", "tie-a"]
        assert all(sorted(ids) == sorted(self.PLACES | self.LATE) for ids in served.values())


class TestReputationAtTheFrontend:
    def test_quarantined_worker_is_refused(
        self, small_dataset, worker_pool, distance_model
    ):
        from repro.serving import ReputationConfig, ReputationTracker

        tracker = ReputationTracker(
            ReputationConfig(min_answers=1, demote_patience=1)
        )
        worker_id = worker_pool.worker_ids[0]
        tracker.evaluate([worker_id], [0.01], {worker_id: 50})
        assert tracker.is_quarantined(worker_id)

        frontend = make_frontend(
            small_dataset, worker_pool, distance_model, SnapshotStore(),
            reputation=tracker,
        )
        response = frontend.assign(worker_id, 2, AnswerSet())
        assert response.task_ids == ()
        assert frontend.stats.blocked_requests == 1
        # Everyone else keeps being served.
        other = worker_pool.worker_ids[1]
        assert frontend.assign(other, 2, AnswerSet()).task_ids
        assert frontend.stats.blocked_requests == 1
