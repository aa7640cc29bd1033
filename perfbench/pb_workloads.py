"""The benchmark's three workloads: ``stream``, ``campaign`` and ``offline``.

Each workload is a closed loop with one producer: the next call into the
program goes out only when the previous one has returned.  A workload object
is built from the seed and a size, generates its inputs in :meth:`prepare`
(never timed), and then runs *repetitions*.  One repetition is the
workload's set-up (timed as ``setup_s``) followed by its timed phase, on
fresh program objects and a fresh ``DistanceModel`` so no cache carries
over; repetitions of one seed do identical work.  The crowd simulation,
input generation and every output check stay outside the timed windows.

Why each workload exists, and which layers it exercises, is documented in
``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
for _path in (ROOT / "benchmarks", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from bench_common import build_answer_stream, build_inference_corpus  # noqa: E402

import repro.serving.journal as journal_module  # noqa: E402
from repro.assign import build_assigner  # noqa: E402
from repro.core import em_kernel  # noqa: E402
from repro.core.inference import InferenceConfig, LocationAwareInference  # noqa: E402
from repro.crowd.arrival import TimedArrivalSchedule  # noqa: E402
from repro.data.models import AnswerSet  # noqa: E402
from repro.framework.experiment import build_distance_model  # noqa: E402
from repro.framework.metrics import labelling_accuracy  # noqa: E402
from repro.framework.scenarios import build_scenario  # noqa: E402
from repro.serving.frontend import AssignmentFrontend  # noqa: E402
from repro.serving.guard import EventGuard  # noqa: E402
from repro.serving.ingest import AnswerEvent, AnswerIngestor, IngestConfig  # noqa: E402
from repro.serving.journal import AnswerJournal  # noqa: E402
from repro.serving.service import OnlineServingService  # noqa: E402
from repro.serving.snapshots import CheckpointManager, SnapshotStore  # noqa: E402

#: Tasks each assignment request asks for (the paper's h).
TASKS_PER_REQUEST = 2

#: Largest parameter difference allowed between the stream's end-of-stream
#: cold fit and an offline fit of the same answers.
ORACLE_TOLERANCE = 1e-9


@dataclass
class Repetition:
    """What one repetition measured and observed."""

    setup_s: float
    #: Program time per segment of the timed phase (same segments in every
    #: repetition of a seed, so segment times can be compared across them).
    segments_s: list[float]
    answers: int
    #: ``(ms, reference ms)`` of each assignment request of the timed phase
    #: (campaign; empty in unpaired repetitions), see :class:`ReferenceRequest`.
    requests: list[tuple[float, float]]
    accuracy: float
    peak_rss_mb: float
    attempted: int
    failed: int
    #: Check name -> failure detail (empty when every check passed).
    failures: dict[str, str]
    #: (start, end) of the repetition on the main thread: set-up + timed phase.
    window: tuple[float, float]
    #: Start, quarter marks and end of the timed phase (stream only).
    quarter_bounds: list[float] = field(default_factory=list)
    #: Layer metrics observed from outside the traced calls.
    observed: dict[str, float] = field(default_factory=dict)
    #: Other observations printed with the run (not metrics).
    notes: dict[str, int] = field(default_factory=dict)
    #: Read-outs of this repetition's estimate (stream, offline).
    read_out: "ReadOut | None" = None


# ---------------------------------------------------------------- helpers
def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark (VmHWM) to the current RSS.

    Garbage is collected and freed heap handed back to the OS first, so the
    mark starts from the live data (interpreter, inputs) rather than from
    whatever an earlier repetition left cached in the allocator.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory (MiB) since the last :func:`reset_peak_rss`."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accuracy_of(parameters, tasks) -> float:
    """Labelling accuracy (the paper's Equation 1) of an estimate."""
    predictions = {
        task.task_id: (
            parameters.task(task.task_id, num_labels=task.num_labels).label_probs >= 0.5
        ).astype(int)
        for task in tasks
    }
    return labelling_accuracy(predictions, tasks)


class JournalGrowth:
    """Bytes appended to a journal directory, read from its segment sizes.

    Segments only grow until a checkpoint truncates the ones it covers, so
    scanning right before every checkpoint save (and once at the end) sees
    every byte the journal wrote.
    """

    def __init__(self, directory: Path) -> None:
        self._directory = directory
        self._sizes: dict[str, int] = {}
        self.scan()
        self._initial = sum(self._sizes.values())

    def scan(self, _args=None) -> None:
        for path in self._directory.iterdir():
            self._sizes[path.name] = max(self._sizes.get(path.name, 0), path.stat().st_size)

    def appended(self) -> int:
        self.scan()
        return sum(self._sizes.values()) - self._initial


@contextlib.contextmanager
def _marking_returns(module, name: str, marks: list[float]):
    """Note the time each call of ``module.name`` returns (a timestamp, no span).

    The offline fit is a single call; its EM iterations are the segments
    that repetitions are compared by.  A later change that removes the name
    leaves one segment, the whole fit.
    """
    original = getattr(module, name, None)
    if original is None:
        yield
        return

    def marked(*args, **kwargs):
        result = original(*args, **kwargs)
        marks.append(time.perf_counter())
        return result

    setattr(module, name, marked)
    try:
        yield
    finally:
        setattr(module, name, original)


def _scratch_dir(prefix: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))


class ReferenceRequest:
    """A fixed warm assignment request, timed right before each measured one.

    One worker, parameters and answers that never change: the same
    computation on every call, so its time follows only the host's speed at
    that moment.  ``run._paired`` turns a measured request's ratio to it into
    a latency at the host's fastest speed in the run.
    """

    def __init__(self, assign, worker_id: str) -> None:
        self._assign = assign
        self._worker_id = worker_id
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        # Untimed first call: parameters and the distance row load here.
        self.time_ms()

    def time_ms(self) -> float | None:
        """Milliseconds one call took; None (and a failure) if it failed."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            task_ids = self._assign(self._worker_id)
        except Exception as error:  # noqa: BLE001 - counted as a failure
            self.failed += 1
            self.failures.setdefault("reference request raised", repr(error))
            return None
        elapsed = (time.perf_counter() - started) * 1000.0
        if not task_ids:
            self.failed += 1
            self.failures.setdefault("reference request empty", f"worker {self._worker_id}")
        return elapsed


class ReadOut:
    """Assignment requests against one repetition's final estimate.

    Each :meth:`run` builds a fresh assigner over the estimate and serves
    every worker one request for h tasks per round.  The first round
    computes each worker's distance row (a worker's first request to a
    server); later rounds reuse it, and their cost does not depend on how
    many locations a worker declared, so the median request is a warm one
    rather than a tie between one- and two-location workers.

    When ``paired``, every request is timed right after a
    :class:`ReferenceRequest` (the first worker's, to a second assigner
    built once), and each run appends its ``(ms, reference ms)`` pairs, in
    (round, worker) order, to :attr:`runs`; repetitions of a seed reach the
    same estimate, so every run lines up request by request with every
    other, wherever in the benchmark run it happens.
    """

    rounds = 3

    def __init__(self, new_assigner, worker_ids, answers: AnswerSet, paired: bool) -> None:
        self._new_assigner = new_assigner
        self._worker_ids = worker_ids
        self._answers = answers
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.runs: list[list[tuple[float, float]]] = []
        self.reference = ReferenceRequest(new_assigner(), worker_ids[0]) if paired else None

    def _timed(self, assign, worker_id: str) -> float | None:
        """Milliseconds one request took; None (and a failure) if it failed."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            task_ids = assign(worker_id)
        except Exception as error:  # noqa: BLE001 - counted as a failure
            self.failed += 1
            self.failures.setdefault("read-out raised", repr(error))
            return None
        elapsed = (time.perf_counter() - started) * 1000.0
        # Every worker here is trusted and has unanswered tasks.
        if not task_ids:
            self.failed += 1
            self.failures.setdefault("read-out empty", f"worker {worker_id}")
        elif any(self._answers.get(worker_id, task_id) for task_id in task_ids):
            self.failures.setdefault("read-out reassigned", f"worker {worker_id}")
        return elapsed

    def run(self) -> None:
        assign = self._new_assigner()
        samples = []
        for _ in range(self.rounds):
            for worker_id in self._worker_ids:
                reference_ms = self.reference.time_ms() if self.reference else None
                request_ms = self._timed(assign, worker_id)
                if reference_ms is not None and request_ms is not None:
                    samples.append((request_ms, reference_ms))
        self.runs.append(samples)


# ------------------------------------------------------------------ stream
@dataclass(frozen=True)
class StreamSize:
    answers: int = 20_000
    batch_answers: int = 64
    refresh_interval: int = 4000
    checkpoint_interval: int = 4000
    refresh_max_iterations: int = 25
    segment_answers: int = 500
    #: Planned seconds per repetition: ``--seconds`` fixes the repetition
    #: count from it, never from how fast the program happens to run.
    rep_seconds: float = 10.0
    setups_per_rep: int = 2


class Stream:
    """The write path: a durable, guarded replay of the 20k-answer corpus.

    An untimed pass ingests the first quarter and stops without a final
    flush; each repetition restarts from a copy of that state directory
    (``recover_ingestor``: checkpoint load + journal-tail replay, the
    set-up), submits the remaining answers as fast as ``submit`` returns and
    closes with the end-of-stream cold full fit.  A read-out phase then
    serves every worker assignment requests against the final snapshot.
    """

    name = "stream"

    def __init__(self, seed: int, size: StreamSize = StreamSize()) -> None:
        self.seed = seed
        self.size = size

    def _ingest_config(self) -> IngestConfig:
        return IngestConfig(
            max_batch_answers=self.size.batch_answers,
            full_refresh_interval=self.size.refresh_interval,
            checkpoint_interval=self.size.checkpoint_interval,
        )

    def _inference(self) -> LocationAwareInference:
        return LocationAwareInference(
            self.dataset.tasks,
            self.pool.workers,
            build_distance_model(self.dataset),
            config=InferenceConfig(max_iterations=self.size.refresh_max_iterations),
        )

    def prepare(self) -> None:
        self.dataset, self.pool, _, events = build_answer_stream(
            self.size.answers, seed=self.seed
        )
        self.events = events
        self.quarter = len(events) // 4
        self.answers = AnswerSet(event.answer for event in events)
        # The oracle: an offline fit of the same answers under the same config.
        reference = self._inference().fit(self.answers)
        self.reference = reference.parameters
        self.reference_accuracy = accuracy_of(self.reference, self.dataset.tasks)
        self.state = _scratch_dir("stream-state-")
        ingestor = AnswerIngestor(
            self._inference(),
            SnapshotStore(),
            config=self._ingest_config(),
            journal=AnswerJournal(self.state / "journal"),
            guard=EventGuard(),
            checkpoints=CheckpointManager(self.state / "checkpoints"),
        )
        for event in events[: self.quarter]:
            ingestor.submit(event)
        ingestor.close()
        ingestor.journal.close()

    def cleanup(self) -> None:
        shutil.rmtree(self.state, ignore_errors=True)

    def _fresh_state(self):
        """A copy of the state dir plus fresh program objects (all untimed)."""
        state = _scratch_dir("stream-run-")
        shutil.rmtree(state)
        shutil.copytree(self.state, state)
        return state, self._inference(), SnapshotStore(), EventGuard()

    def _recover(self, state, inference, snapshots, guard):
        # Looked up on the module at call time, so the traced run's wrapper
        # on recover_ingestor applies.
        ingestor, _ = journal_module.recover_ingestor(
            state,
            inference=inference,
            snapshots=snapshots,
            ingest_config=self._ingest_config(),
            guard=guard,
        )
        return ingestor

    def setup_only(self) -> float:
        state, inference, snapshots, guard = self._fresh_state()
        try:
            started = time.perf_counter()
            ingestor = self._recover(state, inference, snapshots, guard)
            elapsed = time.perf_counter() - started
            ingestor.close()
            ingestor.journal.close()
        finally:
            shutil.rmtree(state, ignore_errors=True)
        return elapsed

    def repetition(self, recorder=None, paired: bool = True) -> Repetition:
        size = self.size
        state, inference, snapshots, guard = self._fresh_state()
        timed = self.events[self.quarter :]
        quarter_at = {len(timed) * k // 4 for k in (1, 2, 3)}
        failures: dict[str, str] = {}
        attempted = failed = 0
        marks: list[float] = []
        quarter_marks: list[float] = []
        final = None
        growth = None
        if recorder is not None:
            growth = JournalGrowth(state / "journal")
            recorder.before["checkpoint.save"] = growth.scan
        reset_peak_rss()
        if recorder is not None:
            recorder.install()
        started = time.perf_counter()
        ingestor = self._recover(state, inference, snapshots, guard)
        setup_done = time.perf_counter()
        for index, event in enumerate(timed, start=1):
            attempted += 1
            try:
                ingestor.submit(event)
            except Exception as error:  # noqa: BLE001 - counted as a failure
                failed += 1
                failures.setdefault("submit raised", repr(error))
            if index % size.segment_answers == 0:
                marks.append(time.perf_counter())
            if index in quarter_at:
                quarter_marks.append(time.perf_counter())
        attempted += 1
        try:
            final = ingestor.flush(full=True, warm=False)
        except Exception as error:  # noqa: BLE001 - counted as a failure
            failed += 1
            failures.setdefault("final flush raised", repr(error))
        timed_done = time.perf_counter()
        distance_model = inference.distance_model

        def new_frontend():
            frontend = AssignmentFrontend(
                self.dataset.tasks,
                self.pool.workers,
                distance_model,
                snapshots,
                strategy="accopt",
            )
            return lambda worker_id: frontend.assign(
                worker_id, TASKS_PER_REQUEST, self.answers
            ).task_ids

        read_out = ReadOut(new_frontend, self.pool.worker_ids, self.answers, paired)
        read_out.run()
        ended = time.perf_counter()
        if recorder is not None:
            recorder.uninstall()
        rss = peak_rss_mb()
        ingestor.close()
        observed = {}
        if growth is not None:
            observed["journal.bytes"] = float(growth.appended())
        ingestor.journal.close()
        shutil.rmtree(state, ignore_errors=True)

        # Failure accounting from what the benchmark can see.
        if guard.stats.quarantined:
            failed += guard.stats.quarantined
            failures["guard rejected valid events"] = str(guard.stats.quarantined)
        if snapshots.degraded_marks:
            failed += snapshots.degraded_marks
            failures["degraded"] = f"{snapshots.degraded_marks} degraded batches"
        accuracy = float("nan")
        if final is None or final is not snapshots.latest():
            failures["final snapshot"] = "the end-of-stream fit published nothing"
        else:
            store = final.store
            missing_workers = {a.worker_id for a in self.answers} - set(store.worker_ids)
            missing_tasks = {a.task_id for a in self.answers} - set(store.task_ids)
            if missing_workers or missing_tasks:
                failures["answers visible"] = (
                    f"{len(missing_workers)} workers / {len(missing_tasks)} tasks "
                    "absent from the final snapshot"
                )
            parameters = final.as_model()
            difference = parameters.max_difference(self.reference)
            if not difference <= ORACLE_TOLERANCE:
                failures["offline oracle"] = f"max parameter difference {difference:.3g}"
            accuracy = accuracy_of(parameters, self.dataset.tasks)
            if accuracy != self.reference_accuracy:
                failures["oracle accuracy"] = (
                    f"{accuracy} != offline {self.reference_accuracy}"
                )
        segments = [
            later - earlier
            for earlier, later in zip([setup_done, *marks], [*marks, timed_done])
        ]
        return Repetition(
            setup_s=setup_done - started,
            segments_s=segments,
            answers=len(timed),
            requests=[],
            accuracy=accuracy,
            peak_rss_mb=rss,
            attempted=attempted,
            failed=failed,
            failures=failures,
            window=(started, ended),
            quarter_bounds=[setup_done, *quarter_marks, timed_done],
            observed=observed,
            read_out=read_out,
        )


# ---------------------------------------------------------------- campaign
@dataclass(frozen=True)
class CampaignSize:
    tasks: int = 1000
    workers: int = 100
    budget: int = 6000
    bootstrap_per_task: int = 2
    refresh_interval: int = 2000
    segment_rounds: int = 20
    max_rounds: int = 20_000
    rep_seconds: float = 7.5
    setups_per_rep: int = 0


class Campaign:
    """The read path beside small writes: a hostile crowd served live.

    The ``spam`` scenario (a quarter of the workers are adversaries; the
    reputation ladder and trust probes are on).  The platform's warm-up
    round collects ``bootstrap_per_task`` answers per task untimed; the
    set-up builds the serving stack and fits that bootstrap.  Timed: workers
    arrive five per round, each asks the frontend for h tasks against the
    latest snapshot, the simulated crowd answers (untimed) and the answers
    go to ``submit``, until the budget is spent; a final flush ends the run.
    """

    name = "campaign"

    def __init__(self, seed: int, size: CampaignSize = CampaignSize()) -> None:
        self.seed = seed
        self.size = size

    def _scenario(self):
        """Fresh platform (with its own DistanceModel) plus the bootstrap."""
        size = self.size
        scenario = build_scenario(
            "spam",
            num_tasks=size.tasks,
            num_workers=size.workers,
            budget=size.budget,
            seed=self.seed,
        )
        config = replace(
            scenario.config,
            ingest=replace(scenario.config.ingest, full_refresh_interval=size.refresh_interval),
        )
        platform = scenario.platform
        bootstrap = platform.collect_batch_answers(
            answers_per_task=size.bootstrap_per_task, seed=self.seed
        )
        events = [AnswerEvent(answer, time=0.0) for answer in bootstrap]
        return platform, config, events

    def prepare(self) -> None:
        """Inputs are built per repetition (the crowd consumes them)."""

    def cleanup(self) -> None:
        pass

    def _set_up(self, platform, config, events):
        service = OnlineServingService(platform, config)
        for event in events:
            service.ingestor.submit(event)
        service.ingestor.flush(full=True)
        return service

    def setup_only(self) -> float:
        platform, config, events = self._scenario()
        started = time.perf_counter()
        service = self._set_up(platform, config, events)
        elapsed = time.perf_counter() - started
        service.close()
        return elapsed

    def repetition(self, recorder=None, paired: bool = True) -> Repetition:
        size = self.size
        platform, config, events = self._scenario()
        schedule = TimedArrivalSchedule(
            platform.arrival_process,
            mean_interarrival=config.mean_interarrival,
            seed=config.seed,
        )
        adversaries = frozenset(platform.worker_pool.adversary_ids)
        failures: dict[str, str] = {}
        attempted = failed = 0
        requests: list[tuple[float, float]] = []
        segments: list[float] = []
        program_s = segment_start = 0.0
        assigned: set[tuple[str, str]] = set()
        answers = refused = 0
        reset_peak_rss()
        if recorder is not None:
            recorder.install()
        started = time.perf_counter()
        service = self._set_up(platform, config, events)
        setup_done = time.perf_counter()
        frontend, ingestor, reputation = service.frontend, service.ingestor, service.reputation
        reference = None
        if paired:
            # Fixed: the bootstrap estimate and answers, one worker.
            assigner = build_assigner(
                "accopt",
                platform.dataset.tasks,
                platform.worker_pool.workers,
                distance_model=platform.distance_model,
            )
            assigner.update_parameters(service.snapshots.latest().as_model())
            bootstrap = AnswerSet(event.answer for event in events)
            reference = ReferenceRequest(
                lambda worker_id: assigner.assign([worker_id], TASKS_PER_REQUEST, bootstrap)[
                    worker_id
                ],
                platform.worker_pool.worker_ids[0],
            )
        budget = platform.budget
        rounds = 0
        while budget.remaining > 0:
            if rounds >= size.max_rounds:
                failures["budget spent"] = f"{budget.remaining} left after {rounds} rounds"
                break
            batch = schedule.next_batch()
            rounds += 1
            for worker_id in batch.worker_ids:
                remaining = budget.remaining
                if remaining <= 0:
                    break
                attempted += 1
                reference_ms = reference.time_ms() if reference else None
                call_started = time.perf_counter()
                try:
                    response = frontend.assign(
                        worker_id, min(TASKS_PER_REQUEST, remaining), platform.answers
                    )
                except Exception as error:  # noqa: BLE001 - counted as a failure
                    program_s += time.perf_counter() - call_started
                    failed += 1
                    failures.setdefault("assign raised", repr(error))
                    continue
                elapsed = time.perf_counter() - call_started
                program_s += elapsed
                if reference_ms is not None:
                    requests.append((elapsed * 1000.0, reference_ms))
                task_ids = response.task_ids
                if not task_ids:
                    if not reputation.is_quarantined(worker_id) and platform.tasks_not_done_by(
                        worker_id
                    ):
                        failed += 1
                        failures.setdefault("empty response", f"trusted worker {worker_id}")
                    continue
                pairs = {(worker_id, task_id) for task_id in task_ids}
                if len(pairs) != len(task_ids) or pairs & assigned:
                    failures.setdefault("assigned twice", f"worker {worker_id}: {task_ids}")
                    continue
                assigned |= pairs
                collected = platform.execute_assignment(
                    {worker_id: list(task_ids)}, time=batch.time
                )
                for answer in collected:
                    attempted += 1
                    answers += 1
                    if reputation.is_quarantined(answer.worker_id):
                        # Demoted between assignment and submission: the
                        # intake refuses the event by design (an honest
                        # worker's demotion shows in guard.honest_quarantined).
                        refused += 1
                    call_started = time.perf_counter()
                    try:
                        ingestor.submit(AnswerEvent(answer, time=batch.time))
                    except Exception as error:  # noqa: BLE001 - counted as a failure
                        failed += 1
                        failures.setdefault("submit raised", repr(error))
                    program_s += time.perf_counter() - call_started
            if rounds % size.segment_rounds == 0:
                segments.append(program_s - segment_start)
                segment_start = program_s
        attempted += 1
        call_started = time.perf_counter()
        try:
            ingestor.flush()
        except Exception as error:  # noqa: BLE001 - counted as a failure
            failed += 1
            failures.setdefault("final flush raised", repr(error))
        program_s += time.perf_counter() - call_started
        segments.append(program_s - segment_start)
        ended = time.perf_counter()
        if recorder is not None:
            recorder.uninstall()
        rss = peak_rss_mb()
        service.close()

        if budget.remaining > 0:
            failures.setdefault("budget spent", f"{budget.remaining} left")
        if reference is not None:
            attempted += reference.attempted
            failed += reference.failed
            failures.update(reference.failures)
        if service.snapshots.degraded_marks:
            failed += service.snapshots.degraded_marks
            failures["degraded"] = f"{service.snapshots.degraded_marks} degraded batches"
        latest = service.snapshots.latest()
        accuracy = accuracy_of(latest.as_model(), platform.dataset.tasks)
        quarantined = reputation.quarantined_ids
        return Repetition(
            setup_s=setup_done - started,
            segments_s=segments,
            answers=answers,
            requests=requests,
            accuracy=accuracy,
            peak_rss_mb=rss,
            attempted=attempted,
            failed=failed,
            failures=failures,
            window=(started, ended),
            observed={
                "guard.quarantined": float(len(quarantined)),
                "guard.honest_quarantined": float(len(quarantined - adversaries)),
            },
            notes={"events refused (worker quarantined)": refused},
        )


# ----------------------------------------------------------------- offline
@dataclass(frozen=True)
class OfflineSize:
    answers: int = 20_000
    rep_seconds: float = 10.0
    setups_per_rep: int = 3


class Offline:
    """The paper's offline inference: EM over the 20k corpus.

    Paper defaults (α = 0.5, F = {f0.1, f10, f100}, at most 100 iterations,
    threshold 0.005).  Set-up builds the answer tensor; timed: the EM run on
    that tensor.  A read-out phase then asks AccOpt, fed the fitted
    parameters, for every worker's next tasks.
    """

    name = "offline"

    def __init__(self, seed: int, size: OfflineSize = OfflineSize()) -> None:
        self.seed = seed
        self.size = size

    def prepare(self) -> None:
        self.dataset, self.pool, _, self.answers = build_inference_corpus(
            self.size.answers, seed=self.seed
        )
        self.tasks_by_id = {task.task_id: task for task in self.dataset.tasks}
        self.workers_by_id = {worker.worker_id: worker for worker in self.pool.workers}

    def cleanup(self) -> None:
        pass

    def _build(self, distance_model):
        return em_kernel.AnswerTensor.build(
            self.answers,
            self.tasks_by_id,
            self.workers_by_id,
            distance_model,
            InferenceConfig().function_set,
        )

    def setup_only(self) -> float:
        distance_model = build_distance_model(self.dataset)
        started = time.perf_counter()
        self._build(distance_model)
        return time.perf_counter() - started

    def repetition(self, recorder=None, paired: bool = True) -> Repetition:
        distance_model = build_distance_model(self.dataset)
        model = LocationAwareInference(
            self.dataset.tasks, self.pool.workers, distance_model, config=InferenceConfig()
        )
        failures: dict[str, str] = {}
        failed = 0
        reset_peak_rss()
        if recorder is not None:
            recorder.install()
        started = time.perf_counter()
        tensor = self._build(distance_model)
        setup_done = time.perf_counter()
        iteration_ends: list[float] = []
        try:
            with _marking_returns(em_kernel, "em_step", iteration_ends):
                model.fit_from_tensor(tensor)
        except Exception as error:  # noqa: BLE001 - counted as a failure
            failed += 1
            failures["fit raised"] = repr(error)
        fit_done = time.perf_counter()
        read_out = None
        if not failures:
            parameters = model.parameters

            def new_assigner():
                assigner = build_assigner(
                    "accopt", self.dataset.tasks, self.pool.workers, distance_model=distance_model
                )
                assigner.update_parameters(parameters)
                return lambda worker_id: assigner.assign(
                    [worker_id], TASKS_PER_REQUEST, self.answers
                ).get(worker_id, ())

            read_out = ReadOut(new_assigner, self.pool.worker_ids, self.answers, paired)
            read_out.run()
        ended = time.perf_counter()
        if recorder is not None:
            recorder.uninstall()
        rss = peak_rss_mb()
        accuracy = float("nan")
        if not failures:
            store = model.last_result.store
            if tensor.num_answers != len(self.answers):
                failures["tensor"] = f"{tensor.num_answers} of {len(self.answers)} answers"
            if not (np.isfinite(store.label_probs).all() and np.isfinite(store.p_qualified).all()):
                failures["finite estimate"] = "non-finite parameters"
            accuracy = accuracy_of(model.parameters, self.dataset.tasks)
        return Repetition(
            setup_s=setup_done - started,
            segments_s=[
                later - earlier
                for earlier, later in zip(
                    [setup_done, *iteration_ends], [*iteration_ends, fit_done]
                )
            ],
            answers=len(self.answers),
            requests=[],
            accuracy=accuracy,
            peak_rss_mb=rss,
            attempted=1,
            failed=failed,
            failures=failures,
            window=(started, ended),
            read_out=read_out,
        )


WORKLOADS = {cls.name: cls for cls in (Stream, Campaign, Offline)}

#: Sizes small enough for the self-test and the per-process warm-up.
TINY_SIZES = {
    "stream": StreamSize(
        answers=800,
        batch_answers=16,
        refresh_interval=200,
        checkpoint_interval=200,
        segment_answers=100,
        setups_per_rep=1,
    ),
    "campaign": CampaignSize(
        tasks=60,
        workers=20,
        budget=300,
        refresh_interval=100,
        segment_rounds=5,
    ),
    "offline": OfflineSize(answers=800, setups_per_rep=1),
}
