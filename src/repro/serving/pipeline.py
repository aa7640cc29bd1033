"""Background refresh worker for the pipelined serving loop.

The blocking serving loop runs the periodic full EM re-fit inline on the
ingest thread, stalling every batch (and every publish) behind tens of EM
iterations.  The pipelined loop instead hands the fit to a
:class:`RefreshWorker` — a single daemon thread fitting a frozen
:meth:`~repro.core.em_kernel.AnswerTensor.snapshot` of the live tensor via
:meth:`~repro.core.inference.LocationAwareInference.run_em_detached` — while
the ingest thread keeps appending, sweeping and publishing.  The EM
kernels are NumPy-bound, so the fit releases the GIL for the bulk of its
work and genuinely overlaps the ingest thread.

Determinism is the design constraint: the serving stack's crash-recovery
contract replays a journal through the exact same batching code path and
expects bit-equal state, so nothing about a refresh may depend on wall
clock or thread timing.  The worker therefore never *signals* completion
into the pipeline — the ingest loop launches at a fixed applied-answer
count (the refresh-interval trip), integrates at a fixed count (launch
watermark + configured lag), and *waits* there if the fit is still running.
The only nondeterministic quantity is how long that wait takes, which is
recorded as the ``refresh_wait`` stage and is zero when the stream out-runs
the fit.

A :class:`PendingRefresh` rides along between launch and integration,
accumulating the entities touched by every batch applied mid-fit; the
updater replays exactly those as localized sweeps against the fresh store
before it is atomically published (see
:meth:`~repro.core.incremental.IncrementalUpdater.integrate_refresh_result`).

Failure semantics mirror the blocking path: an ordinary exception inside
the fit is captured and surfaced at integration as a counted, non-fatal
refresh failure (the stream kept serving incrementally; the next interval
retries), while a :class:`~repro.serving.faults.SimulatedCrash` — injected
at the ``"refresh.background"`` check point inside the worker body — is
re-raised on the ingest thread so chaos tests exercise process death during
an overlapped refresh.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.inference import InferenceResult
    from repro.data.models import Answer


@dataclass
class RefreshOutcome:
    """What a background fit produced: a result or the exception that killed it."""

    result: "InferenceResult | None"
    error: BaseException | None
    fit_seconds: float


@dataclass
class PendingRefresh:
    """Book-keeping for one in-flight background refresh.

    ``answers_since_launch`` drives the deterministic integration point;
    ``reconcile_workers`` / ``reconcile_tasks`` accumulate the entities of
    every batch applied while the fit runs, i.e. exactly the neighbourhood
    the fitted store must replay before it may serve.
    """

    #: Applied answers at launch (the snapshot covers exactly these).
    watermark_answers: int
    #: Warm start flag the fit was launched with (report/debugging only).
    warm: bool
    answers_since_launch: int = 0
    reconcile_workers: set[str] = field(default_factory=set)
    reconcile_tasks: set[str] = field(default_factory=set)

    def note_batch(self, new_answers: "list[Answer]") -> None:
        """Record a batch applied while the refresh is in flight."""
        self.answers_since_launch += len(new_answers)
        for answer in new_answers:
            self.reconcile_workers.add(answer.worker_id)
            self.reconcile_tasks.add(answer.task_id)


class RefreshWorker:
    """Runs one detached EM fit at a time on a daemon thread.

    The thread body captures *every* exception — including
    :class:`BaseException` subclasses such as
    :class:`~repro.serving.faults.SimulatedCrash` — into the
    :class:`RefreshOutcome`, so a failure never dies silently on a
    background thread: the ingest loop re-raises or counts it at the
    integration point, on its own thread, deterministically.
    """

    def __init__(self, name: str = "serving-refresh") -> None:
        self._name = name
        self._thread: threading.Thread | None = None
        self._done = threading.Event()
        self._outcome: RefreshOutcome | None = None
        self._launches = 0

    @property
    def in_flight(self) -> bool:
        """Whether a fit has been launched and not yet collected."""
        return self._thread is not None

    @property
    def launches(self) -> int:
        """Fits launched over this worker's lifetime."""
        return self._launches

    def launch(self, fit: "Callable[[], InferenceResult]") -> None:
        """Start ``fit`` on the background thread.

        One fit at a time: launching while a previous fit is uncollected is
        a pipeline sequencing bug and raises.
        """
        if self._thread is not None:
            raise RuntimeError(
                "a background refresh is already in flight; wait() for it "
                "before launching another"
            )
        self._done.clear()
        self._outcome = None
        self._launches += 1

        def _run() -> None:
            started = time.perf_counter()
            try:
                result = fit()
                outcome = RefreshOutcome(
                    result=result,
                    error=None,
                    fit_seconds=time.perf_counter() - started,
                )
            except BaseException as exc:  # noqa: BLE001 - relayed, not handled
                outcome = RefreshOutcome(
                    result=None,
                    error=exc,
                    fit_seconds=time.perf_counter() - started,
                )
            self._outcome = outcome
            self._done.set()

        thread = threading.Thread(target=_run, name=self._name, daemon=True)
        self._thread = thread
        thread.start()

    def wait(self) -> RefreshOutcome:
        """Block until the in-flight fit finishes and return its outcome.

        Joins and releases the thread; the worker is ready for the next
        :meth:`launch` afterwards.
        """
        thread = self._thread
        if thread is None:
            raise RuntimeError("no background refresh is in flight")
        self._done.wait()
        thread.join()
        self._thread = None
        outcome = self._outcome
        self._outcome = None
        return outcome

    def close(self) -> RefreshOutcome | None:
        """Drain an in-flight fit (if any) without integrating it.

        Used at service shutdown so the daemon thread never outlives the
        state it reads.  Returns the discarded outcome, or ``None`` when
        nothing was in flight.
        """
        if self._thread is None:
            return None
        return self.wait()
