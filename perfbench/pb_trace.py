"""Per-layer tracing for the benchmark's traced run.

The program under test carries no benchmark hooks.  Instead, the benchmark
process wraps the program's public calls (the :data:`TARGETS` table) at the
names their callers look up: methods are replaced on their class, and
module-level functions in the namespace that calls them (for example
``trust_scores`` in :mod:`repro.serving.ingest`, which imported it by name,
and ``em_step`` in :mod:`repro.core.em_kernel`, which the inference module
calls as ``em_kernel.em_step``).  A target whose name no longer exists is
skipped and listed as missing, so a change that deletes a layer leaves its
metrics at zero instead of breaking the run.

Every wrapped call records one span: name, start, end, parent span and
thread.  Spans stay in memory and are written out as Chrome ``trace_event``
JSON after the run (open the file in ``chrome://tracing`` or Perfetto).

A span's *self time* is its duration minus the durations of its child spans
(children are always on the span's own thread).  Self times never double
count, so the self times of the main thread's root-to-leaf spans add up to
the time the main thread spent inside the program; :func:`summarize` checks
that this sum reconciles with the traced wall time.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Largest share of the traced wall time the main thread may spend outside
#: every span (the benchmark's own loop: iterating inputs, building events,
#: reading the clock).  A larger gap means the layer table no longer
#: explains the system's wall time.
RECONCILE_TOLERANCE = 0.05


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``span`` names the span (``<layer>.<call>``); ``module`` is where the
    callers look ``attr`` up (``Class.method`` or a function name).  A
    ``generator`` target records one span per ``next()``, so the consumer's
    work between items is not charged to the producer.
    """

    span: str
    module: str
    attr: str
    generator: bool = False


def _is_published(args, result):
    return result is not None


def _assign_info(args, result):
    return (len(result.task_ids), result.snapshot_age_s)


def _sweep_info(args, result):
    return (result.sweeps_run, result.workers_settled + result.tasks_settled)


def _fit_iterations(args, result):
    # fit/fit_from_tensor return the model; run_em_detached the result.
    run = getattr(result, "last_result", result)
    return getattr(run, "iterations", 0)


def _checkpoint_bytes(args, result):
    path = Path(result)
    sidecar = path.with_suffix(".npz.crc")
    size = path.stat().st_size
    return size + (sidecar.stat().st_size if sidecar.exists() else 0)


TARGETS: tuple[Target, ...] = (
    Target("ingest.submit", "repro.serving.ingest", "AnswerIngestor.submit"),
    Target("ingest.flush", "repro.serving.ingest", "AnswerIngestor.flush"),
    Target("pipeline.launch", "repro.serving.pipeline", "RefreshWorker.launch"),
    Target("pipeline.wait", "repro.serving.pipeline", "RefreshWorker.wait"),
    Target("incremental.apply", "repro.core.incremental", "IncrementalUpdater.apply"),
    Target(
        "incremental.full_refresh",
        "repro.core.incremental",
        "IncrementalUpdater.full_refresh",
    ),
    Target(
        "incremental.integrate",
        "repro.core.incremental",
        "IncrementalUpdater.integrate_refresh_result",
    ),
    Target("em.tensor_build", "repro.core.em_kernel", "AnswerTensor.build"),
    Target("em.em_step", "repro.core.em_kernel", "em_step"),
    Target("em.cached_sweeps", "repro.core.em_kernel", "cached_sweeps"),
    Target("em.localized_sweeps", "repro.core.em_kernel", "localized_sweeps"),
    Target("inference.fit", "repro.core.inference", "LocationAwareInference.fit"),
    Target(
        "inference.fit_from_tensor",
        "repro.core.inference",
        "LocationAwareInference.fit_from_tensor",
    ),
    Target(
        "inference.run_em_detached",
        "repro.core.inference",
        "LocationAwareInference.run_em_detached",
    ),
    Target("snapshots.publish", "repro.serving.snapshots", "SnapshotStore.publish"),
    Target(
        "snapshots.publish_delta",
        "repro.serving.snapshots",
        "SnapshotStore.publish_delta",
    ),
    Target("snapshots.as_model", "repro.serving.snapshots", "ParameterSnapshot.as_model"),
    Target("journal.append", "repro.serving.journal", "AnswerJournal.append"),
    Target("journal.replay", "repro.serving.journal", "AnswerJournal.replay", generator=True),
    Target("journal.recover", "repro.serving.journal", "recover_ingestor"),
    Target("checkpoint.save", "repro.serving.snapshots", "CheckpointManager.save"),
    Target("checkpoint.load", "repro.serving.snapshots", "CheckpointManager.load_latest"),
    Target("guard.admit", "repro.serving.guard", "EventGuard.admit"),
    Target("guard.evaluate", "repro.serving.guard", "ReputationTracker.evaluate"),
    Target("guard.trust_scores", "repro.serving.ingest", "trust_scores"),
    Target("frontend.assign", "repro.serving.frontend", "AssignmentFrontend.assign"),
    Target("accopt.assign", "repro.assign.accopt", "AccOptAssigner.assign"),
    Target(
        "accopt.update_parameters",
        "repro.assign.accopt",
        "AccOptAssigner.update_parameters",
    ),
    Target(
        "kernel.answer_accuracy_matrix",
        "repro.core.accuracy_kernel",
        "answer_accuracy_matrix",
    ),
    Target("kernel.marginal_gains", "repro.core.accuracy_kernel", "marginal_gains"),
    Target(
        "kernel.marginal_gains_for_task",
        "repro.core.accuracy_kernel",
        "marginal_gains_for_task",
    ),
    Target("spatial.rows", "repro.assign.accopt", "normalised_distance_matrix"),
    Target("crowd.execute", "repro.crowd.platform", "CrowdPlatform.execute_assignment"),
)

#: What a span keeps from its call's result (computed after the span ends).
_INFO: dict[str, Callable] = {
    "ingest.submit": _is_published,
    "ingest.flush": _is_published,
    "frontend.assign": _assign_info,
    "em.cached_sweeps": _sweep_info,
    "em.localized_sweeps": _sweep_info,
    "inference.fit": _fit_iterations,
    "inference.fit_from_tensor": _fit_iterations,
    "inference.run_em_detached": _fit_iterations,
    "checkpoint.save": _checkpoint_bytes,
}

#: Spans that are time blocked on another thread (the table's wait column).
WAIT_SPANS = ("pipeline.wait",)

#: Layers in table order, named after the program's modules.
LAYERS = (
    "ingest",
    "pipeline",
    "incremental",
    "em",
    "inference",
    "snapshots",
    "journal",
    "checkpoint",
    "guard",
    "frontend",
    "accopt",
    "kernel",
    "spatial",
    "crowd",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "info", "children_s")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.info = None
        self.children_s = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


class SpanRecorder:
    """Collects spans from wrapped calls on any thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._restore: list[Callable[[], None]] = []
        self.missing: list[str] = []
        #: Extra hooks run before a wrapped call, keyed by span name.
        self.before: dict[str, Callable] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.children_s += span.end - span.start

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.span
        info = _INFO.get(name)
        recorder = self

        if target.generator:

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    span = recorder._open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        recorder._close(span)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hook = recorder.before.get(name)
            if hook is not None:
                hook(args)
            span = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(span)
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(target.span)
                continue
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, name):
                self.missing.append(target.span)
                continue
            if isinstance(owner, type):
                raw = owner.__dict__.get(name)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, getattr(owner, name))
            else:
                raw = getattr(owner, name)
                wrapped = self._wrap(target, raw)
            setattr(owner, name, wrapped)
            self._restore.append(_restorer(owner, name, raw))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
        self.before.clear()

    def write_chrome(self, path: Path) -> Path:
        """Write the spans as Chrome ``trace_event`` JSON (times in µs)."""
        if not self.spans:
            return path
        origin = min(span.start for span in self.spans)
        threads: dict[int, int] = {}
        events = []
        for span in self.spans:
            tid = threads.setdefault(span.thread, len(threads))
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": 0,
                    "tid": tid,
                    "args": {"self_us": round(span.self_time * 1e6, 3)},
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
        return path


def _restorer(owner, name, raw):
    def restore() -> None:
        if isinstance(owner, type) and raw is None:
            delattr(owner, name)
        else:
            setattr(owner, name, raw)

    return restore


@dataclass
class LayerRow:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    wait_s: float = 0.0
    background_self_s: float = 0.0


@dataclass
class TraceSummary:
    """Per-layer totals of one traced repetition."""

    layers: dict[str, LayerRow]
    metrics: dict[str, float]
    wall_s: float
    main_self_s: float
    unattributed_frac: float
    quarter_shares: list[dict[str, float]] = field(default_factory=list)
    quarter_walls: list[float] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    @property
    def reconciled(self) -> bool:
        return abs(self.unattributed_frac) <= RECONCILE_TOLERANCE


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of ``values``; 0.0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(
    recorder: SpanRecorder,
    window: tuple[float, float],
    main_thread: int,
    quarter_bounds: list[float] | None = None,
) -> TraceSummary:
    """Aggregate the recorder's spans into the per-layer table and metrics.

    ``window`` is the traced repetition's (start, end) on the main thread;
    ``quarter_bounds`` (stream only) are the start, the three quarter marks
    and the end of its timed phase.
    """
    spans = recorder.spans
    layers = {layer: LayerRow() for layer in LAYERS}
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    for span in spans:
        row = layers.setdefault(span.layer, LayerRow())
        row.calls += 1
        if span.thread == main_thread:
            row.self_s += span.self_time
        else:
            row.background_self_s += span.self_time
        ancestor = span.parent
        while ancestor is not None and ancestor.layer != span.layer:
            ancestor = ancestor.parent
        if ancestor is None:
            # Outermost span of its layer: inclusive time counts once.
            row.inclusive_s += span.duration
    for wait in (span for name in WAIT_SPANS for span in by_name.get(name, [])):
        charged = set()
        ancestor = wait
        while ancestor is not None:
            if ancestor.layer not in charged:
                layers[ancestor.layer].wait_s += wait.duration
                charged.add(ancestor.layer)
            ancestor = ancestor.parent

    start, end = window
    wall = end - start
    main_roots = [
        span
        for span in spans
        if span.thread == main_thread
        and span.parent is None
        and span.start >= start
        and span.end <= end
    ]
    main_self = sum(span.duration for span in main_roots)
    unattributed = (wall - main_self) / wall if wall > 0 else 0.0

    def total(name: str) -> float:
        return sum(span.duration for span in by_name.get(name, []))

    def count(name: str) -> int:
        return len(by_name.get(name, []))

    def self_total(name: str) -> float:
        return sum(span.self_time for span in by_name.get(name, []))

    # Answer-to-visibility: an answer submitted at the start of a submit call
    # is visible once a later (or the same) submit/flush call returns a
    # published snapshot.
    outer_ingest = sorted(
        (
            span
            for span in by_name.get("ingest.submit", []) + by_name.get("ingest.flush", [])
            if span.parent is None or span.parent.layer != "ingest"
        ),
        key=lambda span: span.start,
    )
    visibility: list[float] = []
    pending: list[float] = []
    max_stall = 0.0
    for span in outer_ingest:
        if span.start < start or span.end > end:
            continue
        max_stall = max(max_stall, span.duration)
        if span.name == "ingest.submit":
            pending.append(span.start)
        if span.info:
            visibility.extend(span.end - submitted for submitted in pending)
            pending.clear()

    assigns = by_name.get("frontend.assign", [])
    publishes = count("snapshots.publish") + count("snapshots.publish_delta")
    sweeps = by_name.get("em.cached_sweeps", []) + by_name.get("em.localized_sweeps", [])
    fits = (
        by_name.get("inference.fit", [])
        + by_name.get("inference.fit_from_tensor", [])
        + by_name.get("inference.run_em_detached", [])
    )
    kernels = ("kernel.answer_accuracy_matrix", "kernel.marginal_gains", "kernel.marginal_gains_for_task")
    metrics = {
        "ingest.flush.calls": count("ingest.flush"),
        "ingest.flush.self_s": self_total("ingest.flush"),
        "ingest.visibility_p50_ms": percentile(visibility, 50) * 1000.0,
        "ingest.visibility_p99_ms": percentile(visibility, 99) * 1000.0,
        "ingest.max_stall_ms": max_stall * 1000.0,
        "pipeline.launches": count("pipeline.launch"),
        "pipeline.wait_s": total("pipeline.wait"),
        "incremental.apply.s": total("incremental.apply"),
        "incremental.integrate.s": total("incremental.integrate"),
        "em.tensor_build.s": total("em.tensor_build"),
        "em.em_step.calls": count("em.em_step"),
        "em.em_step.s": total("em.em_step"),
        "em.sweeps.s": sum(span.duration for span in sweeps),
        "em.sweeps_run": sum(span.info[0] for span in sweeps if span.info),
        "em.entities_settled": sum(span.info[1] for span in sweeps if span.info),
        "inference.fits": len(fits),
        "inference.fit.s": sum(span.duration for span in fits),
        "inference.iterations": sum(span.info or 0 for span in fits),
        "snapshots.publish.calls": publishes,
        "snapshots.delta_frac": count("snapshots.publish_delta") / publishes if publishes else 0.0,
        "snapshots.publish.s": total("snapshots.publish") + total("snapshots.publish_delta"),
        "snapshots.as_model.calls": count("snapshots.as_model"),
        "snapshots.as_model.s": total("snapshots.as_model"),
        "journal.append.s": total("journal.append"),
        "journal.replay.s": total("journal.replay"),
        "journal.recover.s": total("journal.recover"),
        "checkpoint.save.s": total("checkpoint.save"),
        "checkpoint.bytes": sum(span.info or 0 for span in by_name.get("checkpoint.save", [])),
        "checkpoint.load.s": total("checkpoint.load"),
        "guard.admit.s": total("guard.admit"),
        "guard.evaluate.s": total("guard.evaluate"),
        "guard.trust_scores.s": total("guard.trust_scores"),
        "frontend.assign.calls": len(assigns),
        "frontend.assign.self_s": self_total("frontend.assign"),
        "frontend.empty_frac": (
            sum(1 for span in assigns if span.info and span.info[0] == 0) / len(assigns)
            if assigns
            else 0.0
        ),
        "frontend.snapshot_age_ms": (
            statistics.median(span.info[1] for span in assigns if span.info) * 1000.0
            if assigns
            else 0.0
        ),
        "accopt.assign.s": total("accopt.assign"),
        "kernel.calls": sum(count(name) for name in kernels),
        "kernel.s": sum(total(name) for name in kernels),
        "spatial.rows.calls": count("spatial.rows"),
        "spatial.rows.s": total("spatial.rows"),
        "crowd.s": total("crowd.execute"),
    }

    shares: list[dict[str, float]] = []
    walls: list[float] = []
    if quarter_bounds:
        bounds = quarter_bounds
        self_by_quarter = [dict.fromkeys(layers, 0.0) for _ in range(len(bounds) - 1)]
        for span in spans:
            if span.thread != main_thread or not bounds[0] <= span.start <= bounds[-1]:
                continue
            quarter = min(len(bounds) - 2, max(0, bisect.bisect_right(bounds, span.start) - 1))
            self_by_quarter[quarter][span.layer] += span.self_time
        for quarter, totals in enumerate(self_by_quarter):
            quarter_wall = bounds[quarter + 1] - bounds[quarter]
            walls.append(quarter_wall)
            shares.append(
                {layer: value / quarter_wall for layer, value in totals.items()}
                if quarter_wall > 0
                else dict.fromkeys(totals, 0.0)
            )

    return TraceSummary(
        layers=layers,
        metrics={name: float(value) for name, value in metrics.items()},
        wall_s=wall,
        main_self_s=main_self,
        unattributed_frac=unattributed,
        quarter_shares=shares,
        quarter_walls=walls,
        missing=list(recorder.missing),
    )


def render(summary: TraceSummary, overhead_s: float) -> str:
    """The human-readable per-layer table printed by a traced run."""
    lines = [
        f"{'layer':<12}{'calls':>9}{'incl_s':>10}{'self_s':>10}{'wait_s':>10}{'bg_self_s':>11}",
    ]
    for layer, row in summary.layers.items():
        lines.append(
            f"{layer:<12}{row.calls:>9}{row.inclusive_s:>10.4f}{row.self_s:>10.4f}"
            f"{row.wait_s:>10.4f}{row.background_self_s:>11.4f}"
        )
    lines.append(
        f"traced wall {summary.wall_s:.4f} s; main-thread spans {summary.main_self_s:.4f} s; "
        f"unattributed {summary.unattributed_frac:+.2%} (tolerance "
        f"±{RECONCILE_TOLERANCE:.0%}: {'ok' if summary.reconciled else 'FAILED'}); "
        f"tracing overhead {overhead_s:+.4f} s"
    )
    if summary.missing:
        lines.append("targets not found (layer metrics read 0): " + ", ".join(summary.missing))
    if summary.quarter_shares:
        header = "".join(f"{'Q' + str(q + 1):>8}" for q in range(len(summary.quarter_shares)))
        lines.append("main-thread self-time share per quarter of the timed stream")
        lines.append(f"{'layer':<12}{header}")
        for layer in summary.layers:
            values = "".join(f"{shares[layer]:>8.3f}" for shares in summary.quarter_shares)
            lines.append(f"{layer:<12}{values}")
        unattributed = "".join(
            f"{1.0 - sum(shares.values()):>8.3f}" for shares in summary.quarter_shares
        )
        lines.append(f"{'(other)':<12}{unattributed}")
        walls = "".join(f"{wall:>8.3f}" for wall in summary.quarter_walls)
        lines.append(f"{'wall_s':<12}{walls}")
    return "\n".join(lines)
