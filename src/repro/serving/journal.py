"""Segmented, checksummed write-ahead journal of accepted answer events.

The serving stack's durability root: :class:`AnswerJournal` appends every
accepted :class:`~repro.serving.ingest.AnswerEvent` — answer, arrival time and
any first-sight worker/task payload — to disk *before* the event is buffered
or applied, so a crash at any later point can lose nothing that was
acknowledged.  The format is deliberately boring and inspectable:

* one record per line: ``<crc32-hex> <compact-json>\\n``, the CRC taken over
  the JSON bytes so any torn or rotten record is detected on read;
* records carry a strictly increasing ``seq`` (1-based), the journal's global
  position — checkpoints reference the ``seq`` they cover and replay resumes
  right after it;
* segments named ``segment-<first-seq>.wal`` rotate every
  ``max_segment_records`` appends; :meth:`AnswerJournal.truncate_covered`
  deletes closed segments wholly covered by a persisted checkpoint, bounding
  journal disk usage to roughly one checkpoint interval.

Failure tolerance follows write-ahead-log convention: a **torn tail** (the
final record of the final segment cut short by a crash mid-write) is
expected, detected, dropped and truncated away on reopen; a bad record
anywhere *else* means real corruption and raises
:class:`~repro.serving.JournalCorruptionError` rather than silently replaying
a damaged history.

:func:`recover_ingestor` is the crash-recovery entry point built on top: load
the newest valid checkpoint, rebuild the live inference/updater state
bit-for-bit, then replay the journal tail through the ordinary micro-batching
code path so the recovered run continues exactly where the crashed one left
off.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.data.io import (
    task_from_entry,
    task_to_entry,
    worker_from_entry,
    worker_to_entry,
)
from repro.data.models import Answer, AnswerSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.inference import LocationAwareInference
    from repro.obs.metrics import Histogram, MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.serving.faults import FaultInjector
    from repro.serving.guard import EventGuard, ReputationTracker
    from repro.serving.ingest import AnswerEvent, AnswerIngestor, IngestConfig
    from repro.serving.snapshots import SnapshotStore

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".wal"


def _encode_record(seq: int, event: "AnswerEvent") -> bytes:
    record = {
        "seq": seq,
        "time": event.time,
        "answer": {
            "worker_id": event.answer.worker_id,
            "task_id": event.answer.task_id,
            "responses": list(event.answer.responses),
        },
        "worker": None if event.worker is None else worker_to_entry(event.worker),
        "task": None if event.task is None else task_to_entry(event.task),
    }
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def _record_payload(line: bytes) -> bytes | None:
    """One journal line's JSON payload; ``None`` if it is torn or fails its CRC."""
    if not line.endswith(b"\n"):
        return None
    body = line[:-1]
    if len(body) < 10 or body[8:9] != b" ":
        return None
    payload = body[9:]
    try:
        crc = int(body[:8], 16)
    except ValueError:
        return None
    return payload if zlib.crc32(payload) == crc else None


def _decode_record(payload: bytes) -> tuple[int, "AnswerEvent"] | None:
    """Parse one CRC-checked payload; ``None`` means it is not a valid record."""
    from repro.serving.ingest import AnswerEvent

    try:
        record = json.loads(payload)
        answer_entry = record["answer"]
        answer = Answer(
            worker_id=answer_entry["worker_id"],
            task_id=answer_entry["task_id"],
            responses=tuple(int(v) for v in answer_entry["responses"]),
        )
        event = AnswerEvent(
            answer=answer,
            time=float(record["time"]),
            worker=(
                None
                if record.get("worker") is None
                else worker_from_entry(record["worker"])
            ),
            task=(
                None
                if record.get("task") is None
                else task_from_entry(record["task"])
            ),
        )
        return int(record["seq"]), event
    except (KeyError, TypeError, ValueError):
        return None


@dataclass
class JournalStats:
    """Counters of one :class:`AnswerJournal` instance."""

    appends: int = 0
    segments_created: int = 0
    segments_truncated: int = 0
    torn_records_dropped: int = 0
    torn_bytes_truncated: int = 0


class AnswerJournal:
    """Append-before-apply event journal over rotating checksummed segments.

    A record's seq is its segment's first seq plus its line position
    (segments are named by their first seq, and :meth:`continue_after` only
    jumps ahead across a segment boundary).  Opening a directory that
    already holds segments checks every record's framing and CRC without
    decoding it, and takes :attr:`last_seq` from those positions: the last
    record of the last segment may be torn (it is dropped and the file
    truncated back to the last whole record — the crashed write never
    happened), while a damaged record anywhere else raises
    :class:`~repro.serving.JournalCorruptionError`.  ``fsync=True`` makes
    every append durable against OS crashes at the usual cost; the default
    flushes to the OS only, which survives process death (the chaos suite's
    crash model).
    """

    def __init__(
        self,
        directory: str | Path,
        max_segment_records: int = 1024,
        fsync: bool = False,
    ) -> None:
        if max_segment_records <= 0:
            raise ValueError(
                f"max_segment_records must be positive, got {max_segment_records}"
            )
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._max_segment_records = max_segment_records
        self._fsync = fsync
        self._stats = JournalStats()
        self._handle = None
        self._current_segment: Path | None = None
        self._current_records = 0
        self._last_seq = 0
        self._metrics: "MetricsRegistry | None" = None
        self._append_seconds: "Histogram | None" = None
        self._recover_existing()

    # ------------------------------------------------------------------ state
    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def stats(self) -> JournalStats:
        return self._stats

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable record (0 when empty)."""
        return self._last_seq

    @property
    def first_seq(self) -> int:
        """First sequence number of the oldest retained segment (0 when none)."""
        segments = self.segment_paths()
        return self._segment_first_seq(segments[0]) if segments else 0

    def bind_metrics(self, metrics: "MetricsRegistry") -> None:
        """Record per-append durability time (flush + fsync) and rotations.

        The append-seconds series is labelled with the fsync policy so a
        fleet roll-up can tell durable and OS-buffered writers apart.
        """
        self._metrics = metrics
        self._append_seconds = metrics.histogram(
            "journal_append_seconds", fsync="on" if self._fsync else "off"
        )

    def segment_paths(self) -> list[Path]:
        """Existing segment files, oldest first."""
        return sorted(
            path
            for path in self._directory.iterdir()
            if path.name.startswith(SEGMENT_PREFIX)
            and path.name.endswith(SEGMENT_SUFFIX)
        )

    # ----------------------------------------------------------------- intake
    def append(self, event: "AnswerEvent") -> int:
        """Durably append ``event`` and return its sequence number."""
        seq = self._last_seq + 1
        if self._handle is None or self._current_records >= self._max_segment_records:
            self._open_segment(first_seq=seq)
        line = _encode_record(seq, event)
        started = time.perf_counter() if self._append_seconds is not None else 0.0
        self._handle.write(line)
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        if self._append_seconds is not None:
            self._append_seconds.observe(time.perf_counter() - started)
        self._last_seq = seq
        self._current_records += 1
        self._stats.appends += 1
        return seq

    def continue_after(self, seq: int) -> None:
        """Number the next record ``seq + 1``, in a fresh segment.

        For a journal restarted behind a checkpoint covering ``seq``, whose
        records would otherwise never replay.  A journal never renumbers
        backwards: ``seq`` below :attr:`last_seq` raises ``ValueError``.
        """
        if seq < self._last_seq:
            raise ValueError(
                f"cannot renumber the journal backwards: it holds seq "
                f"{self._last_seq}, asked to continue after {seq}"
            )
        if seq > self._last_seq:
            self.close()  # the next append opens a segment named by its seq
            self._last_seq = seq

    def truncate_covered(self, seq: int) -> int:
        """Delete closed segments whose every record has ``seq`` ≤ the cover.

        Called after a checkpoint covering ``seq`` is durably persisted; the
        active segment is never deleted (it is still being appended to).
        Returns the number of segments removed.
        """
        removed = 0
        segments = self.segment_paths()
        for index, path in enumerate(segments):
            if path == self._current_segment:
                continue
            # A closed segment's records end right before the next segment's
            # first seq (segments are named by their first record's seq).
            if index + 1 < len(segments):
                last_in_segment = self._segment_first_seq(segments[index + 1]) - 1
            else:
                last_in_segment = self._last_seq
            if last_in_segment <= seq:
                path.unlink()
                removed += 1
                self._stats.segments_truncated += 1
        return removed

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ----------------------------------------------------------------- replay
    def replay(self, after: int = 0) -> Iterator[tuple[int, "AnswerEvent"]]:
        """Yield ``(seq, event)`` for every durable record with seq > ``after``.

        Only those records are decoded; segments wholly at or below
        ``after`` are not read at all.  Records are validated as they
        stream: a torn final record is dropped (it was never acknowledged as
        durable by :meth:`append` semantics), while a damaged record followed
        by more data, or one whose seq disagrees with its position, raises
        :class:`~repro.serving.JournalCorruptionError`.
        """
        from repro.serving import JournalCorruptionError

        segments = self.segment_paths()
        firsts = [self._segment_first_seq(path) for path in segments]
        for segment_index, (path, first) in enumerate(zip(segments, firsts)):
            last_segment = segment_index == len(segments) - 1
            if not last_segment and firsts[segment_index + 1] - 1 <= after:
                continue  # every record here has seq <= after
            with open(path, "rb") as handle:
                lines = handle.readlines()
            for line_index in range(max(0, after + 1 - first), len(lines)):
                payload = _record_payload(lines[line_index])
                decoded = None if payload is None else _decode_record(payload)
                if decoded is None:
                    if last_segment and line_index == len(lines) - 1:
                        self._stats.torn_records_dropped += 1
                        return
                    raise JournalCorruptionError(
                        f"journal segment {path.name} record {line_index + 1} "
                        "failed its checksum with more data following it — the "
                        "journal history is corrupt past this point. Restore "
                        "the segment from a replica or delete the journal "
                        "directory to restart from the newest checkpoint "
                        "(losing the events after it)."
                    )
                seq, event = decoded
                if seq != first + line_index:
                    raise JournalCorruptionError(
                        f"journal segment {path.name} record {line_index + 1} "
                        f"holds seq {seq} where its position says "
                        f"{first + line_index} — the segment was renamed or "
                        "spliced. Restore it from a replica or delete the "
                        "journal directory to restart from the newest "
                        "checkpoint (losing the events after it)."
                    )
                yield seq, event

    # --------------------------------------------------------------- internal
    @staticmethod
    def _segment_first_seq(path: Path) -> int:
        return int(path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])

    def _open_segment(self, first_seq: int) -> None:
        if self._handle is not None:
            self._handle.close()
        self._current_segment = (
            self._directory / f"{SEGMENT_PREFIX}{first_seq:010d}{SEGMENT_SUFFIX}"
        )
        self._handle = open(self._current_segment, "ab")
        self._current_records = 0
        self._stats.segments_created += 1
        if self._metrics is not None:
            self._metrics.counter("journal_segments_created_total").inc()

    def _recover_existing(self) -> None:
        """Scan pre-existing segments: find the tail, drop a torn final record.

        Records are checked (framing and CRC) but not decoded: a record's
        seq follows from its position, so the tail is the last segment's
        first seq plus its record count, minus one.  (An empty last segment
        was opened for the seq its name gives, so numbering continues right
        before it.)
        """
        from repro.serving import JournalCorruptionError

        segments = self.segment_paths()
        for segment_index, path in enumerate(segments):
            last_segment = segment_index == len(segments) - 1
            with open(path, "rb") as handle:
                lines = handle.readlines()
            valid_bytes = 0
            records = 0
            for line_index, line in enumerate(lines):
                if _record_payload(line) is None:
                    if last_segment and line_index == len(lines) - 1:
                        torn = sum(len(l) for l in lines[line_index:])
                        with open(path, "r+b") as handle:
                            handle.truncate(valid_bytes)
                        self._stats.torn_records_dropped += 1
                        self._stats.torn_bytes_truncated += torn
                        break
                    raise JournalCorruptionError(
                        f"journal segment {path.name} record {line_index + 1} "
                        "failed its checksum with more data following it — "
                        "refusing to append to a corrupt journal. Restore the "
                        "segment from a replica or delete the journal "
                        "directory to restart from the newest checkpoint."
                    )
                valid_bytes += len(line)
                records += 1
            if last_segment:
                self._last_seq = self._segment_first_seq(path) + records - 1
                # Reopen the tail segment for appending (unless full).
                self._current_segment = path
                self._current_records = records
                if records < self._max_segment_records:
                    self._handle = open(path, "ab")


@dataclass
class RecoveryReport:
    """What :func:`recover_ingestor` found and rebuilt."""

    #: Journal seq the restored checkpoint covered (0 on a cold start).
    checkpoint_seq: int = 0
    #: Snapshot version restored from the checkpoint (None on a cold start).
    checkpoint_version: int | None = None
    #: Answer rows restored from the checkpoint's answer columns.
    checkpoint_answers: int = 0
    #: Corrupt checkpoint files skipped while searching for a valid one.
    corrupt_checkpoints_skipped: int = 0
    #: Journal events replayed through the ingestion path after the checkpoint.
    replayed_events: int = 0
    #: Whether the journal tail had a torn (dropped) final record.
    torn_tail: bool = False
    #: True when no usable checkpoint existed (full journal replay from zero).
    cold_start: bool = False

    def summary(self) -> str:
        if self.cold_start:
            head = "recovery: cold start (no usable checkpoint)"
        else:
            head = (
                f"recovery: checkpoint @ seq {self.checkpoint_seq} "
                f"(snapshot v{self.checkpoint_version}, "
                f"{self.checkpoint_answers} answers)"
            )
        tail = f", replayed {self.replayed_events} journal events"
        if self.corrupt_checkpoints_skipped:
            tail += f", skipped {self.corrupt_checkpoints_skipped} corrupt checkpoints"
        if self.torn_tail:
            tail += ", dropped a torn journal tail"
        return head + tail


def recover_ingestor(
    state_dir: str | Path,
    *,
    inference: "LocationAwareInference",
    snapshots: "SnapshotStore",
    ingest_config: "IngestConfig | None" = None,
    answers: AnswerSet | None = None,
    guard: "EventGuard | None" = None,
    faults: "FaultInjector | None" = None,
    journal_fsync: bool = False,
    journal_segment_records: int = 1024,
    tracer: "Tracer | None" = None,
    reputation: "ReputationTracker | None" = None,
) -> tuple["AnswerIngestor", RecoveryReport]:
    """Rebuild a crashed serving session's ingestion state from ``state_dir``.

    ``inference`` must be a freshly built model over the *startup* universe
    (the same one the crashed run started with): checkpoints hold only the
    entities learned after startup, plus a digest of the startup universe,
    and a model over any other universe raises
    :class:`~repro.serving.StartupUniverseError` before anything is replayed.
    The returned ingestor is fully wired to the state directory's journal and
    checkpoint manager, so the resumed session keeps journaling/checkpointing
    from where the crashed one stopped.

    Recovery sequence: newest valid checkpoint (corrupt ones are skipped;
    its columns are checked against the startup universe plus its learned
    entities) → re-register the learned entities → warm-start the estimate
    from the checkpointed store → adopt the checkpoint's answer columns as
    the live tensor (bit-equal to the crashed run's) and gather the live
    store → replay the journal tail through the ordinary micro-batch path,
    decoding only the records after the checkpoint.  The resulting live
    store matches an uncrashed run over the same event stream to ≤1e-9.
    Work is O(learned entities) for the checkpoint's metadata and O(journal
    tail) for the replay; the answer columns are adopted as arrays.

    Raises :class:`~repro.serving.JournalCorruptionError` when the journal's
    oldest retained record is past the restored checkpoint's seq + 1: the
    segments in between were truncated behind checkpoints that no longer
    load, so replay would silently drop acknowledged answers.  A journal
    that ends before the checkpoint's seq (its directory was deleted, as
    those errors advise) continues numbering after the checkpoint.
    ``journal_fsync`` applies to the journal and the checkpoints alike.
    """
    from repro.serving import JournalCorruptionError
    from repro.serving.ingest import AnswerIngestor
    from repro.serving.snapshots import CheckpointManager, ParameterSnapshot

    state_dir = Path(state_dir)
    report = RecoveryReport()
    checkpoints = CheckpointManager(state_dir / "checkpoints", fsync=journal_fsync)
    state, skipped = checkpoints.load_latest(inference)
    report.corrupt_checkpoints_skipped = skipped
    covered = state.journal_seq if state is not None else 0
    journal = AnswerJournal(
        state_dir / "journal",
        max_segment_records=journal_segment_records,
        fsync=journal_fsync,
    )
    if journal.first_seq > covered + 1:
        journal.close()
        raise JournalCorruptionError(
            f"the journal starts at seq {journal.first_seq}, but the newest "
            f"usable checkpoint covers seq {covered} ({skipped} corrupt "
            "checkpoints skipped): the records in between were truncated "
            "behind checkpoints that no longer load. Restore a checkpoint or "
            "the missing journal segments from a replica."
        )
    if journal.last_seq < covered:
        # The journal restarted behind the checkpoint: new records must not
        # reuse the seqs it covers, or the next recovery would skip them.
        journal.continue_after(covered)

    if state is not None:
        for worker in state.workers:
            inference.add_worker(worker)
        for task in state.tasks:
            inference.add_task(task)
        inference.warm_start(state.store)
        snapshots.adopt(
            ParameterSnapshot(
                version=state.snapshot_version,
                store=state.store.copy().freeze(),
                published_at=state.published_at,
                source="restore",
            )
        )
        report.checkpoint_seq = state.journal_seq
        report.checkpoint_version = state.snapshot_version
        report.checkpoint_answers = state.columns.num_answers
    else:
        report.cold_start = True

    ingestor = AnswerIngestor(
        inference,
        snapshots,
        config=ingest_config,
        answers=answers,
        journal=journal,
        guard=guard,
        faults=faults,
        checkpoints=checkpoints,
        tracer=tracer,
        reputation=reputation,
    )
    if state is not None:
        ingestor.restore(state)
    for seq, event in journal.replay(after=report.checkpoint_seq):
        ingestor.replay_event(seq, event)
        report.replayed_events += 1
    report.torn_tail = journal.stats.torn_records_dropped > 0
    return ingestor, report
