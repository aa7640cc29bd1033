"""Command-line interface for the reproduction.

Six subcommands cover the typical workflow without writing any Python:

* ``repro-poi generate``  — generate a synthetic dataset (Beijing / China /
  custom-sized) and write it to JSON.
* ``repro-poi collect``   — simulate a Deployment-1 collection (N answers per
  task) over a dataset and write the answer log to JSON.
* ``repro-poi infer``     — run MV / EM / IM on a dataset + answer log and
  report the labelling accuracy of each requested method.
* ``repro-poi campaign``  — run the full online framework (Deployment 2) with a
  chosen assignment strategy and report the accuracy trajectory.
* ``repro-poi serve-sim`` — replay a simulated workload through the online
  serving subsystem (streaming ingestion, versioned snapshots, live
  assignment) and report ingestion/assignment statistics; the
  ``--holdback-workers`` / ``--holdback-tasks`` flags withhold part of the
  universe at startup and admit it mid-stream (open-world arrival).
* ``repro-poi compare``   — run the online framework once per assignment
  strategy (optionally fanned out over a process pool with ``--jobs``) and
  report the accuracy series side by side.

Example::

    repro-poi generate --dataset beijing --out beijing.json
    repro-poi collect  --dataset-file beijing.json --answers-per-task 5 --out answers.json
    repro-poi infer    --dataset-file beijing.json --answers-file answers.json --methods MV EM IM
    repro-poi campaign --dataset-file beijing.json --budget 300 --assigner accopt
    repro-poi serve-sim --dataset-file beijing.json --budget 300 --holdback-workers 0.3
    repro-poi compare  --dataset-file beijing.json --budget 300 --jobs 3
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.assign import ACCOPT_ENGINES, ASSIGNER_NAMES, build_assigner
from repro.baselines.dawid_skene import DawidSkeneInference
from repro.baselines.majority_vote import MajorityVoteInference
from repro.core.inference import LocationAwareInference
from repro.crowd.worker_pool import WorkerPoolSpec
from repro.data.generators import (
    DatasetSpec,
    generate_beijing_dataset,
    generate_china_dataset,
    generate_dataset,
)
from repro.data.io import load_answers, load_dataset, save_answers, save_dataset
from repro.framework.config import FrameworkConfig
from repro.framework.experiment import build_platform, build_worker_pool
from repro.framework.framework import PoiLabellingFramework
from repro.framework.scenarios import SCENARIO_NAMES
from repro.framework.metrics import labelling_accuracy
from repro.serving import IngestConfig, OnlineServingService, ServingConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-poi",
        description="Crowdsourced POI labelling (ICDE 2016) reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument(
        "--dataset", choices=("beijing", "china", "synthetic"), default="beijing"
    )
    generate.add_argument("--num-tasks", type=int, default=200,
                          help="task count for --dataset synthetic")
    generate.add_argument("--labels-per-task", type=int, default=10)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True, help="output JSON path")

    collect = subparsers.add_parser(
        "collect", help="simulate a batch answer collection (Deployment 1)"
    )
    collect.add_argument("--dataset-file", required=True)
    collect.add_argument("--answers-per-task", type=int, default=5)
    collect.add_argument("--num-workers", type=int, default=60)
    collect.add_argument("--seed", type=int, default=42)
    collect.add_argument("--out", required=True, help="output JSON path for answers")

    infer = subparsers.add_parser("infer", help="run inference methods on an answer log")
    infer.add_argument("--dataset-file", required=True)
    infer.add_argument("--answers-file", required=True)
    infer.add_argument(
        "--methods", nargs="+", choices=("MV", "EM", "IM"), default=["MV", "EM", "IM"]
    )
    infer.add_argument("--num-workers", type=int, default=60,
                       help="size of the simulated worker pool used for IM's worker registry")
    infer.add_argument("--seed", type=int, default=42)

    campaign = subparsers.add_parser(
        "campaign", help="run the full online framework (Deployment 2)"
    )
    campaign.add_argument("--dataset-file", required=True)
    campaign.add_argument("--budget", type=int, default=300)
    campaign.add_argument("--tasks-per-worker", type=int, default=2)
    campaign.add_argument("--workers-per-round", type=int, default=5)
    campaign.add_argument("--num-workers", type=int, default=60)
    campaign.add_argument(
        "--assigner",
        choices=ASSIGNER_NAMES,
        default="accopt",
    )
    campaign.add_argument(
        "--assigner-engine",
        choices=ACCOPT_ENGINES,
        default="vectorized",
        help="AccOpt ΔAcc scoring layout: dense batched kernels or the "
             "candidate-pruned sparse path",
    )
    campaign.add_argument(
        "--candidate-radius",
        type=float,
        default=None,
        help="candidate radius (raw coordinate units) for "
             "--assigner-engine sparse; omitted keeps the dense path",
    )
    campaign.add_argument("--seed", type=int, default=42)

    serve = subparsers.add_parser(
        "serve-sim",
        help="replay a simulated workload through the online serving subsystem",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Crash recovery:\n"
            "  With --state-dir DIR every accepted answer is appended to a\n"
            "  checksummed write-ahead journal in DIR/journal before it is\n"
            "  applied, and (with --checkpoint-interval N > 0) the live model\n"
            "  state is checkpointed to DIR/checkpoints every N applied\n"
            "  answers; each checkpoint truncates the journal segments it\n"
            "  covers.  After a crash, rerun the same command with --resume:\n"
            "  the newest valid checkpoint is loaded (corrupt ones are\n"
            "  skipped), the journal tail is replayed through the ordinary\n"
            "  ingestion path (a torn final record is dropped), and serving\n"
            "  continues with a live estimate matching the uncrashed run.\n"
            "  Use the same --seed so the regenerated workload matches the\n"
            "  crashed session's."
        ),
    )
    serve.add_argument("--dataset-file", default=None,
                       help="dataset JSON; omitted -> a synthetic dataset is generated")
    serve.add_argument(
        "--scenario",
        choices=SCENARIO_NAMES,
        default=None,
        help="hostile-stream preset: generates the workload (pool, drift, "
             "arrivals) and turns on the reputation tracker; incompatible "
             "with --dataset-file",
    )
    serve.add_argument("--num-tasks", type=int, default=None,
                       help="task count when generating a synthetic dataset "
                            "(default 100, or the scenario's own default)")
    serve.add_argument("--budget", type=int, default=None,
                       help="assignment budget (default 300, or the "
                            "scenario's own default)")
    serve.add_argument("--tasks-per-worker", type=int, default=2)
    serve.add_argument("--workers-per-round", type=int, default=5)
    serve.add_argument("--num-workers", type=int, default=None,
                       help="worker pool size (default 60, or the scenario's "
                            "own default)")
    serve.add_argument("--stat-decay", type=float, default=None,
                       help="per-epoch exponential decay of the EM sufficient "
                            "statistics in (0, 1]; 1.0 = exact (default), "
                            "<1 forgets stale evidence; scenarios may set "
                            "their own default (drift uses 0.98)")
    serve.add_argument("--assigner", choices=ASSIGNER_NAMES, default="accopt")
    serve.add_argument(
        "--assigner-engine",
        choices=ACCOPT_ENGINES,
        default="vectorized",
        help="AccOpt ΔAcc scoring layout: dense batched kernels or the "
             "candidate-pruned sparse path",
    )
    serve.add_argument(
        "--candidate-radius",
        type=float,
        default=None,
        help="candidate radius (raw coordinate units) for "
             "--assigner-engine sparse; omitted keeps the dense path",
    )
    serve.add_argument("--batch-answers", type=int, default=32,
                       help="micro-batch size (count trigger) of the ingestion layer")
    serve.add_argument("--batch-delay", type=float, default=5.0,
                       help="micro-batch window in simulated seconds (time trigger)")
    serve.add_argument("--full-refresh-interval", type=int, default=200,
                       help="answers between full EM re-fits")
    serve.add_argument("--pipeline", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="overlap full EM re-fits with ingest on a background "
                            "thread (--no-pipeline restores the blocking serial "
                            "loop)")
    serve.add_argument("--pipeline-lag", type=int, default=None, metavar="N",
                       help="answers applied after a background fit launches "
                            "before it is integrated (default: derived from the "
                            "batch size and refresh interval)")
    serve.add_argument("--holdback-workers", type=float, default=0.0,
                       help="fraction of workers withheld from the serving model at "
                            "startup and admitted on first arrival (open world)")
    serve.add_argument("--holdback-tasks", type=float, default=0.0,
                       help="fraction of tasks withheld at startup and released "
                            "gradually mid-stream (open world)")
    serve.add_argument("--tasks-released-per-round", type=int, default=1,
                       help="held-back tasks admitted per arrival round")
    serve.add_argument("--snapshot-out", default=None,
                       help="optional path to save the final parameter snapshot (.npz)")
    serve.add_argument("--state-dir", default=None,
                       help="directory for the durable answer journal and "
                            "checkpoints (omitted -> in-memory only)")
    serve.add_argument("--resume", action="store_true",
                       help="recover from --state-dir (checkpoint + journal "
                            "replay) before serving")
    serve.add_argument("--checkpoint-interval", type=int, default=0,
                       help="applied answers between checkpoints "
                            "(0 disables; requires --state-dir)")
    serve.add_argument("--journal-fsync", action="store_true",
                       help="fsync every journal append and checkpoint "
                            "(power-loss safe, slower)")
    serve.add_argument("--guard", action="store_true",
                       help="validate events at intake and quarantine malformed "
                            "ones instead of failing the stream")
    serve.add_argument("--metrics-dir", default=None,
                       help="directory for telemetry exports: metrics.jsonl "
                            "snapshots plus a final Prometheus-style rendering")
    serve.add_argument("--metrics-interval", type=int, default=0,
                       help="rounds between periodic metrics.jsonl snapshots "
                            "(0 = final snapshot only; requires --metrics-dir)")
    serve.add_argument("--trace", action="store_true",
                       help="record a bounded span ring and export it as Chrome "
                            "trace_event JSON into --metrics-dir")
    serve.add_argument("--metrics-summary", action="store_true",
                       help="print the full phase-attributed breakdown and the "
                            "registry's key series after the run")
    serve.add_argument("--seed", type=int, default=42)

    compare = subparsers.add_parser(
        "compare",
        help="run the online framework once per assignment strategy and compare",
    )
    compare.add_argument("--dataset-file", required=True)
    compare.add_argument("--budget", type=int, default=300)
    compare.add_argument("--tasks-per-worker", type=int, default=2)
    compare.add_argument("--workers-per-round", type=int, default=5)
    compare.add_argument("--num-workers", type=int, default=60)
    compare.add_argument(
        "--strategies",
        nargs="+",
        choices=ASSIGNER_NAMES,
        default=["accopt", "random", "spatial"],
    )
    compare.add_argument(
        "--jobs", type=int, default=1,
        help="campaigns to run in parallel over a process pool (1 = serial)",
    )
    compare.add_argument("--seed", type=int, default=42)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "beijing":
        dataset = generate_beijing_dataset(seed=args.seed)
    elif args.dataset == "china":
        dataset = generate_china_dataset(seed=args.seed)
    else:
        spec = DatasetSpec(
            name=f"Synthetic-{args.num_tasks}",
            num_tasks=args.num_tasks,
            labels_per_task=args.labels_per_task,
        )
        dataset = generate_dataset(spec, seed=args.seed)
    path = save_dataset(dataset, args.out)
    print(
        f"wrote {dataset.name}: {len(dataset)} tasks, "
        f"{dataset.total_correct_labels} correct / {dataset.total_incorrect_labels} "
        f"incorrect labels -> {path}"
    )
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset_file)
    pool = build_worker_pool(
        dataset, spec=WorkerPoolSpec(num_workers=args.num_workers), seed=args.seed
    )
    budget = args.answers_per_task * len(dataset.tasks)
    platform = build_platform(
        dataset, budget=budget, worker_pool=pool, seed=args.seed
    )
    answers = platform.collect_batch_answers(
        answers_per_task=args.answers_per_task, seed=args.seed
    )
    path = save_answers(answers, args.out)
    print(f"collected {len(answers)} simulated answers from {len(pool)} workers -> {path}")
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset_file)
    answers = load_answers(args.answers_file)
    pool = build_worker_pool(
        dataset, spec=WorkerPoolSpec(num_workers=args.num_workers), seed=args.seed
    )
    platform = build_platform(dataset, budget=1, worker_pool=pool, seed=args.seed)
    distance_model = platform.distance_model

    # IM needs a worker registry covering every worker id in the answer log; the
    # simulated pool uses deterministic ids, so regenerate it with the same seed
    # used at collection time (documented in the --help text).
    known_workers = {worker.worker_id for worker in pool.workers}
    missing = [w for w in answers.worker_ids() if w not in known_workers]
    if missing and "IM" in args.methods:
        print(
            "error: the answer log references workers not present in the regenerated "
            f"pool (e.g. {missing[:3]}); rerun with the --num-workers/--seed used at "
            "collection time",
            file=sys.stderr,
        )
        return 2

    for method in args.methods:
        if method == "MV":
            model = MajorityVoteInference(dataset.tasks)
        elif method == "EM":
            model = DawidSkeneInference(dataset.tasks)
        else:
            model = LocationAwareInference(dataset.tasks, pool.workers, distance_model)
        model.fit(answers)
        accuracy = labelling_accuracy(model.predict_all(), dataset.tasks)
        print(f"{method}: labelling accuracy = {accuracy:.3f}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset_file)
    pool = build_worker_pool(
        dataset, spec=WorkerPoolSpec(num_workers=args.num_workers), seed=args.seed
    )
    platform = build_platform(
        dataset,
        budget=args.budget,
        worker_pool=pool,
        workers_per_round=args.workers_per_round,
        seed=args.seed,
    )
    distance_model = platform.distance_model
    checkpoints = tuple(
        sorted({max(1, args.budget // 2), max(1, 3 * args.budget // 4), args.budget})
    )
    config = FrameworkConfig(
        budget=args.budget,
        tasks_per_worker=args.tasks_per_worker,
        workers_per_round=args.workers_per_round,
        evaluation_checkpoints=checkpoints,
    )
    inference = LocationAwareInference(
        dataset.tasks, pool.workers, distance_model, config=config.inference
    )
    assigner = build_assigner(
        args.assigner,
        dataset.tasks,
        pool.workers,
        distance_model,
        seed=args.seed,
        engine=args.assigner_engine,
        candidate_radius=args.candidate_radius,
    )

    framework = PoiLabellingFramework(platform, inference, assigner, config=config)
    result = framework.run()
    print(f"campaign finished: {result.rounds} rounds, "
          f"{result.assignments_spent} assignments spent")
    for snapshot in result.snapshots:
        print(f"  after {snapshot.assignments_spent:>5} assignments: "
              f"accuracy = {snapshot.accuracy:.3f}")
    print(f"final accuracy ({args.assigner}): {result.final_accuracy:.3f}")
    return 0


def _metrics_digest(metrics) -> str:
    """One line per registered series: counters/gauges as values, histograms
    as count/p50/p95/max — the terminal view of ``--metrics-summary``."""
    lines = ["metrics:"]
    for entry in metrics.snapshot()["series"]:
        labels = entry["labels"]
        rendered = (
            "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        name = f"{entry['name']}{rendered}"
        if entry["kind"] == "histogram":
            lines.append(
                f"  {name}: count={entry['count']} p50={entry['p50']:.6g} "
                f"p95={entry['p95']:.6g} max={entry['max']:.6g}"
            )
        else:
            lines.append(f"  {name}: {entry['value']:g}")
    return "\n".join(lines)


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    scenario = None
    if args.scenario is not None:
        if args.dataset_file is not None:
            print("--scenario generates its own dataset; drop --dataset-file",
                  file=sys.stderr)
            return 2
        from repro.framework.scenarios import build_scenario

        overrides = {
            key: value
            for key, value in (
                ("num_tasks", args.num_tasks),
                ("num_workers", args.num_workers),
                ("budget", args.budget),
            )
            if value is not None
        }
        scenario = build_scenario(
            args.scenario,
            seed=args.seed,
            stat_decay=args.stat_decay,
            **overrides,
        )
        platform = scenario.platform
        dataset = platform.dataset
        budget = platform.budget.total
    else:
        num_tasks = args.num_tasks if args.num_tasks is not None else 100
        num_workers = args.num_workers if args.num_workers is not None else 60
        budget = args.budget if args.budget is not None else 300
        if args.dataset_file is not None:
            dataset = load_dataset(args.dataset_file)
        else:
            spec = DatasetSpec(name=f"ServeSim-{num_tasks}", num_tasks=num_tasks)
            dataset = generate_dataset(spec, seed=args.seed)
        pool = build_worker_pool(
            dataset, spec=WorkerPoolSpec(num_workers=num_workers), seed=args.seed
        )
        platform = build_platform(
            dataset,
            budget=budget,
            worker_pool=pool,
            workers_per_round=args.workers_per_round,
            seed=args.seed,
        )
    if args.checkpoint_interval and args.state_dir is None:
        print("--checkpoint-interval requires --state-dir", file=sys.stderr)
        return 2
    if args.resume and args.state_dir is None:
        print("--resume requires --state-dir", file=sys.stderr)
        return 2
    if args.metrics_interval and args.metrics_dir is None:
        print("--metrics-interval requires --metrics-dir", file=sys.stderr)
        return 2
    if args.trace and args.metrics_dir is None:
        print("--trace requires --metrics-dir to export into", file=sys.stderr)
        return 2
    from repro.serving import GuardConfig

    if scenario is not None:
        stat_decay = scenario.config.ingest.stat_decay
    elif args.stat_decay is not None:
        stat_decay = args.stat_decay
    else:
        stat_decay = 1.0
    config = ServingConfig(
        strategy=args.assigner,
        assigner_engine=args.assigner_engine,
        candidate_radius=args.candidate_radius,
        tasks_per_worker=args.tasks_per_worker,
        ingest=IngestConfig(
            max_batch_answers=args.batch_answers,
            max_batch_delay=args.batch_delay,
            full_refresh_interval=args.full_refresh_interval,
            checkpoint_interval=args.checkpoint_interval,
            pipeline=args.pipeline,
            pipeline_lag_answers=args.pipeline_lag,
            stat_decay=stat_decay,
        ),
        holdback_worker_fraction=args.holdback_workers,
        holdback_task_fraction=args.holdback_tasks,
        tasks_released_per_round=args.tasks_released_per_round,
        seed=args.seed,
        state_dir=args.state_dir,
        resume=args.resume,
        journal_fsync=args.journal_fsync,
        guard=GuardConfig() if args.guard else None,
        reputation=scenario.config.reputation if scenario is not None else None,
        diurnal=scenario.config.diurnal if scenario is not None else None,
        metrics_dir=args.metrics_dir,
        metrics_interval=args.metrics_interval,
        trace=args.trace,
    )
    service = OnlineServingService(platform, config=config)
    durable = " (durable)" if args.state_dir else ""
    if scenario is not None:
        print(f"scenario {scenario.name}: {scenario.description}")
    print(
        f"serving {dataset.name}: budget {budget}, strategy {args.assigner}, "
        f"micro-batch {args.batch_answers} answers / {args.batch_delay}s window"
        f"{durable}"
    )
    try:
        report = service.run()
    finally:
        service.close()
    print(report.summary())
    if args.metrics_summary:
        print(_metrics_digest(service.metrics))
    if args.metrics_dir:
        print(f"telemetry exported -> {args.metrics_dir}")
    if args.snapshot_out:
        saved = service.save_latest_snapshot(args.snapshot_out)
        if saved is not None:
            print(f"saved latest snapshot -> {saved}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.framework.experiment import (
        build_distance_model,
        compare_assigners,
    )

    dataset = load_dataset(args.dataset_file)
    pool = build_worker_pool(
        dataset, spec=WorkerPoolSpec(num_workers=args.num_workers), seed=args.seed
    )
    distance_model = build_distance_model(dataset)
    checkpoints = tuple(
        sorted({max(1, args.budget // 2), max(1, 3 * args.budget // 4), args.budget})
    )
    config = FrameworkConfig(
        budget=args.budget,
        tasks_per_worker=args.tasks_per_worker,
        workers_per_round=args.workers_per_round,
        evaluation_checkpoints=checkpoints,
    )
    tasks = dataset.tasks
    workers = pool.workers
    factories = {
        name: (
            lambda n=name: build_assigner(
                n, tasks, workers, distance_model, seed=args.seed
            )
        )
        for name in args.strategies
    }
    result = compare_assigners(
        dataset,
        config,
        assigner_factories=factories,
        worker_pool=pool,
        seed=args.seed,
        jobs=args.jobs,
    )
    mode = f"{args.jobs} parallel jobs" if args.jobs > 1 else "serial"
    print(
        f"compared {len(factories)} strategies over budget {args.budget} ({mode})"
    )
    for name in factories:
        series = ", ".join(
            f"{checkpoint}: {accuracy:.3f}"
            for checkpoint, accuracy in zip(result.checkpoints, result.accuracy[name])
        )
        print(f"  {name}: {series}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "collect": _cmd_collect,
    "infer": _cmd_infer,
    "campaign": _cmd_campaign,
    "serve-sim": _cmd_serve_sim,
    "compare": _cmd_compare,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
