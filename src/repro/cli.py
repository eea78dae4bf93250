"""Command-line interface.

Mirrors how the paper's tooling would be driven in an MPI-library
build system:

``pml-mpi collect``
    Run the benchmark campaign and cache the dataset.  ``--active``
    switches from the exhaustive sweep to the uncertainty-driven
    acquisition loop (stratified seed, per-round top-K benchmarking,
    plateau / core-hour-budget stopping) — same cache, fault ladder
    and telemetry, a fraction of the simulated core-hours.
``pml-mpi train``
    Train the shipped per-collective models and write the bundle.
``pml-mpi tune``
    Compile-time flow on one cluster: load bundle, emit JSON tuning
    table (or reuse an existing one).
``pml-mpi select``
    One-off query: which algorithm for this collective/job/size?
    Answered by the same guarded service as ``select-batch``.
``pml-mpi select-batch``
    Batched queries: read one JSONL query per line, answer all of
    them through the guard ladder's vectorized block path (with
    LRU memoization + power-of-two size quantization), write one
    JSONL decision per line.
``pml-mpi serve``
    Run the persistent selection daemon: many concurrent clients over
    a Unix-socket NDJSON protocol, with admission control, per-request
    deadlines, atomic bundle hot-reload and crash-safe restart.
``pml-mpi sweep``
    OSU-style sweep under a chosen selector, printed as a table.
``pml-mpi info``
    Show the cluster registry / extracted hardware features.
``pml-mpi doctor``
    Validate every artifact (tables, bundles, dataset caches) in a
    directory and print the health report; ``--bundle`` additionally
    cross-checks each tuning table against that model bundle.
``pml-mpi bench``
    Time the hot paths (ensemble fit, batch predict, table
    generation, table lookup) and write ``BENCH_results.json``.
``pml-mpi chaos``
    Soak the runtime guard layer with adversarial queries (malformed
    input, out-of-distribution shapes, fault-injected models, scripted
    failure storms) and assert its invariants.  ``--daemon`` soaks the
    serving daemon; ``--adapt`` soaks the online-adaptation loop
    (poisoned feedback, drift storms, a deliberately-worse challenger,
    mid-promotion SIGKILL).
``pml-mpi adapt``
    Run the online-adaptation loop once (or as a ``--watch`` sidecar):
    ingest runtime feedback, detect regret drift, train and
    shadow-evaluate a challenger, and promote/demote through the
    champion/challenger gate.
``pml-mpi report``
    Analyze a trace written by ``--trace``: per-stage wall-clock
    breakdown, counter table, top-N slowest spans.

``collect`` and ``tune`` accept fault-injection knobs
(``--fault-rate``, ``--stall-rate``, ``--fault-seed``) and a retry
budget (``--retries``) so the resilience path can be exercised — and
compile-time setups on flaky machines survive — end-to-end.

Every subcommand accepts ``--trace PATH`` (export a telemetry trace of
the run; an existing trace is extended, so a whole pipeline can
accumulate into one file) and a repeatable ``-v/--verbose`` flag
(``-v`` = INFO, ``-vv`` = DEBUG on the ``repro`` logger).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .active import ActiveConfig, run_active_collection
from .apps.microbench import run_sweep
from .core.bundle import load_selector, save_selector
from .core.dataset import collect_dataset
from .core.framework import (
    PmlMpiFramework,
    doctor_directory,
    offline_train,
)
from .core.resilience import ArtifactError, RetryPolicy
from .hwmodel.extract import cluster_features
from .hwmodel.registry import CLUSTER_NAMES, all_clusters, get_cluster
from .obs.telemetry import MetricsRegistry, Tracer, use_telemetry
from .obs.trace_io import export_trace
from .simcluster.conditions import FaultProfile
from .smpi.collectives.base import ALL_COLLECTIVES, COLLECTIVES
from .smpi.heuristics import (
    MvapichDefaultSelector,
    OpenMpiDefaultSelector,
    RandomSelector,
)
from .smpi.tuning import OracleSelector


def _clusters_arg(names: list[str] | None):
    if not names:
        return None
    return [get_cluster(n) for n in names]


def _faults_arg(args: argparse.Namespace) -> FaultProfile | None:
    if args.fault_rate == 0.0 and args.stall_rate == 0.0:
        return None
    return FaultProfile(failure_rate=args.fault_rate,
                        stall_rate=args.stall_rate,
                        seed=args.fault_seed)


def _retry_arg(args: argparse.Namespace) -> RetryPolicy | None:
    if args.retries is None:
        return None
    return RetryPolicy(max_attempts=args.retries, base_delay_s=0.0,
                       jitter=0.0)


def _load_bundle(path: Path):
    """The selector in bundle *path*, or ``None`` after printing why it
    cannot be loaded (callers exit 2)."""
    try:
        return load_selector(path)
    except (OSError, ArtifactError) as exc:
        print(f"cannot load bundle {path}: {exc}", file=sys.stderr)
        return None


def _run_active_collect(args: argparse.Namespace) -> int:
    config = ActiveConfig(
        seed=args.active_seed,
        seed_fraction=args.seed_fraction,
        batch_size=args.batch_size,
        budget_core_h=args.budget_core_hours,
        budget_fraction=args.budget_fraction,
        plateau_epsilon=args.plateau_epsilon,
        plateau_patience=args.plateau_patience,
        max_rounds=args.max_rounds,
        cost_weight=args.cost_weight,
    )
    result = run_active_collection(
        clusters=_clusters_arg(args.clusters),
        collectives=tuple(args.collectives),
        config=config,
        faults=_faults_arg(args),
        retry=_retry_arg(args),
        progress=not args.quiet,
    )
    dataset = result.dataset
    budget = ("unlimited" if result.budget_limit is None
              else f"{result.budget_limit:.4f} core-h")
    print(f"active collection{' (cached)' if result.cached else ''}: "
          f"{len(dataset)} records in {result.rounds} rounds "
          f"(stop: {result.stop_reason})")
    print(f"  seeded {result.seeded}  acquired {result.acquired}  "
          f"dropped {result.dropped}  denied {result.denied}")
    print(f"  spent {result.core_hours:.4f} of {budget}")
    if result.val_accuracy is not None:
        print(f"  validation accuracy {result.val_accuracy:.3f}")
    for label, count in dataset.label_distribution().items():
        print(f"  {label:<22} {count}")
    if args.decision_log:
        args.decision_log.write_text(result.decision_log_text())
        print(f"decision log written to {args.decision_log}")
    if args.output:
        path = dataset.save(args.output)
        print(f"saved to {path}")
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    if args.active:
        return _run_active_collect(args)
    dataset = collect_dataset(
        clusters=_clusters_arg(args.clusters),
        collectives=tuple(args.collectives),
        progress=not args.quiet,
        workers=args.workers,
        faults=_faults_arg(args),
        retry=_retry_arg(args),
    )
    print(f"collected {len(dataset)} records over "
          f"{len(dataset.clusters())} clusters")
    for label, count in dataset.label_distribution().items():
        print(f"  {label:<22} {count}")
    if args.output:
        path = dataset.save(args.output)
        print(f"saved to {path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = collect_dataset(clusters=_clusters_arg(args.clusters),
                              collectives=tuple(args.collectives))
    if args.exclude:
        keep = set(dataset.clusters()) - set(args.exclude)
        dataset = dataset.filter(clusters=keep)
        print(f"training with {sorted(args.exclude)} held out "
              f"({len(dataset)} records)")
    selector = offline_train(dataset, family=args.family,
                             collectives=tuple(args.collectives),
                             tune=args.tune, n_jobs=args.jobs)
    for coll, model in selector.models.items():
        print(f"{coll}: family={model.family} "
              f"features={model.feature_names}")
    path = save_selector(selector, args.bundle)
    print(f"bundle written to {path}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    selector = _load_bundle(args.bundle)
    if selector is None:
        return 2
    framework = PmlMpiFramework(selector, args.table_dir,
                                retry=_retry_arg(args))
    spec = get_cluster(args.cluster)
    existed = framework.has_table(spec.name)
    _, report = framework.setup_cluster_with_report(
        spec, force_regenerate=args.force, faults=_faults_arg(args))
    path = framework.table_path(spec.name)
    verb = "reused" if existed and not args.force else "generated"
    print(f"{verb} tuning table: {path}")
    print(report.describe())
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"not a directory: {directory}", file=sys.stderr)
        return 2
    report = doctor_directory(directory, bundle=args.bundle)
    if not report.checks:
        print(f"no artifacts found in {directory}")
        return 0
    print(report.describe())
    bad = len(report.errors)  # corrupt / stale / orphan-tmp
    quarantined = len(report.quarantined)
    ok = sum(c.ok for c in report.checks)
    print(f"\n{ok} ok, {bad} problem(s), {quarantined} quarantined "
          f"in {directory}")
    return 0 if bad == 0 else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from .core.bench import run_benchmarks, write_bench_results

    results = run_benchmarks(quick=args.quick, jobs=args.jobs,
                             repeats=args.repeats, lookups=args.lookups,
                             progress=not args.quiet)
    path = write_bench_results(results, args.output)
    for name, entry in results.items():
        print(f"{name:<24} {entry['wall_s']:.4f} s")
    print(f"results written to {path}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .core import chaos

    if args.adapt:
        report = chaos.run_adapt_chaos(seed=args.seed,
                                       progress=not args.quiet)
    elif args.daemon:
        report = chaos.run_daemon_chaos(
            seed=args.seed, clients=args.clients,
            requests_per_client=args.requests_per_client,
            progress=not args.quiet)
    else:
        report = chaos.run_chaos(queries=args.queries, seed=args.seed,
                                 progress=not args.quiet)
    print(report.describe())
    return 0 if report.ok else 1


def cmd_adapt(args: argparse.Namespace) -> int:
    from .adapt import AdaptConfig, AdaptationLoop
    from .core.resilience import LockTimeoutError

    config = AdaptConfig(
        cluster=args.cluster,
        bundle_path=args.bundle,
        feedback_path=args.feedback,
        state_dir=args.state_dir,
        dataset_path=args.dataset,
        window=args.window,
        ph_delta=args.ph_delta,
        ph_threshold=args.ph_threshold,
        min_improvement=args.min_improvement,
        alpha=args.alpha,
        probation_rows=args.probation_rows,
        demote_tolerance=args.demote_tolerance,
        family=args.family,
        seed=args.seed,
        n_jobs=args.jobs,
        poll_s=args.poll_s,
    )
    loop = AdaptationLoop(config)
    try:
        if args.watch:
            reports = loop.watch(
                max_polls=args.max_polls,
                on_report=lambda r: print(r.describe(), flush=True))
            return 0 if reports else 1
        report = loop.run_once()
    except LockTimeoutError as exc:
        print(f"cannot adapt: {exc}", file=sys.stderr)
        return 1
    print(report.describe())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .core.resilience import LockTimeoutError
    from .obs.slo import DEFAULT_SLOS, load_slos
    from .serve.daemon import DaemonConfig, SelectionDaemon

    if args.slo is not None:
        try:
            slos = load_slos(args.slo)
        except ValueError as exc:
            print(f"cannot start: {exc}", file=sys.stderr)
            return 1
    else:
        slos = DEFAULT_SLOS
    state_dir = args.state_dir
    config = DaemonConfig(
        spec=get_cluster(args.cluster),
        socket_path=args.socket if args.socket is not None
        else state_dir / "daemon.sock",
        state_dir=state_dir,
        bundle=args.bundle,
        max_inflight=args.max_inflight,
        default_deadline_ms=args.deadline_ms,
        max_batch=args.max_batch,
        cache_size=args.cache_size,
        reload_poll_s=args.reload_poll_s,
        drain_timeout_s=args.drain_timeout_s,
        ready_file=args.ready_file,
        recorder_capacity=args.recorder_capacity,
        slos=slos,
        adapt_log=args.adapt_log,
    )
    daemon = SelectionDaemon(config)
    try:
        daemon.boot()
    except LockTimeoutError as exc:
        print(f"cannot start: {exc}", file=sys.stderr)
        return 1
    snapshot = daemon.store.current()
    print(f"serving {args.cluster} on {config.socket_path} "
          f"({snapshot.describe()})", flush=True)
    rc = daemon.run()
    c = daemon.counters
    print(f"drained: {c['requests']} requests "
          f"({c['ok']} ok, {c['deadline_floor']} deadline-floored, "
          f"{c['overloaded']} shed, {c['reloads']} reloads)")
    return rc


def cmd_top(args: argparse.Namespace) -> int:
    from .serve.client import DaemonError
    from .serve.top import run_top

    try:
        return run_top(str(args.socket), interval_s=args.interval,
                       iterations=args.iterations, once=args.once)
    except (OSError, DaemonError, ValueError) as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 1


def cmd_report(args: argparse.Namespace) -> int:
    from .obs.report import render_report
    from .obs.trace_io import load_trace

    try:
        trace = load_trace(args.trace_file)
    except FileNotFoundError:
        print(f"no such trace: {args.trace_file}", file=sys.stderr)
        return 2
    except ArtifactError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    print(render_report(trace, top=args.top))
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    from .obs.telemetry import get_registry
    from .serve import ACTION_INVALID, SelectionQuery, SelectionService

    selector = _load_bundle(args.bundle)
    if selector is None:
        return 2
    service = SelectionService(selector, get_cluster(args.cluster),
                               registry=get_registry())
    decision = service.select(SelectionQuery(
        args.collective, args.nodes, args.ppn, args.msg_size))
    if decision.action == ACTION_INVALID:
        print(f"invalid query: {decision.detail}", file=sys.stderr)
        return 2
    print(decision.algorithm)
    return 0


def cmd_select_batch(args: argparse.Namespace) -> int:
    from .core.resilience import atomic_write_text
    from .obs.telemetry import get_registry
    from .serve import (
        ACTION_INVALID,
        SelectionService,
        decisions_to_jsonl,
        queries_from_jsonl,
    )

    try:
        text = args.input.read_text()
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        queries = queries_from_jsonl(text)
    except ValueError as exc:
        print(f"invalid query file {args.input}: {exc}", file=sys.stderr)
        return 2
    selector = _load_bundle(args.bundle)
    if selector is None:
        return 2
    service = SelectionService(
        selector, get_cluster(args.cluster),
        cache_size=args.cache_size, registry=get_registry())
    decisions = service.select_batch(queries)
    payload = decisions_to_jsonl(decisions)
    if args.output is not None:
        atomic_write_text(args.output, payload)
        # From the decisions, not the counters: the ambient registry
        # accumulates across commands run in one process.
        computed = sum(not d.cached for d in decisions)
        invalid = sum(d.action == ACTION_INVALID for d in decisions)
        print(f"answered {len(decisions)} queries "
              f"({computed} distinct, {invalid} invalid) "
              f"-> {args.output}")
    else:
        sys.stdout.write(payload)
    return 0


_SELECTORS = {
    "mvapich": MvapichDefaultSelector,
    "ompi": OpenMpiDefaultSelector,
    "random": RandomSelector,
    "oracle": OracleSelector,
}


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.selector == "pml":
        if not args.bundle:
            print("--bundle is required with --selector pml",
                  file=sys.stderr)
            return 2
        selector = _load_bundle(args.bundle)
        if selector is None:
            return 2
    else:
        selector = _SELECTORS[args.selector]()
    spec = get_cluster(args.cluster)
    result = run_sweep(spec, args.collective, args.nodes, args.ppn,
                       selector)
    print(f"# {args.collective} on {spec.name} "
          f"({args.nodes} nodes x {args.ppn} ppn), "
          f"selector={result.selector}")
    print(f"{'size':>10} {'avg_time_us':>14} {'algorithm':>22}")
    for point in result.points:
        print(f"{point.msg_size:>10} {point.avg_time_s * 1e6:>14.2f} "
              f"{point.algorithm:>22}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    if args.cluster:
        spec = get_cluster(args.cluster)
        feats = cluster_features(spec)
        print(spec.describe())
        for name in type(feats).__dataclass_fields__:
            print(f"  {name:<24} {getattr(feats, name)}")
    else:
        for spec in all_clusters():
            print(spec.describe())
    return 0


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    """Fault-injection / retry knobs shared by collect and tune."""
    p.add_argument("--fault-rate", type=float, default=0.0,
                   metavar="P",
                   help="injected transient-failure probability per "
                        "attempt (default 0)")
    p.add_argument("--stall-rate", type=float, default=0.0,
                   metavar="P",
                   help="injected rank-stall probability per attempt "
                        "(default 0)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for reproducible fault injection")
    p.add_argument("--retries", type=int, default=None,
                   metavar="N",
                   help="max attempts per measurement/generation "
                        "(default: library retry policy)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pml-mpi",
        description="PML-MPI: pre-trained collective algorithm "
                    "selection (paper reproduction)")

    # Shared global flags, accepted *after* the subcommand (the natural
    # CLI position: ``pml-mpi tune --trace t.jsonl ...``).
    verbose = argparse.ArgumentParser(add_help=False)
    verbose.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log to stderr (-v = INFO, -vv = DEBUG)")
    common = argparse.ArgumentParser(add_help=False, parents=[verbose])
    common.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="export a telemetry trace (spans + metrics) of this run; "
             "an existing trace file is extended")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", parents=[common],
                       help="run the benchmark campaign")
    p.add_argument("--clusters", nargs="*", choices=CLUSTER_NAMES,
                   metavar="NAME")
    p.add_argument("--collectives", nargs="*", default=list(COLLECTIVES),
                   choices=ALL_COLLECTIVES)
    p.add_argument("--output", type=Path,
                   help="also save the dataset to this path")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel collection processes "
                        "(exhaustive mode only)")
    p.add_argument("--quiet", action="store_true")
    g = p.add_argument_group(
        "active learning",
        "uncertainty-driven acquisition instead of the exhaustive "
        "sweep: seed a stratified sample, then benchmark only the "
        "most informative configs per round")
    g.add_argument("--active", action="store_true",
                   help="run the active-learning acquisition loop")
    g.add_argument("--active-seed", type=int, default=0,
                   help="acquisition RNG seed (same seed = byte-"
                        "identical schedule; default 0)")
    g.add_argument("--seed-fraction", type=float, default=0.2,
                   metavar="F",
                   help="stratified seed fraction per job shape "
                        "(default 0.2)")
    g.add_argument("--batch-size", type=int, default=16, metavar="K",
                   help="configs benchmarked per round (default 16)")
    g.add_argument("--budget-core-hours", type=float, default=None,
                   metavar="H",
                   help="hard simulated core-hour budget (never "
                        "overshot; overrides --budget-fraction)")
    g.add_argument("--budget-fraction", type=float, default=0.2,
                   metavar="F",
                   help="budget as a fraction of the estimated "
                        "exhaustive-sweep cost (default 0.2)")
    g.add_argument("--plateau-epsilon", type=float, default=0.005,
                   metavar="E",
                   help="min per-round validation-accuracy improvement "
                        "(default 0.005)")
    g.add_argument("--plateau-patience", type=int, default=6,
                   metavar="R",
                   help="stop after R rounds below epsilon (default 6)")
    g.add_argument("--max-rounds", type=int, default=30,
                   help="acquisition round cap (default 30)")
    g.add_argument("--cost-weight", type=float, default=1.0,
                   metavar="W",
                   help="cost-sensitivity of the ranking: entropy / "
                        "cost**W (0 = raw entropy; default 1.0)")
    g.add_argument("--decision-log", type=Path, metavar="PATH",
                   help="write the per-round decision log (one JSON "
                        "object per line)")
    _add_fault_args(p)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("train", parents=[common],
                       help="train and write the model bundle")
    p.add_argument("bundle", type=Path, help="output bundle path")
    p.add_argument("--clusters", nargs="*", choices=CLUSTER_NAMES,
                   metavar="NAME")
    p.add_argument("--exclude", nargs="*", default=[],
                   choices=CLUSTER_NAMES, metavar="NAME",
                   help="clusters to hold out of training")
    p.add_argument("--collectives", nargs="*", default=list(COLLECTIVES),
                   choices=ALL_COLLECTIVES)
    p.add_argument("--family", default="rf",
                   choices=("rf", "gradientboost", "knn", "svm"))
    p.add_argument("--tune", action="store_true",
                   help="grid-search hyperparameters (slow)")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for ensemble fitting / "
                        "grid search (results are bit-identical to "
                        "serial; -1 = all cores)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", parents=[common],
                       help="emit a cluster's tuning table")
    p.add_argument("cluster", choices=CLUSTER_NAMES)
    p.add_argument("--bundle", type=Path, required=True)
    p.add_argument("--table-dir", type=Path, default=Path("tuning_tables"))
    p.add_argument("--force", action="store_true",
                   help="regenerate even if a table exists")
    _add_fault_args(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "doctor", parents=[common],
        help="validate every artifact in a directory")
    p.add_argument("directory", type=Path,
                   help="directory of tables/bundles/dataset caches")
    p.add_argument("--bundle", type=Path, default=None,
                   help="model bundle to cross-check tuning tables "
                        "against (cluster names, collectives, label "
                        "spaces)")
    p.set_defaults(func=cmd_doctor)

    p = sub.add_parser(
        "chaos", parents=[common],
        help="soak the runtime guard layer with adversarial queries")
    p.add_argument("--queries", type=int, default=10_000, metavar="N",
                   help="adversarial queries to fire (default 10000)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the whole run (queries, faults, "
                        "storms)")
    p.add_argument("--daemon", action="store_true",
                   help="soak the serving daemon instead: client "
                        "storms, mid-storm hot-reload, corrupt-bundle "
                        "swap, daemon kill + crash-safe restart")
    p.add_argument("--clients", type=int, default=4, metavar="N",
                   help="concurrent storm clients (--daemon; default 4)")
    p.add_argument("--requests-per-client", type=int, default=40,
                   metavar="N",
                   help="requests each storm client fires "
                        "(--daemon; default 40)")
    p.add_argument("--adapt", action="store_true",
                   help="soak the online-adaptation loop instead: "
                        "poisoned feedback, drift storms, worse "
                        "challengers, mid-promotion SIGKILL, "
                        "determinism replay")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "serve", parents=[common],
        help="run the persistent selection daemon on a Unix socket")
    p.add_argument("cluster", choices=CLUSTER_NAMES)
    p.add_argument("--bundle", type=Path, default=None,
                   help="model bundle to serve (hot-reloaded on "
                        "change); omit to serve the heuristic floor")
    p.add_argument("--state-dir", type=Path,
                   default=Path("serve_state"),
                   help="lock / sentinel / default-socket directory "
                        "(default serve_state)")
    p.add_argument("--socket", type=Path, default=None, metavar="PATH",
                   help="Unix socket path "
                        "(default STATE_DIR/daemon.sock)")
    p.add_argument("--ready-file", type=Path, default=None,
                   metavar="PATH",
                   help="write a JSON readiness record here once "
                        "listening (for supervisors and tests)")
    p.add_argument("--max-inflight", type=int, default=4, metavar="N",
                   help="select requests in flight before shedding "
                        "with 'overloaded' (default 4)")
    p.add_argument("--deadline-ms", type=float, default=1000.0,
                   metavar="MS",
                   help="default per-request deadline before "
                        "degrading to the heuristic floor "
                        "(default 1000)")
    p.add_argument("--max-batch", type=int, default=10_000, metavar="N",
                   help="max queries per select request "
                        "(default 10000)")
    p.add_argument("--cache-size", type=int, default=4096, metavar="N",
                   help="LRU memo capacity in distinct keys "
                        "(default 4096)")
    p.add_argument("--reload-poll-s", type=float, default=2.0,
                   metavar="S",
                   help="bundle checksum poll interval (default 2)")
    p.add_argument("--drain-timeout-s", type=float, default=5.0,
                   metavar="S",
                   help="max wait for in-flight requests on shutdown "
                        "(default 5)")
    p.add_argument("--recorder-capacity", type=int, default=256,
                   metavar="N",
                   help="flight-recorder ring size — the history the "
                        "'tail' op can return (default 256)")
    p.add_argument("--slo", type=Path, default=None, metavar="JSON",
                   help="SLO config file (JSON list of specs) for the "
                        "'health' op; default: built-in daemon SLOs")
    p.add_argument("--adapt-log", type=Path, default=None,
                   metavar="JSONL",
                   help="adapt sidecar decision log to surface as "
                        "flight-recorder 'adapt' events")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "top", parents=[verbose],
        help="live view of a running daemon (rates, percentiles, "
             "SLO burn, flight-recorder tail)")
    p.add_argument("--socket", type=Path, required=True, metavar="PATH",
                   help="the daemon's Unix socket")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (CI / scripting)")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="refresh interval (default 1)")
    p.add_argument("--iterations", type=int, default=None, metavar="N",
                   help="stop after N frames (default: until ^C)")
    p.set_defaults(func=cmd_top, trace=None)

    p = sub.add_parser(
        "adapt", parents=[common],
        help="run the online-adaptation loop (drift detection + "
             "champion/challenger rollout)")
    p.add_argument("cluster", choices=CLUSTER_NAMES)
    p.add_argument("--bundle", type=Path, required=True,
                   help="serving bundle (champion) to adapt in place")
    p.add_argument("--feedback", type=Path, required=True,
                   metavar="JSONL",
                   help="pml-mpi/feedback log of runtime-measured "
                        "collective times")
    p.add_argument("--state-dir", type=Path, default=Path("adapt_state"),
                   help="loop state / lock / decision-log directory "
                        "(default adapt_state)")
    p.add_argument("--dataset", type=Path, default=None,
                   help="offline training dataset to warm-start the "
                        "challenger from (default: feedback only)")
    p.add_argument("--window", type=int, default=256, metavar="N",
                   help="feedback rows per drift window (default 256)")
    p.add_argument("--ph-delta", type=float, default=0.005, metavar="D",
                   help="Page-Hinkley drift slack (default 0.005)")
    p.add_argument("--ph-threshold", type=float, default=0.5,
                   metavar="L",
                   help="Page-Hinkley alarm threshold (default 0.5)")
    p.add_argument("--min-improvement", type=float, default=0.02,
                   metavar="F",
                   help="regret improvement a challenger must show "
                        "to be promoted (default 0.02)")
    p.add_argument("--alpha", type=float, default=0.05, metavar="A",
                   help="sign-test significance level (default 0.05)")
    p.add_argument("--probation-rows", type=int, default=20,
                   metavar="N",
                   help="post-promotion feedback rows before the "
                        "challenger is confirmed (default 20)")
    p.add_argument("--demote-tolerance", type=float, default=0.05,
                   metavar="F",
                   help="probation regret regression that triggers "
                        "auto-demotion (default 0.05)")
    p.add_argument("--family", default="rf",
                   choices=("rf", "gradientboost", "knn", "svm"),
                   help="challenger model family (default rf)")
    p.add_argument("--seed", type=int, default=0,
                   help="challenger training seed (decisions are a "
                        "pure function of seed + feedback)")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for challenger training")
    p.add_argument("--watch", action="store_true",
                   help="keep polling the feedback log instead of "
                        "exiting after one pass")
    p.add_argument("--poll-s", type=float, default=1.0, metavar="S",
                   help="--watch poll interval (default 1)")
    p.add_argument("--max-polls", type=int, default=None, metavar="N",
                   help="stop --watch after N passes (default: run "
                        "until interrupted)")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser(
        "bench", parents=[common],
        help="time the hot paths, write BENCH_results.json")
    p.add_argument("--output", type=Path,
                   default=Path("BENCH_results.json"),
                   help="results file (default BENCH_results.json)")
    p.add_argument("--quick", action="store_true",
                   help="small problem sizes for smoke tests / CI")
    p.add_argument("--jobs", type=int, default=4, metavar="N",
                   help="worker processes for the parallel-fit "
                        "benchmark (default 4)")
    p.add_argument("--repeats", type=int, default=3, metavar="N",
                   help="timing repeats; best-of is reported "
                        "(default 3; quick mode forces 1)")
    p.add_argument("--lookups", type=int, default=None, metavar="N",
                   help="table lookups to time (default 1000000, "
                        "or 50000 with --quick)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("select", parents=[common],
                       help="query one algorithm choice")
    p.add_argument("cluster", choices=CLUSTER_NAMES)
    p.add_argument("collective", choices=ALL_COLLECTIVES)
    p.add_argument("nodes", type=int)
    p.add_argument("ppn", type=int)
    p.add_argument("msg_size", type=int)
    p.add_argument("--bundle", type=Path, required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser(
        "select-batch", parents=[common],
        help="answer a JSONL file of queries in one batched pass")
    p.add_argument("cluster", choices=CLUSTER_NAMES)
    p.add_argument("--bundle", type=Path, required=True)
    p.add_argument("--input", type=Path, required=True, metavar="JSONL",
                   help="query file: one JSON object per line with "
                        "collective/nodes/ppn/msg_size keys")
    p.add_argument("--output", type=Path, default=None, metavar="JSONL",
                   help="decision file (atomic write); default stdout")
    p.add_argument("--cache-size", type=int, default=4096, metavar="N",
                   help="LRU memo capacity in distinct keys "
                        "(default 4096)")
    p.set_defaults(func=cmd_select_batch)

    p = sub.add_parser("sweep", parents=[common],
                       help="OSU-style message-size sweep")
    p.add_argument("cluster", choices=CLUSTER_NAMES)
    p.add_argument("collective", choices=ALL_COLLECTIVES)
    p.add_argument("nodes", type=int)
    p.add_argument("ppn", type=int)
    p.add_argument("--selector", default="oracle",
                   choices=("pml", *_SELECTORS))
    p.add_argument("--bundle", type=Path)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("info", parents=[common],
                       help="cluster registry / features")
    p.add_argument("cluster", nargs="?", choices=CLUSTER_NAMES)
    p.set_defaults(func=cmd_info)

    # ``report`` takes -v but not --trace: it *reads* traces, and
    # tracing the reader into the file it is reading would be absurd.
    p = sub.add_parser("report", parents=[verbose],
                       help="analyze a --trace JSONL file")
    p.add_argument("trace_file", type=Path, metavar="TRACE",
                   help="trace file written by --trace")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="slowest spans to show (default 10)")
    p.set_defaults(func=cmd_report, trace=None)

    return parser


def _configure_logging(verbosity: int) -> None:
    """Attach a stderr handler to the ``repro`` logger for -v/-vv.

    Library users are untouched (the package root carries a
    ``NullHandler``).  Idempotent across repeated in-process CLI
    invocations: exactly one CLI handler ever exists — duplicates
    (e.g. from forked/embedded callers that copied the logger config)
    are removed, and the surviving handler is *re-bound* to the
    current ``sys.stderr`` each run, so a harness that swaps stderr
    between invocations (pytest's capture does) never leaves the
    handler writing to a closed stream or logging each line twice.
    """
    if verbosity <= 0:
        return
    logger = logging.getLogger("repro")
    logger.setLevel(logging.INFO if verbosity == 1 else logging.DEBUG)
    cli_handlers = [h for h in logger.handlers
                    if getattr(h, "_pml_cli", False)]
    for duplicate in cli_handlers[1:]:
        logger.removeHandler(duplicate)
    if cli_handlers:
        handler = cli_handlers[0]
        if isinstance(handler, logging.StreamHandler):
            try:
                handler.setStream(sys.stderr)
            except (ValueError, OSError):
                # setStream flushes the *old* stream first; if the
                # harness already closed it, swap directly.
                handler.stream = sys.stderr
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(
        "%(levelname)s %(name)s: %(message)s"))
    handler._pml_cli = True  # type: ignore[attr-defined]
    logger.addHandler(handler)


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. ``pml-mpi report | head``):
        # die quietly with the POSIX 128+SIGPIPE status instead of a
        # traceback.  Point stdout at /dev/null so the interpreter's
        # exit-time flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


def _main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(getattr(args, "verbose", 0))
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return args.func(args)
    # Traced run: install a real tracer/registry pair, wrap the whole
    # command in a root span named after it (the report's "stage"),
    # and export even when the command fails — a trace of the failure
    # is precisely when observability earns its keep.
    tracer = Tracer()
    registry = MetricsRegistry()
    rc: int | None = None
    try:
        with use_telemetry(tracer, registry), tracer.span(args.command):
            rc = args.func(args)
    finally:
        try:
            path = export_trace(trace_path, tracer, registry)
        except ArtifactError as exc:
            print(f"cannot extend trace {trace_path}: {exc}",
                  file=sys.stderr)
            rc = 2 if rc in (None, 0) else rc
        else:
            print(f"trace written to {path}", file=sys.stderr)
    return rc if rc is not None else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
