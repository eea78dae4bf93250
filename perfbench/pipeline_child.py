"""One ``pipeline`` iteration, in a fresh interpreter.

Run by ``perfbench/pipeline.py``; not meant to be called by hand.  The
paper's Figs. 3-4 flow on the RI+Ray pair with allgather and alltoall:
cold ``collect_dataset`` -> random 70/30 split -> ``offline_train`` ->
bundle save/load round trip -> ``setup_cluster(force_regenerate=True)``
for RI and Ray -> one ``select`` per cluster.  Prints one JSON object
(timestamps on the system-wide monotonic clock, checks, regret) as its
last stdout line.

``--import-only`` stops after ``import repro`` (a set-up sample).
``--trace FILE`` wraps the layers' entry points in benchmark-side
spans, turns on the program's own tracer, and writes the span records
to FILE.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402,F401

T_IMPORTED = time.perf_counter()

CLUSTERS = ("RI", "Ray")
COLLECTIVES = ("allgather", "alltoall")


def install_spans(recorder) -> None:
    """Wrap each layer's public entry point (see METRICS.md)."""
    from repro.core import bundle, dataset, framework, splits, training
    from repro.ml import forest, tree
    from repro.simcluster import machine
    from repro.smpi import tuning
    from repro.smpi.collectives import base

    targets = [
        (machine.Machine, "evaluate", "simcluster"),
        (machine.Machine, "round_time", "simcluster.round"),
        (base.CollectiveAlgorithm, "estimate", "smpi.collectives"),
        (dataset, "measured_time", "smpi.tuning.measure"),
        (tuning.TuningTable, "lookup", "smpi.tuning.lookup"),
        (dataset, "collect_dataset", "core.dataset"),
        (splits, "split_dataset", "core.splits"),
        (forest.RandomForestClassifier, "fit", "ml.forest.fit"),
        (tree.DecisionTreeClassifier, "fit", "ml.tree.fit"),
        (framework, "train_model", "core.training"),
        (training, "rank_features", "core.training.rank"),
        (bundle, "save_selector", "core.bundle.save"),
        (bundle, "load_selector", "core.bundle.load"),
        (framework, "generate_tuning_table", "core.inference",
         lambda args, report: getattr(report, "n_configs", 0)),
        (framework.PmlMpiFramework, "setup_cluster", "core.framework"),
    ]
    for owner, attr, layer, *amount in targets:
        # Raises if a refactor renamed an entry point: the iteration
        # fails rather than report a layer that reads 0.
        recorder.patch(owner, attr, layer, *amount)


def run_iteration(seed: int, workdir: Path) -> dict:
    from repro.core import bundle, dataset, framework, splits
    from repro.hwmodel import get_cluster
    from repro.obs.telemetry import get_registry
    from repro.simcluster.machine import Machine

    specs = [get_cluster(name) for name in CLUSTERS]
    rng = random.Random(seed)
    queries = []
    for spec in specs:
        collective = rng.choice(COLLECTIVES)
        nodes, ppn, msg = rng.choice(
            dataset.feasible_configs(spec, collective))
        queries.append((spec, collective, nodes, ppn, msg))
    table_dir = workdir / "tables"
    bundle_path = workdir / "bundle.json"

    c0 = cpu_seconds()
    t0 = time.perf_counter()
    ds = dataset.collect_dataset(specs, collectives=COLLECTIVES)
    train, test = splits.split_dataset(ds, "random", seed=0)
    selector = framework.offline_train(train, collectives=COLLECTIVES)
    bundle.save_selector(selector, bundle_path)
    shipped = bundle.load_selector(bundle_path)
    fw = framework.PmlMpiFramework(shipped, table_dir)
    runtime, rungs = {}, []
    for spec in specs:
        runtime[spec.name] = fw.setup_cluster(spec, force_regenerate=True)
        rungs.append(fw.last_report.rung)
    decisions = [runtime[spec.name].select(coll, Machine(spec, n, p), m)
                 for spec, coll, n, p, m in queries]
    t1 = time.perf_counter()
    c1 = cpu_seconds()

    counters = get_registry().counters()
    return {
        "t_window": [t0, t1], "cpu_s": c1 - c0,
        "dataset": ds, "test": test, "runtime": runtime,
        "rungs": rungs, "queries": queries, "decisions": decisions,
        "bundle_path": bundle_path, "table_dir": table_dir, "fw": fw,
        "configs": counters.get("collect.configs", len(ds)),
        "dropped": counters.get("collect.dropped", 0),
    }


def check_iteration(it: dict) -> tuple[list[str], float]:
    """The correctness gate; returns (violations, regret_pct)."""
    from repro.core import dataset
    from repro.core.framework import cross_check_deployment
    from repro.hwmodel import get_cluster
    from repro.simcluster.machine import Machine
    from repro.smpi.collectives import base
    from repro.smpi.tuning import TuningTable

    problems = []
    specs = [get_cluster(name) for name in CLUSTERS]
    grid = sum(len(dataset.feasible_configs(s, c))
               for s in specs for c in COLLECTIVES)
    ds = it["dataset"]
    if it["dropped"] != 0:
        problems.append(f"{it['dropped']} configs dropped")
    if len(ds) != grid:
        problems.append(f"collected {len(ds)} of {grid} feasible configs")
    for r in ds.records:
        if r.label not in base.algorithm_names(r.collective):
            problems.append(f"label {r.label!r} is not a {r.collective} "
                            f"algorithm")
            break
    for spec, rung in zip(specs, it["rungs"]):
        if rung != "regenerated":
            problems.append(f"setup_cluster({spec.name}) ended on rung "
                            f"{rung!r}")
        try:
            TuningTable.load(it["fw"].table_path(spec.name)).validate()
        except Exception as exc:  # any failure is a gate violation
            problems.append(f"{spec.name} table invalid: {exc}")
    report = cross_check_deployment(it["bundle_path"], it["table_dir"])
    healthy = report.healthy() if callable(report.healthy) \
        else report.healthy
    if not healthy:
        problems.append(f"cross_check_deployment: {report.errors}")
    for (spec, coll, n, p, m), algo in zip(it["queries"],
                                           it["decisions"]):
        why = base.get_algorithm(coll, algo).infeasibility(n * p) \
            if algo in base.algorithm_names(coll) else "unknown algorithm"
        if why is not None:
            problems.append(f"decision {algo!r} for {coll} at {n}x{p} "
                            f"is infeasible: {why}")
    regrets = []
    for r in it["test"].records:
        spec = get_cluster(r.cluster)
        choice = it["runtime"][r.cluster].select(
            r.collective, Machine(spec, r.nodes, r.ppn), r.msg_size)
        regrets.append(r.times[choice] / r.best_time - 1.0)
    return problems, 100.0 * sum(regrets) / len(regrets)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children (a
    worker pool's processes count toward the iteration)."""
    import resource

    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def vm_hwm_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return float("nan")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--trace", type=Path, default=None)
    args = ap.parse_args()
    out = {"t_start": T_START, "t_imported": T_IMPORTED}
    if args.import_only:
        print(json.dumps(out))
        return 0
    os.environ["PML_MPI_CACHE"] = str(args.workdir / "cache")
    if args.trace is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Recorder

        from repro.obs.telemetry import MetricsRegistry, Tracer, \
            use_telemetry

        recorder = Recorder()
        install_spans(recorder)
        with use_telemetry(Tracer(), MetricsRegistry()) as (tracer, _):
            it = run_iteration(args.seed, args.workdir)
        out["program_spans"] = len(tracer.spans)
    else:
        it = run_iteration(args.seed, args.workdir)
    problems, regret = check_iteration(it)
    out.update({
        "t_window": it["t_window"], "cpu_s": it["cpu_s"],
        "problems": problems,
        "regret_pct": regret, "configs": it["configs"],
        "dropped": it["dropped"], "rungs": it["rungs"],
        "peak_rss_mb": vm_hwm_mb(),
    })
    if args.trace is not None:
        recorder.dump(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
