"""The ``pipeline`` workload: the per-cluster compile-time cost.

Each iteration is a fresh interpreter (``pipeline_child.py``) with
``PML_MPI_CACHE`` in a fresh directory, so the dataset cache, the
measurement and feasible-grid memos and the packed-tree arenas all
start cold, as they do for a ``pml-mpi`` invocation.  Iterations run
back to back until the measuring time is used up.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from common import (
    ACCOUNTING_TOLERANCE,
    GateError,
    ROOT,
    child_env,
    clock,
    fresh_dir,
    median,
    remove_dir,
    tail,
)
from spans import intervals, load_records, self_times

CHILD = Path(__file__).resolve().parent / "pipeline_child.py"
#: Iterations per run, at least (a run measures for --seconds, but
#: never on fewer samples than this).
MIN_ITERATIONS = 3
#: Import-only interpreter spawns added to each run's set-up samples.
EXTRA_SETUPS = 6
#: Span name -> the layer its self time is reported under.
LAYER_OF = {
    "simcluster.round": "simcluster",
    "smpi.tuning.measure": "smpi.tuning",
    "smpi.tuning.lookup": "smpi.tuning",
    "ml.forest.fit": "ml.fit",
    "ml.tree.fit": "ml.fit",
    "core.training.rank": "core.training",
    "core.bundle.save": "core.bundle",
    "core.bundle.load": "core.bundle",
}
UNCOVERED = "(uncovered: pipeline glue)"


def _spawn(args: list[str], workdir: Path, seed: int) -> dict:
    t_spawn = clock()
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--seed", str(seed),
         "--workdir", str(workdir), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=170)
    if proc.returncode != 0:
        raise GateError(f"pipeline iteration exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-800:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["t_spawn"] = t_spawn
    return out


def run_iterations(seed: int, seconds: float, traced: bool) -> list[dict]:
    """Back-to-back cold iterations for *seconds* (at least
    MIN_ITERATIONS); iteration *i* draws its decision queries from
    ``seed * 1000 + i``."""
    results = []
    start = clock()
    while clock() - start < seconds or len(results) < MIN_ITERATIONS:
        workdir = fresh_dir("pipe-")
        try:
            args = ["--trace", str(workdir / "spans.json")] if traced \
                else []
            out = _spawn(args, workdir, seed * 1000 + len(results))
            if traced:
                out["spans"] = load_records(workdir / "spans.json")
        finally:
            remove_dir(workdir)
        results.append(out)
    return results


def extra_setups() -> list[dict]:
    workdir = fresh_dir("pipe-")
    try:
        return [_spawn(["--import-only"], workdir, 0)
                for _ in range(EXTRA_SETUPS)]
    finally:
        remove_dir(workdir)


def gate(results: list[dict]) -> list[str]:
    problems = [p for r in results for p in r["problems"]]
    regrets = {r["regret_pct"] for r in results}
    if len(regrets) != 1:
        problems.append(f"regret differs across iterations: {regrets}")
    return problems


def summarize(results: list[dict], setups: list[dict]) -> dict:
    """End-to-end figures of one run."""
    pipeline_s = [r["t_window"][1] - r["t_window"][0] for r in results]
    label, tail_s = tail(pipeline_s)
    setup = [r["t_imported"] - r["t_spawn"] for r in results + setups]
    attempted = sum(r["configs"] + r["dropped"] + len(r["rungs"])
                    for r in results)
    failed = sum(r["dropped"] + sum(x == "fallback" for x in r["rungs"])
                 for r in results)
    return {
        "n": len(results),
        "pipeline_s": median(pipeline_s),
        "pipeline_tail": (label, tail_s),
        "cpu_s": median([r["cpu_s"] for r in results]),
        "setup_s": median(setup),
        "setup_n": len(setup),
        "regret_pct": results[0]["regret_pct"],
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
        "attempted": attempted,
        "failed": failed,
    }


def _window(r: dict) -> list[tuple]:
    lo, hi = r["t_window"]
    return [rec for rec in r["spans"] if lo <= rec[1] <= hi]


def accounting(results: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per iteration, the layers' self times plus the time no outermost
    span covers must add up to the iteration's traced time.  The
    uncovered time is measured on its own (the gaps between outermost
    spans), so the sum fails to add up when spans overlap, leak out of
    the iteration or carry wrong self times."""
    problems = []
    e2e = covered = uncovered = error = 0.0
    for i, r in enumerate(results):
        lo, hi = r["t_window"]
        span = hi - lo
        records = _window(r)
        total, union = intervals(records)
        self_sum = sum(rec[3] for rec in records)
        leaked = [rec[0] for rec in records if rec[4] is None
                  and rec[2] > hi]
        gap = span - union
        err = abs(self_sum + gap - span)
        if leaked:
            problems.append(f"iteration {i}: spans {sorted(set(leaked))} "
                            f"outlive the iteration")
        if total > span:
            problems.append(f"iteration {i}: outermost spans cover "
                            f"{total:.4f} s of a {span:.4f} s iteration")
        if err > ACCOUNTING_TOLERANCE * span:
            problems.append(f"iteration {i}: self times + uncovered "
                            f"miss the traced time by "
                            f"{100 * err / span:.3f} % (tolerance "
                            f"{100 * ACCOUNTING_TOLERANCE:g} %)")
        e2e += span
        covered += total
        uncovered += gap
        error += err
    n = len(results)
    return {
        "trace.e2e_ms": 1e3 * e2e / n,
        "trace.covered_ms": 1e3 * covered / n,
        "trace.uncovered_ms": 1e3 * uncovered / n,
        "trace.accounting_error_pct": 100.0 * error / e2e,
    }, problems


def layer_metrics(results: list[dict]) -> dict[str, float]:
    """Per-layer figures (per iteration means) of one traced run."""
    n = len(results)
    agg = self_times([rec for r in results for rec in _window(r)])

    def get(layer: str, key: str) -> float:
        return agg.get(layer, {}).get(key, 0.0)

    measure_calls = get("smpi.tuning.measure", "calls")
    # Inside collection, every memo miss of measured_time prices one
    # schedule (one estimate call); a hit prices none.
    memo_misses = get("smpi.collectives", "calls")
    lookups = get("smpi.tuning.lookup", "calls")
    return {
        "simcluster.rounds": get("simcluster.round", "calls") / n,
        "simcluster.self_s": (get("simcluster", "self_s")
                              + get("simcluster.round", "self_s")) / n,
        "smpi.collectives.schedules": memo_misses / n,
        "smpi.collectives.self_s": get("smpi.collectives", "self_s") / n,
        "smpi.tuning.measure_calls": measure_calls / n,
        "smpi.tuning.memo_hit_ratio":
            1.0 - memo_misses / measure_calls if measure_calls else 0.0,
        "smpi.tuning.lookup_us":
            1e6 * get("smpi.tuning.lookup", "total_s") / lookups
            if lookups else 0.0,
        "smpi.tuning.self_s": (get("smpi.tuning.measure", "self_s")
                               + get("smpi.tuning.lookup", "self_s")) / n,
        "core.dataset.self_s": get("core.dataset", "self_s") / n,
        "core.dataset.configs": sum(r["configs"] for r in results) / n,
        "core.dataset.dropped": sum(r["dropped"] for r in results) / n,
        "core.splits.self_s": get("core.splits", "self_s") / n,
        "ml.trees_fit": get("ml.tree.fit", "calls") / n,
        "ml.fit_s": (get("ml.forest.fit", "self_s")
                     + get("ml.tree.fit", "self_s")) / n,
        "core.training.self_s": (get("core.training", "self_s")
                                 + get("core.training.rank", "self_s")) / n,
        "core.training.rank_share":
            get("core.training.rank", "total_s")
            / get("core.training", "total_s")
            if get("core.training", "total_s") else 0.0,
        "core.bundle.save_s": get("core.bundle.save", "total_s") / n,
        "core.bundle.load_s": get("core.bundle.load", "total_s") / n,
        "core.inference.self_s": get("core.inference", "self_s") / n,
        "core.inference.configs": get("core.inference", "amount") / n,
        "core.framework.self_s": get("core.framework", "self_s") / n,
        "core.framework.rung.cached":
            sum(x == "cached" for r in results for x in r["rungs"]) / n,
        "core.framework.rung.regenerated":
            sum(x == "regenerated" for r in results for x in r["rungs"]) / n,
        "core.framework.rung.fallback":
            sum(x == "fallback" for r in results for x in r["rungs"]) / n,
        "obs.program_spans":
            sum(r.get("program_spans", 0) for r in results) / n,
    }


def shares(results: list[dict]) -> list[tuple[str, float]]:
    """(layer, share of traced end-to-end time) by self time, largest
    first, then the uncovered remainder."""
    e2e = sum(r["t_window"][1] - r["t_window"][0] for r in results)
    agg: dict[str, float] = {}
    for layer, row in self_times(
            [rec for r in results for rec in _window(r)]).items():
        name = LAYER_OF.get(layer, layer)
        agg[name] = agg.get(name, 0.0) + row["self_s"]
    covered = sum(agg.values())
    rows = sorted(agg.items(), key=lambda kv: -kv[1])
    rows.append((UNCOVERED, e2e - covered))
    return [(name, v / e2e) for name, v in rows]
