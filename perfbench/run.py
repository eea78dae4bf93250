"""The repository benchmark: ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0|1``, from the root of a checkout.

Workloads (see METRICS.md for why each exists and what it measures):

* ``pipeline``     — cold collect -> train -> tune -> first decisions,
                     one fresh interpreter per iteration;
* ``serve_sweep``  — build-farm traffic against ``pml-mpi serve``,
                     closed loop on two connections;
* ``serve_reload`` — open-loop runtime traffic while the served bundle
                     is hot-reloaded every 5 s.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` spends
half the time on an untraced run and half on a traced one, and reports
the per-layer metrics (plus the tracing overhead between the two).
Every run checks the program's outputs; a violation prints the
result with ``"correct": false`` and exits 1.  The last stdout line is
the JSON result; the line before it (``DETAIL ...``) carries every
figure by name with its sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    GateError,
    import_program,
    print_table,
    require_program,
    result_line,
)

WORKLOADS = ("pipeline", "serve_sweep", "serve_reload")

#: The end-to-end metrics every workload reports (BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
    "regret_pct": "%",
}


def per_layer_names() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def pipeline_run(seed: int, seconds: float, traced: bool) -> dict:
    import pipeline

    results = pipeline.run_iterations(seed, seconds, traced)
    setups = [] if traced else pipeline.extra_setups()
    out = pipeline.summarize(results, setups)
    out["problems"] = pipeline.gate(results)
    if traced:
        out["layers"] = pipeline.layer_metrics(results)
        accounting, problems = pipeline.accounting(results)
        out["layers"].update(accounting)
        out["problems"] += problems
        out["shares"] = pipeline.shares(results)
    return out


def layer_facts(workload: str, layers: dict[str, float],
                shares: list[tuple[str, float]]) -> list[str]:
    """What each workload claims to exercise, from its own numbers."""
    problems = []
    if workload == "pipeline":
        top = next((name for name, _ in shares
                    if not name.startswith("(")), None)
        if top != "simcluster":
            problems.append(f"pipeline: the largest layer is {top}, not "
                            f"simcluster")
    else:
        if layers["simcluster.self_s"] or layers["simcluster.rounds"]:
            problems.append(f"{workload}: simcluster priced "
                            f"{layers['simcluster.rounds']:g} rounds per "
                            f"request; it should be absent")
        hit = layers["serve.cache.hit_ratio"]
        if workload == "serve_sweep" and not hit < 0.5:
            problems.append(f"serve_sweep: memo hit ratio {hit:.3f}, "
                            f"not below 0.5")
        if workload == "serve_reload" and not hit > 0.9:
            problems.append(f"serve_reload: memo hit ratio {hit:.3f}, "
                            f"not above 0.9")
    reloads = layers.get("serve.reload.count", 0)
    if (reloads > 0) != (workload == "serve_reload"):
        problems.append(f"{workload}: {reloads:g} snapshot reloads in "
                        f"the window")
    return problems


def pipeline_report(s: dict) -> dict[str, float]:
    label, tail_s = s["pipeline_tail"]
    n = s["n"]
    print_table("pipeline (end to end)", [
        ("setup_s", s["setup_s"], "s", f"median of {s['setup_n']}"),
        ("pipeline_s", s["pipeline_s"], "s", f"median of {n}"),
        (f"pipeline_s.{label}", tail_s, "s", f"of {n}"),
        ("cpu_s", s["cpu_s"], "s", f"median of {n}, per iteration"),
        ("regret_pct", s["regret_pct"], "%", "held-out records"),
        ("failed_ratio", s["failed"] / s["attempted"], "fraction",
         f"{s['failed']} of {s['attempted']}"),
        ("peak_rss_mb", s["peak_rss_mb"], "MiB", f"median of {n}"),
    ])
    return {"setup_s": s["setup_s"],
            "latency_p50_ms": 1e3 * s["pipeline_s"],
            "cpu_ms_per_op": 1e3 * s["cpu_s"],
            "peak_rss_mb": s["peak_rss_mb"],
            "regret_pct": s["regret_pct"]}


def serve_report(s: dict) -> dict[str, float]:
    label, tail_ms = s["rtt_tail"]
    rows = [
        ("setup_s", s["setup_s"], "s", f"median of {s['setup_n']} boots"),
        ("queries_per_s", s["queries_per_s"], "queries/s",
         f"{s['requests']} requests"),
        ("rtt_p50_ms", s["rtt_p50_ms"], "ms", f"of {s['rtt_n']}"),
        (f"rtt_{label}_ms", tail_ms, "ms", f"of {s['rtt_n']}"),
        ("cpu_ms_per_request", s["cpu_ms_per_request"], "ms",
         "daemon CPU over the window"),
    ]
    if s["reload_ms"] is not None:
        rows.append(("reload_ms", s["reload_ms"], "ms",
                     f"median of {s['reload_n']}"))
    rows += [
        ("failed_ratio", s["failed"] / s["attempted"], "fraction",
         f"{s['failed']} of {s['attempted']} "
         f"(+{s['warmup_requests']} warm-up requests)"),
        ("peak_rss_mb", s["peak_rss_mb"], "MiB", "daemon VmHWM"),
        ("regret_pct", s["regret_pct"] or 0.0, "%",
         f"served, {s['regret_n']} distinct answers on measured keys"),
    ]
    print_table(f"{s['workload']} (end to end)", rows)
    print(f"  stream sha256 {s['stream_digest']}; checked "
          f"{s['replies_verified']} replies of {s['requests']} window "
          f"requests, {s['rows_checked']} rows, {s['rows_verified']} "
          f"against the scalar ladder; computed rows per action "
          f"{s['computed_actions']}")
    return {"setup_s": s["setup_s"],
            "latency_p50_ms": s["rtt_p50_ms"],
            "cpu_ms_per_op": s["cpu_ms_per_request"],
            "peak_rss_mb": s["peak_rss_mb"],
            "regret_pct": s["regret_pct"]}


def run_once(workload: str, seed: int, seconds: float,
             traced: bool) -> tuple[dict, dict[str, float]]:
    if workload == "pipeline":
        s = pipeline_run(seed, seconds, traced)
        return s, pipeline_report(s)
    import serve

    s = serve.run_serve(workload, seed, seconds, traced)
    if s["regret_pct"] is None:
        s["problems"].append("no served decision had a measured key")
    return s, serve_report(s)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    require_program()
    os.chdir(ROOT)
    import_program()

    try:
        if not args.trace:
            s, e2e = run_once(args.workload, args.seed, args.seconds,
                              traced=False)
            metrics = {k: (e2e[k], u) for k, u in END_TO_END.items()}
            runs = [s]
        else:
            half = args.seconds / 2.0
            base, base_e2e = run_once(args.workload, args.seed, half,
                                      traced=False)
            s, e2e = run_once(args.workload, args.seed, half, traced=True)
            layers = dict(s["layers"])
            layers["trace.overhead_pct"] = 100.0 * (
                e2e["latency_p50_ms"] / base_e2e["latency_p50_ms"] - 1.0)
            s["problems"] += layer_facts(args.workload, layers,
                                         s["shares"])
            print("== layer self time, share of traced end-to-end time")
            for name, share in s["shares"]:
                print(f"  {name:<44} {100 * share:7.2f} %")
            metrics = {k: (float(layers.get(k, 0.0)), u)
                       for k, u in per_layer_names().items()}
            runs = [base, s]
    except GateError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    problems = [p for r in runs for p in r["problems"]]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    detail = {k: v for k, v in runs[-1].items()
              if k not in ("layers", "shares", "problems",
                           "final_counters")}
    print("DETAIL " + json.dumps(detail, default=str))
    print(result_line(not problems, sum(r["attempted"] for r in runs),
                      sum(r["failed"] for r in runs), metrics))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
