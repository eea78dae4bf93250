"""Steadiness evidence: run the benchmark several times per workload,
each with another seed, and report each end-to-end metric's median,
quartiles and spread (``(q3 - q1) / median``) against its bound.

    python3 perfbench/steadiness.py [--runs 10] [--workloads W ...]
        [--seed0 100] [--out perfbench/steadiness.json]

Quartiles are Python's ``statistics.quantiles(values, n=4)``.  A
metric is steady when its spread stays below a third of its bound
(``setup_s`` is exempt from the spread rule; its median is still
compared between sets of runs).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: rc {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    detail = json.loads(lines[-2][len("DETAIL "):])
    result = json.loads(lines[-1])
    return {"seed": seed, "result": result, "detail": detail}


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run(workload, args.seed0 + i, spec["run_seconds"])
                for i in range(args.runs)]
        rows = {}
        print(f"== {workload} ({args.runs} runs, seeds {args.seed0}.."
              f"{args.seed0 + args.runs - 1})")
        for name, bound in bounds.items():
            s = summarize([r["result"]["metrics"][name]["value"]
                           for r in runs])
            ok = name == "setup_s" or s["spread"] < bound / 3
            steady &= ok
            rows[name] = {**s, "bound": bound, "steady": ok}
            print(f"  {name:<16} median {s['median']:<12.6g} q1 "
                  f"{s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread "
                  f"{s['spread']:.4f} (bound {bound}) "
                  f"{'ok' if ok else 'WIDE'}")
        report["workloads"][workload] = {
            "metrics": rows,
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "details": [r["detail"] for r in runs],
        }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
