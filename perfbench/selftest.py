"""Smoke-size self-test of the benchmark harness (about two minutes):

    python3 perfbench/selftest.py

Runs the whole command on every workload at smoke size, untraced and
traced (the traced run asserts each workload's layer facts and the
trace accounting), and checks the output format; checks that request
streams are byte-identical per seed; checks that the verifier rejects
a wrong or missing decision; checks that the pipeline's trace
accounting rejects overlapping or leaked spans; checks that a renamed
entry point stops a traced run; and checks that the command fails
closed (exit code not 0, no result line) where the program's source
is absent.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, fresh_dir, import_program, remove_dir  # noqa: E402

SMOKE_SECONDS = 2
#: A traced run measures half of this untraced and half traced; the
#: traced half of serve_reload must hold its first reload (at 2.5 s).
TRACED_SECONDS = 6
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(ok: bool, what: str) -> None:
    print(f"  {'ok ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_spec(s: dict) -> None:
    print("== BENCHMARK.json")
    check(set(s) == {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}, "exactly the expected keys")
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    check(len(names) == len(set(names)), "metric names are unique")
    check(all(m["bound"] <= 0.25 for m in s["end_to_end"]),
          "every bound is at most 0.25")
    check(any(m["name"] == "setup_s" and m["unit"] == "s"
              and m["better"] == "lower" for m in s["end_to_end"]),
          "setup_s is an end-to-end metric")


def check_streams() -> None:
    import serve

    print("== seeded request streams")
    check(serve.digest(serve.sweep_stream(7))
          == serve.digest(serve.sweep_stream(7)),
          "serve_sweep: same seed, byte-identical stream")
    check(serve.digest(serve.sweep_stream(7))
          != serve.digest(serve.sweep_stream(8)),
          "serve_sweep: another seed, another stream")
    check(serve.reload_stream(7, 50) == serve.reload_stream(7, 50),
          "serve_reload: same seed, byte-identical stream")


def check_verifier() -> None:
    import serve
    from repro.core.bundle import load_selector

    print("== verifier rejects wrong answers")
    prep = serve.prepare()
    oracle = serve.Oracle(load_selector(prep.bundle_a))
    queries = json.loads(serve.sweep_stream(3)[0])["queries"][:40]
    pool = [serve._request(0, [json.dumps(q, separators=(",", ":"))
                               for q in queries])]
    decisions = []
    for q in queries:
        algo, action = oracle.expect(q["collective"], q["nodes"], q["ppn"],
                                     serve.quantize(q["msg_size"]), False)
        decisions.append({**q, "algorithm": algo, "action": action,
                          "cached": False, "detail": ""})

    def verify(decs: list) -> list:
        reply = json.dumps({"decisions": decs, "id": 0, "ok": True,
                            "snapshot": 1}).encode()
        sample = serve.Sample(0, 0.0, 0.0, 1.0, reply, True)
        return serve.verify([sample], pool, {0: oracle}, lambda v: 0,
                            prep, 1).problems

    check(not verify(decisions), "the scalar ladder's own answers pass")
    k = next(i for i, d in enumerate(decisions) if d["algorithm"])
    wrong = [dict(d) for d in decisions]
    others = [a for a in ("ring", "recursive_doubling", "bruck", "pairwise")
              if a != wrong[k]["algorithm"]]
    wrong[k]["algorithm"] = others[0]
    check(bool(verify(wrong)), "a changed algorithm is caught")
    check(bool(verify(decisions[:-1])), "a missing decision is caught")
    check(bool(verify(decisions[1:] + decisions[:1])),
          "an out-of-order reply is caught")


def check_accounting() -> None:
    import pipeline

    print("== pipeline trace accounting rejects bad spans")

    def problems(records: list) -> list:
        return pipeline.accounting([{"t_window": [0.0, 10.0],
                                     "spans": records}])[1]

    seq = [("a", 1.0, 4.0, 2.0, None, 0, None),
           ("b", 2.0, 3.0, 1.0, "a", 0, None),
           ("c", 5.0, 9.0, 4.0, None, 0, None)]
    check(not problems(seq), "nested and sequential spans add up")
    check(bool(problems(seq + [("d", 3.0, 6.0, 3.0, None, 0, None)])),
          "overlapping outermost spans are caught")
    check(bool(problems(seq + [("d", 9.5, 12.0, 2.5, None, 0, None)])),
          "a span outliving the iteration is caught")


def check_missing_entry_point() -> None:
    import launcher
    import pipeline_child
    from repro.simcluster import machine
    from spans import Recorder

    print("== a renamed entry point stops the traced run")
    saved = machine.Machine.__dict__["round_time"]
    del machine.Machine.round_time
    try:
        for name, install in (
                ("daemon launcher", lambda r: launcher.install(r, [])),
                ("pipeline child", pipeline_child.install_spans)):
            try:
                install(Recorder())
                raised = False
            except AttributeError:
                raised = True
            check(raised, f"{name}: Machine.round_time missing raises")
    finally:
        machine.Machine.round_time = saved


def run_command(cwd: Path, workload: str, trace: int) -> tuple[int, list]:
    proc = subprocess.run(
        [*spec()["command"], "--workload", workload, "--seed", "1",
         "--seconds", str(TRACED_SECONDS if trace else SMOKE_SECONDS),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(proc.stderr[-3000:])
    return proc.returncode, proc.stdout.strip().splitlines()


def check_runs(s: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in s["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in s["per_layer"]}
    for w in (x["name"] for x in s["workloads"]):
        for trace, expected in ((0, e2e), (1, layers)):
            print(f"== {w} --trace {trace}")
            rc, lines = run_command(ROOT, w, trace)
            check(rc == 0, "exit code 0")
            result = json.loads(lines[-1])
            check(set(result) == RESULT_KEYS, "result keys")
            check(result["correct"] is True, "outputs verified correct")
            check(isinstance(result["attempted"], int)
                  and result["attempted"] >= 1
                  and isinstance(result["failed"], int), "counts")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, "every metric, with its unit")
            values = [v["value"] for v in result["metrics"].values()]
            check(all(isinstance(v, (int, float)) and math.isfinite(v)
                      for v in values), "finite numbers")
            if trace == 0:
                check(all(v > 0 for v in values), "no end-to-end 0")
            else:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                print(f"  layer facts (asserted by the run): "
                      f"simcluster.self_s {m['simcluster.self_s']:.4g}, "
                      f"serve.cache.hit_ratio "
                      f"{m['serve.cache.hit_ratio']:.3f}, "
                      f"serve.reload.count {m['serve.reload.count']:.0f}, "
                      f"trace.accounting_error_pct "
                      f"{m['trace.accounting_error_pct']:.4f}")


def check_fails_closed(s: dict) -> None:
    print("== fails closed without the program")
    bare = fresh_dir("bare-")
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in s["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run_command(bare, s["workloads"][0]["name"], 0)
        check(rc != 0, "nonzero exit code")
        check(not any(line.startswith("{") for line in lines),
              "no result printed")
    finally:
        remove_dir(bare)


def main() -> int:
    import_program()
    s = spec()
    check_spec(s)
    check_streams()
    check_verifier()
    check_accounting()
    check_missing_entry_point()
    check_fails_closed(s)
    check_runs(s)
    print("SELFTEST OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
