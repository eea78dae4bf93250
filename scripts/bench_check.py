#!/usr/bin/env python3
"""CI gate for the columnar serving benchmark.

Reads the committed ``BENCH_results.json``, re-runs the benchmark
harness in ``--quick`` mode on this machine, and fails when the
``serve_batch_columnar`` entry regresses against the committed floor.
That entry times the service's block path against the scalar guard
ladder (``GuardedSelector.explain`` on each quantized key):

* ``identical_to_scalar`` must be ``true`` both in the committed file
  and in the fresh quick run — decision identity is machine-independent
  and holds at any batch size, so any ``false`` is a real bug, never
  noise.
* The committed ``speedup_vs_scalar`` must itself clear
  ``--min-speedup`` (the acceptance floor of the block path), so a
  regressed results file cannot be committed quietly.
* The quick run's speedup must clear ``derate * committed_speedup``.
  CI boxes are slower and noisier than the machine that produced the
  committed figure, and quick mode times a smaller batch, so the gate
  derates the floor rather than demanding the committed number; the
  defaults still fail hard when the block path silently degrades to
  scalar-equivalent cost (speedup ~1).

The ``flight_recorder_overhead`` entry is gated the same way: the
committed ``overhead_frac`` must stay under ``--max-overhead`` (the
< 5 % acceptance bar for recording on the hot serving path), and the
quick re-run must stay under a derated multiple of that bar — the
absolute overhead is a tiny per-block cost, so the noisy quick run
gets headroom rather than the committed figure's exact ceiling.

The ``active_collect`` entry is gated *without* any derating: both
the committed figures and the quick re-run must spend at most
``--max-active-ratio`` of the exhaustive sweep's simulated core-hours
while staying within ``--max-accuracy-gap`` of its test accuracy.
Campaigns are fully deterministic (simulated measurements, seeded
acquisition), so these are exact machine-independent facts — any
violation is a real regression in the acquisition loop, never noise.

Exit codes: 0 = gate passed, 1 = regression detected, 2 = missing or
invalid results file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.bench import run_benchmarks, validate_bench_file  # noqa: E402

ENTRY = "serve_batch_columnar"
RECORDER_ENTRY = "flight_recorder_overhead"
ACTIVE_ENTRY = "active_collect"


def _check_active(cfg: dict, source: str, max_ratio: float,
                  max_gap: float) -> list[str]:
    """Gate one ``active_collect`` config; returns failure strings."""
    failures = []
    ratio = cfg.get("core_hours_ratio")
    if not isinstance(ratio, (int, float)) or ratio > max_ratio:
        failures.append(
            f"{source} active_collect core_hours_ratio {ratio!r} "
            f"exceeds the {max_ratio:g} ceiling (active must cost "
            f"<= {max_ratio:.0%} of the exhaustive sweep)")
    gap = cfg.get("accuracy_gap")
    if not isinstance(gap, (int, float)) or gap > max_gap:
        failures.append(
            f"{source} active_collect accuracy_gap {gap!r} exceeds "
            f"the {max_gap:g} ceiling (active must stay within "
            f"{max_gap:.0%} of exhaustive test accuracy)")
    return failures


def _entry_config(results: dict, source: str,
                  entry_name: str = ENTRY) -> dict:
    entry = results.get(entry_name)
    if entry is None:
        print(f"bench-check: FAIL: {source} has no "
              f"{entry_name!r} entry")
        raise SystemExit(2)
    return entry["config"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default="BENCH_results.json",
                        help="committed results file (default: %(default)s)")
    parser.add_argument("--min-speedup", type=float, default=50.0,
                        help="floor the committed speedup must clear "
                             "(default: %(default)s)")
    parser.add_argument("--derate", type=float, default=0.33,
                        help="fraction of the committed speedup the "
                             "quick re-run must reach (default: "
                             "%(default)s)")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="ceiling for the committed flight-recorder "
                             "overhead fraction (default: %(default)s)")
    parser.add_argument("--overhead-headroom", type=float, default=3.0,
                        help="multiple of --max-overhead the quick "
                             "re-run may reach before failing "
                             "(default: %(default)s)")
    parser.add_argument("--max-active-ratio", type=float, default=0.5,
                        help="ceiling for active-collection core-hours "
                             "as a fraction of the exhaustive sweep "
                             "(default: %(default)s)")
    parser.add_argument("--max-accuracy-gap", type=float, default=0.02,
                        help="ceiling for the active-vs-exhaustive "
                             "test-accuracy gap (default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the bench selector "
                             "fit (default: %(default)s)")
    args = parser.parse_args(argv)

    try:
        committed = validate_bench_file(args.results)
    except (OSError, ValueError) as exc:
        print(f"bench-check: FAIL: cannot load {args.results}: {exc}")
        return 2
    ccfg = _entry_config(committed, args.results)

    failures: list[str] = []
    if ccfg.get("identical_to_scalar") is not True:
        failures.append(
            f"committed identical_to_scalar is "
            f"{ccfg.get('identical_to_scalar')!r}, expected True")
    committed_speedup = ccfg.get("speedup_vs_scalar")
    if not isinstance(committed_speedup, (int, float)) \
            or committed_speedup < args.min_speedup:
        failures.append(
            f"committed speedup_vs_scalar {committed_speedup!r} "
            f"is below the {args.min_speedup:g}x acceptance floor")
    rcfg = _entry_config(committed, args.results, RECORDER_ENTRY)
    committed_overhead = rcfg.get("overhead_frac")
    if not isinstance(committed_overhead, (int, float)) \
            or committed_overhead >= args.max_overhead:
        failures.append(
            f"committed flight-recorder overhead_frac "
            f"{committed_overhead!r} is not under the "
            f"{args.max_overhead:.0%} ceiling")
    acfg = _entry_config(committed, args.results, ACTIVE_ENTRY)
    failures.extend(_check_active(acfg, "committed",
                                  args.max_active_ratio,
                                  args.max_accuracy_gap))
    if failures:
        for f in failures:
            print(f"bench-check: FAIL: {f}")
        return 1

    print(f"bench-check: committed {ENTRY}: "
          f"{committed_speedup:.2f}x, identical_to_scalar=true")
    print(f"bench-check: committed {RECORDER_ENTRY}: "
          f"{committed_overhead:+.2%}")
    print(f"bench-check: committed {ACTIVE_ENTRY}: "
          f"{acfg['core_hours_ratio']:.2%} of exhaustive core-hours, "
          f"accuracy gap {acfg['accuracy_gap']:+.4f}")
    print("bench-check: running quick benchmark ...")
    fresh = run_benchmarks(quick=True, jobs=args.jobs, progress=True)
    fcfg = _entry_config(fresh, "the quick bench run")
    fresh_speedup = fcfg["speedup_vs_scalar"]
    floor = args.derate * committed_speedup
    print(f"bench-check: quick run: {fresh_speedup:.2f}x "
          f"(floor {floor:.2f}x), identical_to_scalar="
          f"{str(fcfg['identical_to_scalar']).lower()}")

    if fcfg["identical_to_scalar"] is not True:
        failures.append("quick run decisions diverge from the scalar "
                        "ladder (identical_to_scalar=false)")
    if fresh_speedup < floor:
        failures.append(
            f"quick run speedup {fresh_speedup:.2f}x fell below "
            f"{floor:.2f}x ({args.derate:g} x committed "
            f"{committed_speedup:.2f}x)")
    fresh_overhead = _entry_config(
        fresh, "the quick bench run", RECORDER_ENTRY)["overhead_frac"]
    ceiling = args.overhead_headroom * args.max_overhead
    print(f"bench-check: quick run recorder overhead "
          f"{fresh_overhead:+.2%} (ceiling {ceiling:.0%})")
    if fresh_overhead >= ceiling:
        failures.append(
            f"quick run flight-recorder overhead {fresh_overhead:.2%} "
            f"reached the {ceiling:.0%} ceiling "
            f"({args.overhead_headroom:g} x {args.max_overhead:.0%})")
    facfg = _entry_config(fresh, "the quick bench run", ACTIVE_ENTRY)
    print(f"bench-check: quick run {ACTIVE_ENTRY}: "
          f"{facfg['core_hours_ratio']:.2%} of exhaustive core-hours, "
          f"accuracy gap {facfg['accuracy_gap']:+.4f}")
    failures.extend(_check_active(facfg, "quick run",
                                  args.max_active_ratio,
                                  args.max_accuracy_gap))
    if failures:
        for f in failures:
            print(f"bench-check: FAIL: {f}")
        return 1
    print("bench-check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
