"""Shared helpers: checkout paths, order statistics, /proc readers and
the result line."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: The checkout the benchmark runs in (the directory above perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives under here (git-ignored).
WORK = ROOT / ".perfbench_work"

clock = time.perf_counter
#: Largest share of a workload's traced end-to-end time by which the
#: layers' self times plus the uncovered remainder may miss it.
ACCOUNTING_TOLERANCE = 0.01


class GateError(RuntimeError):
    """A correctness check failed: the run must exit nonzero."""


def require_program() -> None:
    """Exit 2 (printing no result) unless the program's source is in
    the checkout — the benchmark runs the program, never a stand-in."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run "
              f"from the root of a checkout", file=sys.stderr)
        sys.exit(2)


def import_program() -> None:
    """Make ``import repro`` resolve to the checkout's source."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def rel(path: Path) -> str:
    """*path* relative to the checkout root (daemon children run with
    the root as cwd, and a relative socket path stays far below the
    108-byte Unix socket limit however deep the checkout sits)."""
    return os.path.relpath(path, ROOT)


def fresh_dir(prefix: str) -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def source_digest() -> str:
    """Digest of the program's source tree (keys prepared inputs)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    for name in ("serve.py", "common.py"):
        h.update((Path(__file__).parent / name).read_bytes())
    return h.hexdigest()[:16]


# -- order statistics ------------------------------------------------------

def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (NumPy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def tail(values: list[float]) -> tuple[str, float]:
    """p99, or the highest whole percentile with at least ten samples
    beyond it; the maximum when there are ten samples or fewer."""
    n = len(values)
    if n >= 1000:
        return "p99", quantile(values, 0.99)
    if n > 10:
        pct = math.floor(100 * (1 - 10 / n))
        return f"p{pct}", quantile(values, pct / 100)
    return "max", max(values)


# -- /proc -----------------------------------------------------------------

def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise GateError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def stop_process(proc: subprocess.Popen, timeout_s: float = 20.0) -> None:
    """Wait for *proc*; terminate, then kill, if it overstays."""
    try:
        proc.wait(timeout=timeout_s)
        return
    except subprocess.TimeoutExpired:
        proc.terminate()
    try:
        proc.wait(timeout=5.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


# -- output ----------------------------------------------------------------

def print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    """Human-readable metric table: (name, value, unit, note)."""
    print(f"== {title}")
    for name, value, unit, note in rows:
        print(f"  {name:<38} {value:>14.6g} {unit:<10} {note}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct, "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
