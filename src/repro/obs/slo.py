"""Declarative SLOs with multi-window burn-rate evaluation.

Hunold-style performance-guideline verification applied to the serving
plane: instead of eyeballing counters, the operator declares explicit
objectives — *"99% of daemon requests complete within 250ms"*, *"95%
of requests are not shed"* — and the runtime continuously checks live
measurements against them.

Two SLO kinds map directly onto the instruments the registry already
holds:

``latency``
    Good events are histogram observations at or below ``threshold_s``.
    Counting is *conservative on bucket boundaries*: an observation is
    good only if its whole log2 bucket lies at or below the threshold,
    so picking a power-of-two threshold makes the count exact and any
    other threshold errs toward pessimism, never optimism.
``error_rate``
    Good events are ``total`` counter increments not matched by any of
    the ``bad`` counters (e.g. requests minus internal/overloaded/
    draining answers).

Evaluation follows the SRE-workbook **multi-window, multi-burn-rate**
pattern: a :class:`SloTracker` ingests cumulative ``(good, bad)``
snapshots on an injectable clock; for each configured
:class:`BurnWindow` the burn rate — bad fraction divided by the error
budget ``1 - objective`` — is computed over both a long and a short
window, and the window *fires* only when both exceed its factor (the
long window gives significance, the short one confirms the problem is
still happening).  Verdicts form the closed set :data:`VERDICTS`; the
daemon's ``health`` op, ``pml-mpi doctor`` and ``pml-mpi report`` all
surface the same structures.

Windows shorter than the recorded history clamp to the oldest sample,
so evaluation is total from the very first tick — a freshly booted
daemon reports on whatever history it has instead of erroring.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .live import bucket_bounds
from .telemetry import Gauge, Histogram, MetricsRegistry

__all__ = [
    "DEFAULT_SLOS",
    "DEFAULT_WINDOWS",
    "BurnWindow",
    "SLO_KINDS",
    "SloSpec",
    "SloTracker",
    "VERDICTS",
    "evaluate_compliance",
    "load_slos",
    "worst_verdict",
]

SLO_KINDS = ("latency", "error_rate")

#: Closed verdict set, worst-last.
VERDICTS = ("ok", "warn", "page")


@dataclass(frozen=True)
class BurnWindow:
    """One long/short window pair with its firing factor."""

    long_s: float
    short_s: float
    factor: float
    severity: str

    def __post_init__(self) -> None:
        if self.severity not in ("warn", "page"):
            raise ValueError(
                f"window severity must be warn or page, "
                f"got {self.severity!r}")
        if not 0 < self.short_s <= self.long_s:
            raise ValueError(
                f"need 0 < short_s <= long_s, "
                f"got {self.short_s}/{self.long_s}")
        if self.factor <= 0:
            raise ValueError(f"factor must be > 0, got {self.factor}")


#: SRE-workbook defaults scaled to a daemon whose soaks run seconds,
#: not weeks: the classic 1h/5m x14.4 and 6h/30m x6 pairs shrunk by
#: 60x so a chaos storm can actually trip them, with the factors —
#: the part that encodes "how fast is the budget burning" — kept.
DEFAULT_WINDOWS = (
    BurnWindow(long_s=60.0, short_s=5.0, factor=14.4, severity="page"),
    BurnWindow(long_s=360.0, short_s=30.0, factor=6.0, severity="warn"),
)


@dataclass(frozen=True)
class SloSpec:
    """One declared objective over existing registry instruments."""

    name: str
    kind: str
    objective: float
    histogram: str | None = None
    threshold_s: float | None = None
    total: str | None = None
    bad: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("SLO name must be a non-empty string")
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"SLO kind must be one of {', '.join(SLO_KINDS)}, "
                f"got {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}")
        if self.kind == "latency":
            if not self.histogram or self.threshold_s is None \
                    or not self.threshold_s > 0 \
                    or not math.isfinite(self.threshold_s):
                raise ValueError(
                    f"latency SLO {self.name!r} needs histogram and a "
                    f"positive finite threshold_s")
        else:
            if not self.total or not self.bad:
                raise ValueError(
                    f"error_rate SLO {self.name!r} needs total and at "
                    f"least one bad counter")

    @property
    def budget(self) -> float:
        """The error budget ``1 - objective``."""
        return 1.0 - self.objective

    def sample(self, counters: dict[str, int],
               histograms: dict[str, dict[int, int]],
               ) -> tuple[int, int]:
        """Cumulative ``(good, total)`` from plain metric views."""
        if self.kind == "latency":
            buckets = histograms.get(self.histogram, {})
            total = sum(buckets.values())
            good = sum(
                n for exp, n in buckets.items()
                if bucket_bounds(exp)[1] <= self.threshold_s)
            return good, total
        total = int(counters.get(self.total, 0))
        bad = sum(int(counters.get(name, 0)) for name in self.bad)
        return max(0, total - bad), total


#: The serving plane's out-of-the-box objectives.  The latency
#: threshold is a power of two (2**-2 s = 250ms) so boundary counting
#: is exact; availability counts shed and internal answers against the
#: budget but not client-side bad requests or deadline-floor degrades
#: (those still return decisions).
DEFAULT_SLOS = (
    SloSpec(name="daemon-request-latency", kind="latency",
            objective=0.99, histogram="serve.daemon.request_s",
            threshold_s=0.25),
    SloSpec(name="daemon-availability", kind="error_rate",
            objective=0.95, total="serve.daemon.requests",
            bad=("serve.daemon.internal", "serve.daemon.overloaded",
                 "serve.daemon.draining")),
)


def worst_verdict(verdicts: list[str]) -> str:
    """The most severe verdict in the list (``ok`` when empty)."""
    worst = 0
    for verdict in verdicts:
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        worst = max(worst, VERDICTS.index(verdict))
    return VERDICTS[worst]


def evaluate_compliance(spec: SloSpec, counters: dict[str, int],
                        histograms: dict[str, dict[int, int]],
                        ) -> dict[str, Any]:
    """Single-window (all-of-history) compliance for *spec*.

    This is the offline view used by ``doctor`` and ``report`` on a
    trace file: no clock, no windows — just how much of the error
    budget the recorded history consumed.  ``budget_remaining`` is the
    fraction of budget left (negative once out of compliance).
    """
    good, total = spec.sample(counters, histograms)
    bad = total - good
    compliance = good / total if total else 1.0
    bad_fraction = bad / total if total else 0.0
    budget_remaining = 1.0 - bad_fraction / spec.budget
    return {
        "name": spec.name,
        "kind": spec.kind,
        "objective": spec.objective,
        "good": good,
        "bad": bad,
        "total": total,
        "compliance": compliance,
        "budget_remaining": budget_remaining,
        "met": compliance >= spec.objective or total == 0,
    }


class SloTracker:
    """Live multi-window burn-rate evaluation over a registry.

    ``tick()`` snapshots each SLO's cumulative ``(good, total)`` pair;
    ``evaluate()`` derives per-window burn rates from snapshot deltas.
    History is bounded (``max_samples`` per SLO) and the clock is
    injectable, so the whole pipeline is deterministic under a fake
    clock — the unit tests drive minutes of history in microseconds.
    """

    def __init__(self, specs: tuple[SloSpec, ...] = DEFAULT_SLOS,
                 registry: MetricsRegistry | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
                 max_samples: int = 4096) -> None:
        if max_samples < 2:
            raise ValueError(
                f"max_samples must be >= 2, got {max_samples}")
        self.specs = tuple(specs)
        self.registry = registry
        self.clock = clock
        self.windows = tuple(windows)
        self._history: dict[str, deque[tuple[float, int, int]]] = {
            spec.name: deque(maxlen=max_samples) for spec in self.specs}

    def _views(self) -> tuple[dict[str, int], dict[str, dict[int, int]]]:
        if self.registry is None:
            raise RuntimeError("SloTracker has no registry to sample")
        # Copy the instrument table under the registry lock: a hot
        # reload may register instruments from another thread while
        # the daemon ticks on its event loop.
        with self.registry._lock:
            metrics = dict(self.registry._metrics)
        counters = {name: m.value for name, m in metrics.items()
                    if not isinstance(m, (Gauge, Histogram))}
        histograms: dict[str, dict[int, int]] = {}
        for name, metric in metrics.items():
            if isinstance(metric, Histogram):
                with metric._lock:
                    histograms[name] = dict(metric.buckets)
        return counters, histograms

    def tick(self) -> None:
        """Record one cumulative snapshot per SLO at the current time."""
        counters, histograms = self._views()
        now = float(self.clock())
        for spec in self.specs:
            good, total = spec.sample(counters, histograms)
            self._history[spec.name].append((now, good, total))

    def _window_burn(self, spec: SloSpec,
                     history: deque[tuple[float, int, int]],
                     now: float, window_s: float) -> float:
        """Burn rate over the last *window_s* seconds (clamped to the
        oldest sample; 0.0 with fewer than one delta's worth)."""
        if not history:
            return 0.0
        start = history[0]
        for sample in history:
            if sample[0] >= now - window_s:
                break
            start = sample
        _, good0, total0 = start
        _, good1, total1 = history[-1]
        dtotal = total1 - total0
        if dtotal <= 0:
            return 0.0
        dbad = dtotal - (good1 - good0)
        return (dbad / dtotal) / spec.budget

    def evaluate(self) -> dict[str, Any]:
        """Current verdicts: overall, plus one entry per SLO."""
        now = float(self.clock())
        slos: list[dict[str, Any]] = []
        for spec in self.specs:
            history = self._history[spec.name]
            windows = []
            verdict = "ok"
            for window in self.windows:
                burn_long = self._window_burn(
                    spec, history, now, window.long_s)
                burn_short = self._window_burn(
                    spec, history, now, window.short_s)
                firing = burn_long >= window.factor \
                    and burn_short >= window.factor
                windows.append({
                    "long_s": window.long_s,
                    "short_s": window.short_s,
                    "factor": window.factor,
                    "severity": window.severity,
                    "burn_long": burn_long,
                    "burn_short": burn_short,
                    "firing": firing,
                })
                if firing:
                    verdict = worst_verdict([verdict, window.severity])
            if history:
                _, good, total = history[-1]
            else:
                good = total = 0
            bad = total - good
            bad_fraction = bad / total if total else 0.0
            slos.append({
                "name": spec.name,
                "kind": spec.kind,
                "objective": spec.objective,
                "good": good,
                "bad": bad,
                "total": total,
                "compliance": good / total if total else 1.0,
                "budget_remaining": 1.0 - bad_fraction / spec.budget,
                "windows": windows,
                "verdict": verdict,
            })
        return {
            "verdict": worst_verdict([s["verdict"] for s in slos]),
            "slos": slos,
        }


def load_slos(path: Path | str) -> tuple[SloSpec, ...]:
    """Load SLO specs from a JSON file: a list of spec objects with
    the same field names as :class:`SloSpec` (``bad`` as a list).
    Raises ``ValueError`` with file context on any malformed entry."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read SLO config {path}: {exc}") \
            from None
    if not isinstance(raw, list) or not raw:
        raise ValueError(
            f"SLO config {path} must be a non-empty JSON list")
    allowed = {"name", "kind", "objective", "histogram",
               "threshold_s", "total", "bad"}
    specs = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(
                f"SLO config {path} entry {index} must be an object")
        unknown = set(entry) - allowed
        if unknown:
            raise ValueError(
                f"SLO config {path} entry {index} has unknown "
                f"key(s): {', '.join(sorted(unknown))}")
        fields = dict(entry)
        if "bad" in fields:
            bad = fields["bad"]
            if not isinstance(bad, list) \
                    or not all(isinstance(b, str) for b in bad):
                raise ValueError(
                    f"SLO config {path} entry {index}: bad must be a "
                    f"list of counter names")
            fields["bad"] = tuple(bad)
        try:
            specs.append(SloSpec(**fields))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"SLO config {path} entry {index}: {exc}") from None
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"SLO config {path} has duplicate names")
    return tuple(specs)
