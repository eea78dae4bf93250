"""The ``pml-mpi adapt`` state machine: ingest → detect → train →
gate → promote/demote, crash-safe and deterministic.

One :meth:`AdaptationLoop.run_once` call is one transaction under the
``adapt.lock`` file lock:

1. **recover** — a promotion sentinel left by a killed run is rolled
   back first (challenger quarantined, champion restored), before any
   new decision is made.
2. **ingest** — the feedback log is strictly loaded; a corrupt log is
   quarantined and the run degrades to an empty window instead of
   crashing the sidecar.
3. **probation** — right after a promotion the loop watches the
   promoted bundle on post-promotion feedback only: a regret
   regression beyond ``demote_tolerance`` demotes it (quarantine +
   champion restore); holding its shadow-evaluation promise confirms
   it as the new champion.
4. **stable** — the drift monitor replays the window through the
   serving bundle; a Page–Hinkley alarm trains a challenger on
   dataset + pre-held-out feedback, shadow-evaluates it on the
   held-out tail, and promotes only on a statistically meaningful
   regret win.

Every decision is a pure function of (feedback log, serving bundle,
config) — ticks are logical producer stamps, the detector is a
stateless fold, and the sign test is exact — so two runs over the
same inputs write byte-identical decision logs.  The ``fence_tick``
in the durable state marks the last row already judged; each verdict
advances it, so one drift episode triggers at most one
train/evaluate/promote cycle.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..core.bundle import load_selector, save_selector
from ..core.dataset import TuningDataset
from ..core.inference import PretrainedSelector
from ..core.resilience import ArtifactError, FileLock, atomic_write_text
from ..hwmodel import get_cluster
from ..obs.live import get_recorder
from ..obs.telemetry import get_registry, get_tracer
from ..smpi.guard import GuardedSelector
from ..smpi.heuristics import MvapichDefaultSelector
from .challenger import graft_champion_models, train_challenger
from .drift import DriftMonitor, DriftState
from .feedback import FeedbackLog
from .gate import ChampionChallengerGate, ShadowReport, shadow_evaluate

__all__ = ["AdaptConfig", "AdaptReport", "AdaptationLoop", "VERDICTS"]

#: Every run_once verdict; ``adapt.runs`` == Σ ``adapt.verdict.<v>``.
VERDICTS = ("recovered", "no_feedback", "stable", "promoted",
            "rejected", "probation_wait", "confirmed", "demoted")

PHASE_STABLE = "stable"
PHASE_PROBATION = "probation"


@dataclass(frozen=True)
class AdaptConfig:
    """Knobs for one adaptation loop instance."""

    cluster: str
    bundle_path: str | Path            # the serving bundle the daemon watches
    feedback_path: str | Path          # pml-mpi/feedback JSONL log
    state_dir: str | Path              # lock, state, backup, sentinel, log
    dataset_path: str | Path | None = None  # warm-start base dataset
    window: int = 256                  # rows replayed per drift check
    heldout_fraction: float = 0.25     # tail of the window kept for shadow eval
    ph_delta: float = 0.005            # Page-Hinkley magnitude tolerance
    ph_threshold: float = 0.5          # Page-Hinkley alarm level
    ph_min_samples: int = 10
    min_improvement: float = 0.02      # mean-regret win floor for promotion
    alpha: float = 0.05                # sign-test level
    probation_rows: int = 20           # post-promotion rows before a verdict
    demote_tolerance: float = 0.05     # regret slack over the shadow promise
    family: str = "rf"
    model_params: dict[str, Any] | None = None
    seed: int = 0
    n_jobs: int | None = None
    poll_s: float = 1.0                # --watch cadence
    lock_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < self.heldout_fraction < 1.0:
            raise ValueError("heldout_fraction must be in (0, 1)")
        if self.probation_rows < 1:
            raise ValueError("probation_rows must be >= 1")


@dataclass
class AdaptReport:
    """Outcome of one :meth:`AdaptationLoop.run_once`."""

    verdict: str
    detail: str
    phase: str                      # phase *after* this run
    fence_tick: int
    rows: int
    drift: DriftState | None = None
    shadow: ShadowReport | None = None
    quarantined: str | None = None  # corrupt feedback log, if any
    demoted: str | None = None      # quarantined bundle path, if any

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict, "detail": self.detail,
            "phase": self.phase, "fence_tick": self.fence_tick,
            "rows": self.rows,
            "drift": self.drift.to_dict() if self.drift else None,
            "shadow": self.shadow.to_dict() if self.shadow else None,
            "quarantined": self.quarantined, "demoted": self.demoted,
        }

    def describe(self) -> str:
        lines = [f"adapt: {self.verdict} — {self.detail}",
                 f"  phase={self.phase} fence_tick={self.fence_tick} "
                 f"rows={self.rows}"]
        if self.drift is not None:
            lines.append(
                f"  regret model={self.drift.regret_model:.4f} "
                f"floor={self.drift.regret_floor:.4f} "
                f"ph={self.drift.ph_stat:.4f} drift={self.drift.drift}")
        if self.shadow is not None:
            lines.append(
                f"  shadow: {self.shadow.wins}W/{self.shadow.losses}L/"
                f"{self.shadow.ties}T p={self.shadow.p_value:.4g} "
                f"champion={self.shadow.champion_regret:.4f} "
                f"challenger={self.shadow.challenger_regret:.4f}")
        if self.quarantined:
            lines.append(f"  quarantined feedback: {self.quarantined}")
        if self.demoted:
            lines.append(f"  demoted bundle: {self.demoted}")
        return "\n".join(lines)


@dataclass
class _State:
    """Durable loop state (``adapt_state.json``)."""

    phase: str = PHASE_STABLE
    fence_tick: int = -1
    baseline_regret: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {"phase": self.phase, "fence_tick": self.fence_tick,
                "baseline_regret": self.baseline_regret}


class AdaptationLoop:
    """See the module docstring for the state machine."""

    def __init__(self, config: AdaptConfig) -> None:
        self.config = config
        self.spec = get_cluster(config.cluster)
        self.state_dir = Path(config.state_dir)
        self.feedback = FeedbackLog(config.feedback_path)
        self.gate = ChampionChallengerGate(config.bundle_path,
                                           self.state_dir)
        self.state_path = self.state_dir / "adapt_state.json"
        self.decision_log = self.state_dir / "adapt_decisions.jsonl"
        self.lock_path = self.state_dir / "adapt.lock"
        self.staged_path = self.state_dir / "challenger.json"

    # -- durable state ---------------------------------------------------
    def _load_state(self) -> _State:
        try:
            data = json.loads(self.state_path.read_text())
        except (OSError, ValueError):
            return _State()
        if not isinstance(data, dict) \
                or data.get("phase") not in (PHASE_STABLE,
                                             PHASE_PROBATION) \
                or not isinstance(data.get("fence_tick"), int):
            return _State()
        baseline = data.get("baseline_regret")
        if baseline is not None and not isinstance(baseline, (int, float)):
            baseline = None
        return _State(phase=data["phase"],
                      fence_tick=data["fence_tick"],
                      baseline_regret=baseline)

    def _save_state(self, state: _State) -> None:
        atomic_write_text(self.state_path,
                          json.dumps(state.to_dict(), sort_keys=True,
                                     separators=(",", ":")) + "\n")

    def _log_decision(self, state: _State, report: AdaptReport) -> None:
        line = json.dumps(report.to_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"
        self.state_dir.mkdir(parents=True, exist_ok=True)
        with open(self.decision_log, "a") as fh:
            fh.write(line)
            fh.flush()

    def _finish(self, state: _State, report: AdaptReport) -> AdaptReport:
        registry = get_registry()
        registry.counter("adapt.runs").inc()
        registry.counter(f"adapt.verdict.{report.verdict}").inc()
        registry.gauge("adapt.phase").set(
            1.0 if state.phase == PHASE_PROBATION else 0.0)
        registry.gauge("adapt.fence_tick").set(float(state.fence_tick))
        # Publish the verdict into the ambient flight recorder so an
        # in-process observer (a daemon hosting the loop, or a test)
        # sees promotions/demotions next to the requests they affect;
        # cross-process observers tail the decision log instead.
        recorder = get_recorder()
        if recorder.enabled:
            recorder.record(
                "adapt", verdict=report.verdict, phase=report.phase,
                fence_tick=report.fence_tick, rows=report.rows,
                detail=report.detail[:200])
        self._save_state(state)
        self._log_decision(state, report)
        return report

    # -- helpers ---------------------------------------------------------
    def _base_dataset(self) -> tuple[TuningDataset, str]:
        """The warm-start dataset, degrading to feedback-only on a
        missing or corrupt dataset artifact (never crashing)."""
        path = self.config.dataset_path
        if path is None:
            return TuningDataset([]), "no base dataset configured"
        try:
            return TuningDataset.load(path), ""
        except (OSError, ArtifactError) as exc:
            return TuningDataset([]), (
                f"base dataset unusable ({type(exc).__name__}), "
                f"training on feedback only")

    def _demote_safe(self, reason: str) -> tuple[Path | None, str]:
        """``gate.demote`` that cannot crash the sidecar: a missing
        champion backup (quarantined, cleaned up, or a hand-edited
        ``phase=probation`` state file) degrades to keeping the
        serving bundle, returning ``(None, explanation)`` instead of
        letting ``FileNotFoundError`` escape ``run_once``."""
        try:
            return self.gate.demote(reason), "champion restored"
        except FileNotFoundError:
            get_registry().counter("adapt.gate.demote_unrestorable").inc()
            return None, ("champion backup missing, serving bundle "
                          "kept; resetting to stable")

    def _champion(self) -> GuardedSelector | None:
        try:
            inner = load_selector(self.gate.serving_path)
        except (OSError, ArtifactError):
            return None
        return GuardedSelector(inner, registry=get_registry(),
                               namespace="guard.champion")

    # -- the transaction -------------------------------------------------
    def run_once(self) -> AdaptReport:
        lock = FileLock(self.lock_path,
                        timeout_s=self.config.lock_timeout_s,
                        unlink_on_release=True)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        if FileLock.owner_is_stale(self.lock_path):
            if lock.break_stale():
                get_registry().counter("adapt.lock.broken").inc()
        with lock:
            with get_tracer().span("adapt.run_once"):
                return self._run_locked()

    def _run_locked(self) -> AdaptReport:
        cfg = self.config
        state = self._load_state()

        recovered = self.gate.recover()
        if recovered is not None:
            state.phase = PHASE_STABLE
            state.baseline_regret = None
            return self._finish(state, AdaptReport(
                verdict="recovered", detail=recovered,
                phase=state.phase, fence_tick=state.fence_tick, rows=0))

        rows, quarantined = self.feedback.load_or_quarantine()
        fresh = [r for r in rows if r.tick > state.fence_tick]
        window = fresh[-cfg.window:]
        q = str(quarantined) if quarantined is not None else None
        if not window:
            return self._finish(state, AdaptReport(
                verdict="no_feedback",
                detail="quarantined corrupt feedback log"
                if q else "no feedback newer than the fence",
                phase=state.phase, fence_tick=state.fence_tick,
                rows=0, quarantined=q))
        max_tick = max(r.tick for r in window)

        if state.phase == PHASE_PROBATION:
            return self._run_probation(state, window, max_tick, q)
        return self._run_stable(state, window, max_tick, q)

    def _run_stable(self, state: _State, window, max_tick: int,
                    quarantined: str | None) -> AdaptReport:
        cfg = self.config
        champion = self._champion()
        if champion is None:
            return self._finish(state, AdaptReport(
                verdict="stable",
                detail="serving bundle unreadable; daemon floor is "
                "authoritative, nothing to adapt",
                phase=state.phase, fence_tick=state.fence_tick,
                rows=len(window), quarantined=quarantined))
        monitor = DriftMonitor(champion, self.spec,
                               delta=cfg.ph_delta,
                               threshold=cfg.ph_threshold,
                               min_samples=cfg.ph_min_samples)
        drift = monitor.observe(window)
        if not drift.drift:
            return self._finish(state, AdaptReport(
                verdict="stable", detail="regret stream stable",
                phase=state.phase, fence_tick=state.fence_tick,
                rows=len(window), drift=drift, quarantined=quarantined))

        # Drift: train a challenger on everything but the held-out
        # tail, shadow-evaluate on the tail.
        n_heldout = max(1, int(len(window) * cfg.heldout_fraction))
        if n_heldout >= len(window):
            n_heldout = len(window) - 1
        train_rows = window[:-n_heldout] if n_heldout else list(window)
        heldout = window[-n_heldout:] if n_heldout else []
        base, base_detail = self._base_dataset()
        parent_crc = None
        try:
            from ..serve.reload import file_crc32
            parent_crc = file_crc32(self.gate.serving_path)
        except OSError:  # pragma: no cover - crc reads never raise
            pass
        if not train_rows or not heldout:
            state.fence_tick = max_tick
            return self._finish(state, AdaptReport(
                verdict="rejected",
                detail="window too small to split train/held-out",
                phase=state.phase, fence_tick=state.fence_tick,
                rows=len(window), drift=drift, quarantined=quarantined))
        try:
            challenger = train_challenger(
                base, train_rows, family=cfg.family, seed=cfg.seed,
                n_jobs=cfg.n_jobs, params=cfg.model_params,
                parent_checksum=parent_crc)
        except ValueError as exc:
            state.fence_tick = max_tick
            return self._finish(state, AdaptReport(
                verdict="rejected",
                detail=f"challenger training failed: {exc}",
                phase=state.phase, fence_tick=state.fence_tick,
                rows=len(window), drift=drift, quarantined=quarantined))

        # Coverage guard: drift only retrains collectives seen in
        # feedback; the promoted bundle must still serve every
        # collective the champion did, so graft the champion's models
        # for the rest *before* the challenger is evaluated or staged.
        if isinstance(champion.inner, PretrainedSelector):
            challenger = graft_champion_models(challenger,
                                               champion.inner)

        shadow = shadow_evaluate(
            champion.inner, challenger, heldout, self.spec,
            min_improvement=cfg.min_improvement, alpha=cfg.alpha)
        state.fence_tick = max_tick
        if not shadow.promote:
            detail = shadow.detail
            if base_detail:
                detail = f"{detail}; {base_detail}"
            return self._finish(state, AdaptReport(
                verdict="rejected", detail=detail,
                phase=state.phase, fence_tick=state.fence_tick,
                rows=len(window), drift=drift, shadow=shadow,
                quarantined=quarantined))

        save_selector(challenger, self.staged_path)
        self.gate.promote(self.staged_path, tick=max_tick)
        state.phase = PHASE_PROBATION
        state.baseline_regret = shadow.challenger_regret
        detail = f"promoted challenger: {shadow.detail}"
        if base_detail:
            detail = f"{detail}; {base_detail}"
        return self._finish(state, AdaptReport(
            verdict="promoted", detail=detail,
            phase=state.phase, fence_tick=state.fence_tick,
            rows=len(window), drift=drift, shadow=shadow,
            quarantined=quarantined))

    def _run_probation(self, state: _State, window, max_tick: int,
                       quarantined: str | None) -> AdaptReport:
        cfg = self.config
        if len(window) < cfg.probation_rows:
            return self._finish(state, AdaptReport(
                verdict="probation_wait",
                detail=f"{len(window)}/{cfg.probation_rows} "
                f"post-promotion rows",
                phase=state.phase, fence_tick=state.fence_tick,
                rows=len(window), quarantined=quarantined))
        promoted = self._champion()  # the promoted bundle now serves
        if promoted is None:
            # Serving bundle unreadable during probation: restore the
            # champion rather than keep an unverifiable promotion.
            moved, outcome = self._demote_safe(
                "serving bundle unreadable during probation")
            state.phase = PHASE_STABLE
            state.baseline_regret = None
            state.fence_tick = max_tick
            return self._finish(state, AdaptReport(
                verdict="demoted",
                detail="serving bundle unreadable during probation; "
                f"{outcome}",
                phase=state.phase, fence_tick=state.fence_tick,
                rows=len(window),
                demoted=str(moved) if moved is not None else None,
                quarantined=quarantined))
        monitor = DriftMonitor(promoted, self.spec,
                               delta=cfg.ph_delta,
                               threshold=cfg.ph_threshold,
                               min_samples=cfg.ph_min_samples)
        drift = monitor.observe(window)
        baseline = state.baseline_regret \
            if state.baseline_regret is not None else 0.0
        state.fence_tick = max_tick
        if drift.regret_model > baseline + cfg.demote_tolerance:
            moved, outcome = self._demote_safe(
                f"probation regret {drift.regret_model:.4f} exceeds "
                f"shadow promise {baseline:.4f} + "
                f"{cfg.demote_tolerance:.4f}")
            state.phase = PHASE_STABLE
            state.baseline_regret = None
            return self._finish(state, AdaptReport(
                verdict="demoted",
                detail=f"probation regret {drift.regret_model:.4f} > "
                f"promise {baseline:.4f} + tolerance "
                f"{cfg.demote_tolerance:.4f}; {outcome}",
                phase=state.phase, fence_tick=state.fence_tick,
                rows=len(window), drift=drift,
                demoted=str(moved) if moved is not None else None,
                quarantined=quarantined))
        state.phase = PHASE_STABLE
        state.baseline_regret = None
        return self._finish(state, AdaptReport(
            verdict="confirmed",
            detail=f"probation regret {drift.regret_model:.4f} within "
            f"promise {baseline:.4f} + tolerance; challenger is the "
            f"new champion",
            phase=state.phase, fence_tick=state.fence_tick,
            rows=len(window), drift=drift, quarantined=quarantined))

    # -- sidecar mode ----------------------------------------------------
    def watch(self, max_polls: int | None = None,
              on_report=None) -> list[AdaptReport]:
        """Run :meth:`run_once` on a fixed cadence until interrupted
        (or *max_polls* runs, for tests and bounded sidecars)."""
        reports: list[AdaptReport] = []
        polls = 0
        try:
            while max_polls is None or polls < max_polls:
                report = self.run_once()
                reports.append(report)
                if on_report is not None:
                    on_report(report)
                polls += 1
                if max_polls is not None and polls >= max_polls:
                    break
                time.sleep(self.config.poll_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        return reports
