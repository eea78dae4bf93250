"""The end-to-end PML-MPI framework (paper Figs. 3 and 4).

Offline (done once, by the library vendor)::

    dataset  = collect_dataset()              # Table I campaign
    selector = offline_train(dataset)         # pre-trained models

Online (at MPI-library compile time on each new cluster)::

    framework = PmlMpiFramework(selector, table_dir="/etc/mpi/tuning")
    runtime_selector = framework.setup_cluster(spec)

``setup_cluster`` implements Fig. 4 with a degradation ladder, because
it runs on machines the vendor never saw:

1. **cached-table** — a valid tuning table already exists; load it and
   bypass the ML path (the paper's fast path).
2. **regenerated** — no table, or the cached one is corrupt/stale/from
   another cluster (it is quarantined to ``*.corrupt``, never deleted);
   extract hardware features, batch-infer the grid, and persist the
   table atomically — retrying transient failures.
3. **heuristic-fallback** — regeneration keeps failing; hand back the
   hardware-oblivious MVAPICH default heuristic so the MPI build still
   completes with a working (if suboptimal) selector.

The rung taken, retry counts and quarantined files are recorded in a
:class:`~repro.core.resilience.HealthReport` (``last_report``), and an
inter-process file lock serializes concurrent compile-time setups on
the same table directory.  ``doctor_directory`` is the audit half:
validate every artifact in a directory (the ``pml-mpi doctor``
subcommand).
"""

from __future__ import annotations

import logging
from pathlib import Path

from ..hwmodel.specs import ClusterSpec
from ..obs.telemetry import get_registry, get_tracer
from ..obs.trace_io import load_trace
from ..simcluster.conditions import FaultProfile
from ..smpi.collectives.base import COLLECTIVES
from ..smpi.heuristics import AlgorithmSelector, MvapichDefaultSelector
from ..smpi.tuning import TableSelector, TuningTable
from .bundle import load_selector
from .dataset import TuningDataset
from .inference import PretrainedSelector, generate_tuning_table
from .resilience import (
    RUNG_CACHED,
    RUNG_FALLBACK,
    RUNG_REGENERATED,
    ArtifactCheck,
    ArtifactError,
    CorruptArtifactError,
    FileLock,
    HealthReport,
    RetryPolicy,
    StaleArtifactError,
    TransientCollectionError,
    quarantine,
)
from .training import TrainedModel, train_model

log = logging.getLogger(__name__)


def offline_train(dataset: TuningDataset, family: str = "rf",
                  collectives: tuple[str, ...] = COLLECTIVES,
                  tune: bool = False, seed: int = 0,
                  n_jobs: int | None = None) -> PretrainedSelector:
    """Train the shipped per-collective models (offline stage, Fig. 3).

    ``n_jobs`` fans ensemble fitting (and tuning) over a process pool;
    results are bit-identical to a serial run."""
    models: dict[str, TrainedModel] = {}
    for collective in collectives:
        models[collective] = train_model(dataset, collective,
                                         family=family, tune=tune,
                                         seed=seed, n_jobs=n_jobs)
    return PretrainedSelector(models)


class PmlMpiFramework:
    """Compile-time tuning-table management (online stage, Fig. 4)."""

    def __init__(self, selector: PretrainedSelector,
                 table_dir: str | Path,
                 retry: RetryPolicy | None = None,
                 fallback: AlgorithmSelector | None = None,
                 lock_timeout_s: float = 30.0) -> None:
        self.selector = selector
        self.table_dir = Path(table_dir)
        self.table_dir.mkdir(parents=True, exist_ok=True)
        self.retry = retry if retry is not None else \
            RetryPolicy(max_attempts=3, base_delay_s=0.02)
        self.fallback = fallback if fallback is not None else \
            MvapichDefaultSelector()
        self.lock_timeout_s = lock_timeout_s
        #: HealthReport of the most recent ``setup_cluster`` call.
        self.last_report: HealthReport | None = None

    def _safe_name(self, cluster_name: str) -> str:
        return cluster_name.replace(" ", "_").replace("/", "_")

    def table_path(self, cluster_name: str) -> Path:
        return self.table_dir / f"{self._safe_name(cluster_name)}.tuning.json"

    def lock_path(self, cluster_name: str) -> Path:
        return self.table_dir / f".{self._safe_name(cluster_name)}.lock"

    def has_table(self, cluster_name: str) -> bool:
        return self.table_path(cluster_name).exists()

    def setup_cluster(self, spec: ClusterSpec,
                      force_regenerate: bool = False,
                      faults: FaultProfile | None = None
                      ) -> AlgorithmSelector:
        """Fig. 4 with graceful degradation; never raises on bad
        artifacts or transient failures — see the module docstring for
        the ladder.  The full :class:`HealthReport` is available as
        ``last_report`` (or use :meth:`setup_cluster_with_report`)."""
        selector, _ = self.setup_cluster_with_report(
            spec, force_regenerate=force_regenerate, faults=faults)
        return selector

    def setup_cluster_with_report(
            self, spec: ClusterSpec, force_regenerate: bool = False,
            faults: FaultProfile | None = None
    ) -> tuple[AlgorithmSelector, HealthReport]:
        """The ladder itself, returning ``(selector, health report)``."""
        report = HealthReport(cluster=spec.name)
        self.last_report = report
        with FileLock(self.lock_path(spec.name),
                      timeout_s=self.lock_timeout_s):
            selector = self._run_ladder(spec, force_regenerate, faults,
                                        report)
        return selector, report

    # -- ladder rungs ----------------------------------------------------

    def _run_ladder(self, spec: ClusterSpec, force_regenerate: bool,
                    faults: FaultProfile | None,
                    report: HealthReport) -> AlgorithmSelector:
        path = self.table_path(spec.name)
        with get_tracer().span("tune.setup_cluster",
                               cluster=spec.name) as span:
            if path.exists() and not force_regenerate:
                selector = self._try_cached(spec, path, report)
                if selector is not None:
                    report.rung = RUNG_CACHED
                    return self._finish_rung(report, span, selector)
            selector = self._try_regenerate(spec, path, faults, report)
            if selector is not None:
                report.rung = RUNG_REGENERATED
                return self._finish_rung(report, span, selector)
            report.rung = RUNG_FALLBACK
            log.warning("setup for %s degraded to heuristic fallback "
                        "after %d attempts", spec.name, report.attempts)
            return self._finish_rung(report, span, self.fallback)

    @staticmethod
    def _finish_rung(report: HealthReport, span,
                     selector: AlgorithmSelector) -> AlgorithmSelector:
        """Record which ladder rung won on the span and the registry."""
        if span is not None:
            span.attributes["rung"] = report.rung
        get_registry().counter(f"tune.rung.{report.rung}").inc()
        return selector

    def _try_cached(self, spec: ClusterSpec, path: Path,
                    report: HealthReport) -> TableSelector | None:
        """Rung 1: a cached table, trusted only after validation.

        A mismatched cluster name, checksum failure or structural
        problem quarantines the file (``*.corrupt``) instead of
        crashing the MPI build — the very scenario Fig. 4 cannot
        afford to brick."""
        try:
            table = TuningTable.load(path)
            if table.cluster != spec.name:
                raise StaleArtifactError(
                    f"table at {path} belongs to {table.cluster!r}, "
                    f"expected {spec.name!r}")
            return TableSelector(table)
        except ArtifactError as exc:
            log.warning("cached table for %s rejected: %s",
                        spec.name, exc)
            report.record_error(str(exc))
            report.record_quarantine(quarantine(path))
            return None

    def _try_regenerate(self, spec: ClusterSpec, path: Path,
                        faults: FaultProfile | None,
                        report: HealthReport) -> TableSelector | None:
        """Rung 2: regenerate from the pretrained model with retries."""
        attempt_box = [0]

        def generate() -> TuningTable:
            attempt_box[0] += 1
            if faults is not None and faults.attempt_fails(
                    "setup_cluster", spec.name, attempt=attempt_box[0]):
                raise TransientCollectionError(
                    f"injected transient failure generating table for "
                    f"{spec.name} (attempt {attempt_box[0]})")
            return generate_tuning_table(self.selector, spec).table

        def note(attempt: int, exc: BaseException) -> None:
            report.record_error(f"attempt {attempt}: {exc}")

        try:
            table = self.retry.call(
                generate, retry_on=(TransientCollectionError,),
                on_retry=note)
        except TransientCollectionError:
            report.attempts = attempt_box[0]
            return None
        except Exception as exc:  # degraded model, bad grid, ...
            report.attempts = attempt_box[0]
            report.record_error(
                f"table generation failed unrecoverably: {exc}")
            return None
        report.attempts = attempt_box[0]
        try:
            table.save(path)
        except OSError as exc:
            # The selector still works this build; only persistence
            # for the *next* compilation was lost.
            report.record_error(f"could not persist table: {exc}")
        return TableSelector(table)


# ---------------------------------------------------------------------------
# Artifact doctor (the ``pml-mpi doctor`` subcommand)
# ---------------------------------------------------------------------------

def diagnose_artifact(path: str | Path) -> ArtifactCheck:
    """Validate one on-disk artifact, classifying it by shape.

    Never raises: every problem is folded into the returned
    :class:`ArtifactCheck` status (``ok`` / ``corrupt`` / ``stale`` /
    ``quarantined`` / ``orphan-tmp`` / ``unknown``).
    """
    path = Path(path)
    name = path.name
    if ".corrupt" in name:
        return ArtifactCheck(str(path), "quarantined", "quarantined",
                             "kept for post-mortem")
    if name.endswith(".tmp"):
        return ArtifactCheck(str(path), "tmp", "orphan-tmp",
                             "leftover from an interrupted write")
    if name.endswith(".lock"):
        return ArtifactCheck(str(path), "lock", "ok",
                             "setup serialization lock")

    if name.endswith(".tuning.json"):
        kind, loader = "tuning-table", lambda: TuningTable.load(path)
    elif name.endswith((".jsonl.gz", ".gz")):
        kind, loader = "dataset-cache", lambda: TuningDataset.load(path)
    elif name.endswith(".jsonl") and "decisions" in name:
        # Decision logs (active collection, select-batch, adapt) are
        # headerless sorted-key JSON lines, replayed byte-for-byte by
        # determinism checks — not traces, which carry a __meta__ row.
        kind, loader = "decision-log", lambda: _load_decision_log(path)
    elif name.endswith(".jsonl"):
        kind, loader = "trace", lambda: load_trace(path)
    elif name.endswith(".json"):
        kind, loader = "bundle", lambda: load_selector(path)
    else:
        return ArtifactCheck(str(path), "unknown", "unknown",
                             "not a PML-MPI artifact")
    try:
        artifact = loader()
    except StaleArtifactError as exc:
        return ArtifactCheck(str(path), kind, "stale", str(exc))
    except (ArtifactError, FileNotFoundError) as exc:
        return ArtifactCheck(str(path), kind, "corrupt", str(exc))
    detail = _trace_slo_detail(artifact) if kind == "trace" else ""
    return ArtifactCheck(str(path), kind, "ok", detail)


def _load_decision_log(path: Path) -> list[dict]:
    """Strict decision-log load: every line must be one JSON object."""
    import json

    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        try:
            row = json.loads(line)
        except ValueError as exc:
            raise CorruptArtifactError(
                f"decision log {path}: line {lineno} is not JSON "
                f"({exc})") from exc
        if not isinstance(row, dict):
            raise CorruptArtifactError(
                f"decision log {path}: line {lineno} is not a JSON "
                f"object")
        rows.append(row)
    return rows


def _trace_slo_detail(trace) -> str:
    """SLO compliance summary for a valid trace (empty when the trace
    carries none of the serving plane's instruments).  Violations are
    surfaced in the check detail, not as errors: a faithfully recorded
    bad day is a healthy artifact."""
    from ..obs.slo import DEFAULT_SLOS, evaluate_compliance
    histograms = {name: {int(e): c for e, c in h["buckets"].items()}
                  for name, h in trace.histograms().items()}
    rows = [evaluate_compliance(spec, trace.counters(), histograms)
            for spec in DEFAULT_SLOS]
    rows = [row for row in rows if row["total"]]
    return "; ".join(
        f"SLO {row['name']} "
        f"{'met' if row['met'] else 'VIOLATED'} "
        f"({row['compliance']:.4f} vs {row['objective']:.3f})"
        for row in rows)


def doctor_directory(directory: str | Path,
                     bundle: str | Path | None = None) -> HealthReport:
    """Validate every artifact under *directory* (non-recursive).

    Returns a :class:`HealthReport` whose ``checks`` list one entry per
    file; ``healthy`` is False when anything is corrupt, stale, or a
    leftover temp file.  With *bundle* set, additionally cross-checks
    every tuning table in the directory against that model bundle
    (:func:`cross_check_deployment`) and folds the results in.
    """
    directory = Path(directory)
    report = HealthReport()
    for path in sorted(directory.iterdir()):
        if path.is_dir():
            continue
        check = diagnose_artifact(path)
        report.checks.append(check)
        if check.status in ("corrupt", "stale", "orphan-tmp"):
            report.record_error(f"{check.path}: {check.status}"
                                + (f" — {check.detail}" if check.detail
                                   else ""))
        if check.status == "quarantined":
            report.record_quarantine(check.path)
    if bundle is not None:
        cross = cross_check_deployment(bundle, directory)
        report.checks.extend(cross.checks)
        report.errors.extend(cross.errors)
        report.counters.update(cross.counters)
    return report


def _model_label_space(model: TrainedModel) -> frozenset[str] | None:
    """The label set the fitted classifier can ever emit, when the
    estimator exposes it (``classes_``); ``None`` when it does not."""
    classes = getattr(model.model, "classes_", None)
    if classes is None:
        return None
    try:
        return frozenset(str(c) for c in classes)
    except TypeError:
        return None


def cross_check_deployment(bundle_path: str | Path,
                           table_dir: str | Path) -> HealthReport:
    """Consistency check across a deployment: model bundle vs. the
    tuning tables generated from it (``pml-mpi doctor --bundle``).

    A table that loads cleanly can still be inconsistent with the
    shipped bundle — built for a collective the bundle has no model
    for, filed under the wrong cluster name, or containing algorithm
    labels the fitted classifier could never have emitted (a tampered
    or hand-edited table).  Each table gets one ``cross-check``
    :class:`ArtifactCheck`; every inconsistency is also recorded as an
    error, so ``healthy`` reflects the whole deployment.
    """
    bundle_path = Path(bundle_path)
    table_dir = Path(table_dir)
    report = HealthReport()
    try:
        selector = load_selector(bundle_path)
    except (ArtifactError, FileNotFoundError) as exc:
        report.checks.append(ArtifactCheck(
            str(bundle_path), "bundle", "corrupt", str(exc)))
        report.record_error(f"{bundle_path}: cannot cross-check "
                            f"against bundle — {exc}")
        return report
    report.checks.append(ArtifactCheck(str(bundle_path), "bundle", "ok"))
    label_spaces = {coll: _model_label_space(model)
                    for coll, model in selector.models.items()}

    tables = sorted(table_dir.glob("*.tuning.json"))
    report.counters["cross_checked_tables"] = len(tables)
    for path in tables:
        problems: list[str] = []
        try:
            table = TuningTable.load(path)
        except ArtifactError:
            # doctor_directory already reports the load failure; the
            # cross-check only covers tables that load.
            continue
        expected_stem = path.name[:-len(".tuning.json")]
        if table.cluster.replace(" ", "_").replace("/", "_") \
                != expected_stem:
            problems.append(
                f"filed as {expected_stem!r} but table belongs to "
                f"cluster {table.cluster!r}")
        for coll, configs in table.entries.items():
            if coll not in selector.models:
                problems.append(
                    f"table has {coll} entries but the bundle has no "
                    f"{coll} model (models: "
                    f"{', '.join(sorted(selector.models))})")
                continue
            labels = label_spaces.get(coll)
            foreign = sorted(
                {algo for bps in configs.values() for _, algo in bps}
                - labels) if labels is not None else []
            if foreign:
                problems.append(
                    f"{coll} entries use labels the bundled model "
                    f"cannot emit: {', '.join(foreign)}")
        status = "ok" if not problems else "stale"
        check = ArtifactCheck(str(path), "cross-check", status,
                              "; ".join(problems))
        report.checks.append(check)
        for problem in problems:
            report.record_error(f"{path}: {problem}")
    return report
