"""Runtime guard layer around algorithm selection.

PR 1 hardened the *compile-time* side (validated artifacts, retry,
quarantine); this module hardens the *runtime* query path — the thing
every MPI call hits.  A :class:`GuardedSelector` wraps any
:class:`~repro.smpi.heuristics.AlgorithmSelector` and enforces, per
query, the guard ladder::

    validate -> OOD check -> circuit breaker -> feasibility -> floor

1. **Input validation** — malformed queries (non-positive message
   sizes, zero-rank shapes, unknown collectives) raise typed
   :class:`~repro.smpi.heuristics.InvalidQueryError` before touching
   any model or threshold arithmetic.
2. **Out-of-distribution routing** — queries far outside the model's
   trained grid envelope (persisted into bundle metadata at training
   time) are served by the hardware-oblivious fallback heuristic
   instead of trusting far extrapolation, per Hunold's
   performance-guidelines argument (PAPERS.md).
3. **Circuit breaker** — consecutive guard trips (inner-selector
   exceptions, infeasible or unknown predictions) trip a
   :class:`~repro.core.resilience.CircuitBreaker`; while open, every
   query is served by the fallback, and a deterministic half-open
   probe re-admits the inner selector once it recovers.
4. **Feasibility enforcement** — a prediction that cannot run on the
   queried communicator shape (power-of-two-only family on a 6-node
   job, unknown label from a corrupt model) is remapped to the best
   feasible alternative by analytic cost, never returned as-is.
5. **Heuristic floor** — if even the fallback misbehaves, the guard
   degrades to the cheapest feasible registry algorithm; the guard
   itself never raises for a well-formed query.

Per-query health counters (queries served, remaps, OOD hits, breaker
transitions) are typed :class:`~repro.obs.telemetry.Counter`
instruments in a per-instance metrics registry, exposed via
:meth:`GuardedSelector.health_report` (and the read-only ``counters``
snapshot property); the ``pml-mpi chaos`` harness asserts the layer's
invariants under tens of thousands of adversarial queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.resilience import BREAKER_CLOSED, CircuitBreaker, HealthReport
from ..obs.telemetry import MetricsRegistry
from ..simcluster.machine import Machine
from .collectives import base
from .heuristics import (
    AlgorithmSelector,
    InvalidQueryError,
    MvapichDefaultSelector,
    UnknownCollectiveError,
    validate_query,
)

__all__ = [
    "ACTION_BREAKER",
    "ACTION_ERROR",
    "ACTION_MODEL",
    "ACTION_OOD",
    "ACTION_REMAP",
    "GuardDecision",
    "GuardedSelector",
    "InvalidQueryError",
    "UnknownCollectiveError",
    "extract_envelopes",
    "validate_query",
]

#: How a guarded query was served.
ACTION_MODEL = "model"            # inner selector, prediction feasible
ACTION_REMAP = "remap"            # inner prediction infeasible; remapped
ACTION_OOD = "ood-fallback"       # query outside trained envelope
ACTION_BREAKER = "breaker-fallback"  # breaker open; inner not consulted
ACTION_ERROR = "error-fallback"   # inner selector raised

#: Counter names, in reporting order.  The first six partition
#: ``queries`` exactly (the reconciliation invariant the chaos harness
#: asserts); ``fallback_floored`` counts how often even the fallback's
#: answer had to be replaced by the registry floor.
COUNTER_KEYS = (
    "queries",
    "invalid",
    "served_model",
    "remapped",
    "ood_fallback",
    "breaker_fallback",
    "error_fallback",
    "fallback_floored",
)


@dataclass(frozen=True)
class GuardDecision:
    """Full record of one guarded selection."""

    collective: str
    algorithm: str
    action: str          # one of the ACTION_* constants
    detail: str = ""


def extract_envelopes(selector: AlgorithmSelector
                      ) -> dict[str, dict[str, tuple[float, float]]]:
    """Per-collective trained grid envelopes carried by *selector*.

    Works for any selector exposing a ``models`` mapping of objects
    with an ``envelope`` property (:class:`~repro.core.training.
    TrainedModel` does); returns ``{}`` for heuristic selectors and
    pre-envelope bundles, which disables OOD routing.
    """
    out: dict[str, dict[str, tuple[float, float]]] = {}
    models = getattr(selector, "models", None)
    if not isinstance(models, dict):
        return out
    for collective, model in models.items():
        env = getattr(model, "envelope", None)
        if env:
            out[collective] = env
    return out


def _block_call(selector: AlgorithmSelector, spec: object,
                collectives: np.ndarray, nodes: np.ndarray,
                ppn: np.ndarray, msg_size: np.ndarray,
                rows: np.ndarray) -> np.ndarray | None:
    """*selector*'s ``select_block`` answers for *rows*, as an object
    array; ``None`` when it has no block call, or the call raises or
    returns the wrong shape."""
    block_fn = getattr(selector, "select_block", None)
    if block_fn is None:
        return None
    try:
        answers = np.asarray(block_fn(
            spec, collectives[rows], nodes[rows], ppn[rows],
            msg_size[rows]), dtype=object)
    except Exception:
        return None
    return answers if answers.shape == rows.shape else None


def _feasible_mask(collectives: np.ndarray, p: np.ndarray,
                   answers: np.ndarray) -> np.ndarray:
    """Row-wise: is ``answers[i]`` a known algorithm name of
    ``collectives[i]`` that can run on ``p[i]`` ranks?  The vectorized
    ``_prediction_problem(...) is None`` (same label set, same
    ``min_processes`` and power-of-two declarations)."""
    ok = np.fromiter((isinstance(v, str) for v in answers), np.bool_,
                     len(answers))
    for collective in dict.fromkeys(collectives.tolist()):
        sel = collectives == collective
        labels = np.array(base.algorithm_names(collective))
        algos = [base.get_algorithm(collective, name) for name in labels]
        min_p = np.array([a.min_processes for a in algos])
        pow2_req = np.array([a.requires_power_of_two for a in algos])
        # Only strings are looked up (a junk object's str() may raise).
        # The fixed-width copy drops trailing NULs and truncates, so it
        # only finds the candidate label; the original must equal it.
        strs = np.where(ok[sel], answers[sel], "")
        kidx = np.minimum(np.searchsorted(labels, strs.astype("U64")),
                          len(labels) - 1)
        ps = p[sel]
        ok[sel] &= (labels[kidx].astype(object) == strs) \
            & (ps >= min_p[kidx]) \
            & (~pow2_req[kidx] | base.power_of_two_mask(ps))
    return ok


class GuardedSelector(AlgorithmSelector):
    """Feasibility-checked, circuit-broken wrapper around a selector.

    See the module docstring for the guard ladder.  For a well-formed
    query this never raises and always returns an algorithm that is
    feasible for the queried communicator shape; malformed queries
    raise typed :class:`InvalidQueryError` subclasses.
    """

    def __init__(self, inner: AlgorithmSelector,
                 fallback: AlgorithmSelector | None = None,
                 breaker: CircuitBreaker | None = None,
                 envelopes: dict[str, dict[str, tuple[float, float]]]
                 | None = None,
                 ood_margin_log2: float = 1.0,
                 registry: MetricsRegistry | None = None,
                 namespace: str = "guard") -> None:
        self.inner = inner
        self.fallback = fallback if fallback is not None \
            else MvapichDefaultSelector()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: collective -> {dim: (lo, hi)}; empty disables OOD routing.
        self.envelopes = envelopes if envelopes is not None \
            else extract_envelopes(inner)
        if ood_margin_log2 < 0:
            raise ValueError("ood_margin_log2 must be >= 0")
        #: A query is OOD when any of nodes/ppn/msg_size lies more than
        #: this many octaves outside the trained envelope.
        self.ood_margin_log2 = ood_margin_log2
        #: Health counters are registry instruments, one per
        #: COUNTER_KEYS entry under ``<namespace>.*`` (``guard.*`` by
        #: default).  Defaults to a fresh per-instance registry so two
        #: guards never share counts; pass a registry to aggregate
        #: across instances — and a distinct namespace (e.g.
        #: ``guard.champion`` / ``guard.challenger``) when two guards
        #: *must* share one registry without merging their partitions.
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.namespace = namespace
        self._counters = {k: self.registry.counter(f"{namespace}.{k}")
                          for k in COUNTER_KEYS}

    # -- the guarded hot path -------------------------------------------
    def select(self, collective: str, machine: Machine,
               msg_size: int) -> str:
        return self.explain(collective, machine, msg_size).algorithm

    def explain(self, collective: str, machine: Machine,
                msg_size: int) -> GuardDecision:
        """Run the guard ladder, returning the full decision record."""
        self._counters["queries"].inc()
        try:
            validate_query(collective, machine, msg_size)
        except InvalidQueryError:
            self._counters["invalid"].inc()
            raise
        p = int(machine.nodes) * int(machine.ppn)
        # OOD routing happens before the breaker so far-extrapolation
        # queries neither consume a half-open probe nor count against
        # the inner selector's health.
        detail = self._ood_detail(collective, machine.nodes, machine.ppn,
                                  msg_size)
        if detail is not None:
            self._counters["ood_fallback"].inc()
            return self._serve_fallback(collective, machine, msg_size, p,
                                        ACTION_OOD, detail)
        detail = self._breaker_refusal()
        if detail is not None:
            self._counters["breaker_fallback"].inc()
            return self._serve_fallback(collective, machine, msg_size, p,
                                        ACTION_BREAKER, detail)
        return self._resolve_inner(collective, machine, msg_size, p)

    def explain_block(self, spec: object, collectives: np.ndarray,
                      nodes: np.ndarray, ppn: np.ndarray,
                      msg_size: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar :meth:`explain` over **prevalidated** rows.

        The caller (the serving layer) guarantees every row already
        satisfies :func:`validate_query` and fits *spec*'s machine
        bounds.  ``(algorithms, actions, details)``, the health
        counters and the breaker's transitions equal those of
        ``[explain(r) for r in rows]``, in every breaker state: the
        block walks the scalar rungs' decisions in row order behind
        one vectorized fast path, and answers the fallback rows after
        the walk.

        * The OOD check runs array-at-a-time; each flagged row gets the
          scalar OOD decision (action, detail).
        * Every other row passes the breaker's ``allow_request`` in row
          order; a refused row gets its decision (``breaker open`` /
          ``breaker half-open``) when it is refused.
        * The first admitted row and every row after it are predicted
          by one inner ``select_block`` call.  Whenever the breaker is
          closed at an admitted row and every prediction from there on
          is feasible, those rows are answered at once: while closed,
          ``allow_request`` is pure, and a run of ``record_success``
          calls is one call.  With a clean block that is the first
          admitted row.
        * Otherwise the admitted row's prediction is judged by the
          scalar rung (and remapped when infeasible), or, when the
          inner has no ``select_block`` or its call failed, resolved
          through the scalar inner ``select``.
        * The OOD and breaker-refused rows are answered together by one
          fallback ``select_block`` call, checked by the same
          feasibility mask as the predictions.  The fallback never
          touches the breaker, so answering them last changes nothing.
          A row whose answer is not a known feasible name at its p,
          or every such row when the fallback has no ``select_block``
          or its call failed, goes through the scalar floor.

        A :class:`Machine` is built only for the scalar rungs that need
        one: a remap, the scalar inner ``select`` and the floor.  A
        machine keeps every plan it prices, so the block holds one
        machine at a time, and the remaps of the block's predictions,
        which neither the breaker nor a counter sees (``_judge`` already
        recorded them), are answered after the walk, grouped by job
        shape.
        """
        n = len(msg_size)
        self._counters["queries"].inc(n)
        algorithms = np.empty(n, dtype=object)
        actions = np.empty(n, dtype=object)
        details = np.empty(n, dtype=object)
        details[:] = ""
        p64 = nodes * ppn
        machine: Machine | None = None

        def rung_args(i: int) -> tuple[str, Machine, int, int]:
            nonlocal machine
            shape = (int(nodes[i]), int(ppn[i]))
            if machine is None or (machine.nodes, machine.ppn) != shape:
                machine = Machine(spec, *shape)
            return collectives[i], machine, int(msg_size[i]), int(p64[i])

        def put(i: int, d: GuardDecision) -> None:
            algorithms[i] = d.algorithm
            actions[i] = d.action
            details[i] = d.detail

        ood = np.zeros(n, dtype=bool)
        for collective in dict.fromkeys(collectives.tolist()):
            rows = collectives == collective
            ood[rows] = self._ood_mask(collective, nodes[rows],
                                       ppn[rows], msg_size[rows])
        for i in np.flatnonzero(ood).tolist():
            detail = self._ood_detail(collectives[i], int(nodes[i]),
                                      int(ppn[i]), int(msg_size[i]))
            if detail is None:
                ood[i] = False  # in range by the scalar arithmetic
            else:
                details[i] = detail
        actions[ood] = ACTION_OOD
        self._counters["ood_fallback"].inc(int(ood.sum()))

        rows = np.flatnonzero(~ood)
        refused: list[int] = []
        remapped: list[int] = []
        start = predicted = None
        for pos, i in enumerate(rows.tolist()):
            detail = self._breaker_refusal()
            if detail is not None:
                refused.append(i)
                details[i] = detail
                continue
            if start is None:
                start = pos
                predicted = self._predict_block(
                    spec, collectives, nodes, ppn, msg_size, p64,
                    rows[pos:])
            if predicted is None:
                put(i, self._resolve_inner(*rung_args(i)))
                continue
            predictions, clean = predicted
            j = pos - start
            if clean[j] and self.breaker.state == BREAKER_CLOSED:
                rest = rows[pos:]
                algorithms[rest] = predictions[j:]
                actions[rest] = ACTION_MODEL
                self._counters["served_model"].inc(len(rest))
                self.breaker.record_success()
                break
            prediction = predictions[j]
            if isinstance(prediction, str):
                # np.str_ -> str, so the detail repr matches explain's.
                prediction = str(prediction)
            detail = self._judge(collectives[i], int(p64[i]), prediction)
            if detail is None:
                algorithms[i], actions[i] = prediction, ACTION_MODEL
            else:
                remapped.append(i)
                details[i] = detail
        for i in sorted(remapped, key=lambda i: (nodes[i], ppn[i])):
            collective, m, msg, _ = rung_args(i)
            put(i, self._remap(collective, m, msg, details[i]))
        actions[refused] = ACTION_BREAKER
        self._counters["breaker_fallback"].inc(len(refused))

        fallback = ood.copy()
        fallback[refused] = True
        rows = np.flatnonzero(fallback)
        if len(rows):
            answers = _block_call(self.fallback, spec, collectives,
                                  nodes, ppn, msg_size, rows)
            if answers is not None:
                ok = _feasible_mask(collectives[rows], p64[rows], answers)
                algorithms[rows[ok]] = answers[ok]
                rows = rows[~ok]
            for i in rows.tolist():
                put(i, self._serve_fallback(*rung_args(i), actions[i],
                                            details[i]))
        return algorithms, actions, details

    def _predict_block(self, spec: object, collectives: np.ndarray,
                       nodes: np.ndarray, ppn: np.ndarray,
                       msg_size: np.ndarray, p64: np.ndarray,
                       rows: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray] | None:
        """One inner ``select_block`` call over *rows*: the predictions
        and ``clean``, where ``clean[j]`` says predictions ``j:`` are
        all feasible.  ``None`` when the inner has no block call, or
        the call raises or returns the wrong shape."""
        predictions = _block_call(self.inner, spec, collectives, nodes,
                                  ppn, msg_size, rows)
        if predictions is None:
            return None
        ok = _feasible_mask(collectives[rows], p64[rows], predictions)
        return predictions, np.logical_and.accumulate(ok[::-1])[::-1]

    def _ood_mask(self, collective: str, nodes: np.ndarray,
                  ppn: np.ndarray, msg_size: np.ndarray) -> np.ndarray:
        """Vectorized is-OOD decision of :meth:`_ood_detail` (same
        divisions, same log2, same strict-margin comparison)."""
        mask = np.zeros(len(nodes), dtype=bool)
        env = self.envelopes.get(collective)
        if not env:
            return mask
        values = {"nodes": nodes, "ppn": ppn, "msg_size": msg_size}
        margin = self.ood_margin_log2
        for dim, (lo, hi) in env.items():
            v = values.get(dim)
            if v is None or lo <= 0:
                continue
            v = v.astype(np.float64)
            offset = np.where(v < lo, np.log2(v / lo),
                              np.where(v > hi, np.log2(v / hi), 0.0))
            mask |= np.abs(offset) > margin
        return mask

    # -- ladder rungs ----------------------------------------------------
    #
    # Each rung is split into a decision (action, detail, breaker
    # record) that explain and explain_block share, and an answer
    # (_serve_fallback / _remap), which explain gives at once and
    # explain_block gives in bulk where it can.

    def _ood_detail(self, collective: str, nodes: int, ppn: int,
                    msg_size: int) -> str | None:
        """Why the query is outside the trained envelope (the OOD
        rung's decision); ``None`` when it is in distribution."""
        env = self.envelopes.get(collective)
        if not env:
            return None
        values = {"nodes": nodes, "ppn": ppn, "msg_size": msg_size}
        margin = self.ood_margin_log2
        for dim, (lo, hi) in env.items():
            value = values.get(dim)
            if value is None or lo <= 0:
                continue
            offset = math.log2(value / lo) if value < lo \
                else math.log2(value / hi) if value > hi else 0.0
            if abs(offset) > margin:
                return (f"{dim}={value} is {abs(offset):.1f} octaves "
                        f"outside trained envelope [{lo:g}, {hi:g}]")
        return None

    def _breaker_refusal(self) -> str | None:
        """The breaker rung's decision: ``None`` when the breaker
        admits the inner selector, else the breaker-fallback detail."""
        if self.breaker.allow_request():
            return None
        return f"breaker {self.breaker.state}"

    def _resolve_inner(self, collective: str, machine: Machine,
                       msg_size: int, p: int) -> GuardDecision:
        """Consult the scalar inner selector (admission already granted)
        and classify its answer."""
        try:
            predicted = self.inner.select(collective, machine, msg_size)
        except InvalidQueryError:
            # The inner selector is stricter than the shared validator
            # (e.g. a FixedSelector for another collective): a guard
            # trip, served by the fallback.
            self.breaker.record_failure()
            self._counters["error_fallback"].inc()
            return self._serve_fallback(
                collective, machine, msg_size, p, ACTION_ERROR,
                "inner selector rejected the query")
        except Exception as exc:
            self.breaker.record_failure()
            self._counters["error_fallback"].inc()
            return self._serve_fallback(
                collective, machine, msg_size, p, ACTION_ERROR,
                f"inner selector raised {type(exc).__name__}: {exc}")
        detail = self._judge(collective, p, predicted)
        if detail is None:
            return GuardDecision(collective, str(predicted), ACTION_MODEL)
        return self._remap(collective, machine, msg_size, detail)

    def _judge(self, collective: str, p: int,
               predicted: object) -> str | None:
        """Feasibility-classify one inner prediction and record it
        against the breaker: ``None`` ships it; otherwise the remap
        detail (an infeasible or unknown prediction is a guard trip)."""
        problem = self._prediction_problem(collective, predicted, p)
        if problem is None:
            self.breaker.record_success()
            self._counters["served_model"].inc()
            return None
        self.breaker.record_failure()
        self._counters["remapped"].inc()
        return f"predicted {predicted!r}: {problem}"

    def _remap(self, collective: str, machine: Machine, msg_size: int,
               detail: str) -> GuardDecision:
        """Answer a judged-infeasible prediction with the best feasible
        alternative instead of shipping it."""
        return GuardDecision(
            collective, base.best_feasible(collective, machine, msg_size),
            ACTION_REMAP, detail)

    def _prediction_problem(self, collective: str, predicted: object,
                            p: int) -> str | None:
        """Why *predicted* must not be shipped (``None`` = it is fine)."""
        if not isinstance(predicted, str):
            return f"not an algorithm name ({type(predicted).__name__})"
        try:
            algo = base.get_algorithm(collective, predicted)
        except KeyError:
            return "unknown algorithm (corrupt model output?)"
        return algo.infeasibility(p)

    def _serve_fallback(self, collective: str, machine: Machine,
                        msg_size: int, p: int, action: str,
                        detail: str) -> GuardDecision:
        """Answer from the fallback heuristic, feasibility-enforced:
        the scalar floor under every fallback answer."""
        try:
            algo = self.fallback.select(collective, machine, msg_size)
        except Exception as exc:
            algo = None
            detail += f"; fallback raised {type(exc).__name__}"
        if algo is None or self._prediction_problem(
                collective, algo, p) is not None:
            if algo is not None:
                self._counters["fallback_floored"].inc()
                detail += f"; fallback chose infeasible {algo!r}"
            algo = base.best_feasible(collective, machine, msg_size)
        return GuardDecision(collective, algo, action, detail)

    @property
    def counters(self) -> dict[str, int]:
        """Snapshot of the health counters, in COUNTER_KEYS order
        (a plain dict, so every pre-registry read site keeps working)."""
        return {k: c.value for k, c in self._counters.items()}

    # -- health ----------------------------------------------------------
    def health_report(self) -> HealthReport:
        """Runtime health counters + breaker state as a HealthReport
        (the same shape ``pml-mpi doctor`` renders)."""
        report = HealthReport(rung="runtime-guard")
        report.counters = dict(self.counters)
        for key, count in self.breaker.transition_counts().items():
            report.counters[f"breaker[{key}]"] = count
        report.counters["breaker_cycles"] = self.breaker.cycles()
        return report

    def describe(self) -> str:
        return (f"GuardedSelector({self.inner.describe()}, "
                f"fallback={self.fallback.describe()}, "
                f"breaker={self.breaker.state})")
