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
        return (self._ood_rung(collective, machine, msg_size, p)
                or self._breaker_rung(collective, machine, msg_size, p)
                or self._resolve_inner(collective, machine, msg_size, p))

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
        block walks the scalar rungs in row order behind one
        vectorized fast path.

        * The OOD check runs array-at-a-time; flagged rows go through
          the scalar OOD rung (which never touches the breaker, so
          these rows are answered first).
        * Every other row passes the scalar breaker rung in row order.
        * The first admitted row and every row after it are predicted
          by one inner ``select_block`` call.  Whenever the breaker is
          closed at an admitted row and every prediction from there on
          is feasible, those rows are answered at once: while closed,
          ``allow_request`` is pure, and a run of ``record_success``
          calls is one call.  With a clean block that is the first
          admitted row.
        * Otherwise the admitted row is classified by the scalar rung,
          or, when the inner has no ``select_block`` or its call failed,
          resolved through the scalar inner ``select``.
        """
        n = len(msg_size)
        self._counters["queries"].inc(n)
        algorithms = np.empty(n, dtype=object)
        actions = np.empty(n, dtype=object)
        details = np.empty(n, dtype=object)
        details[:] = ""
        p64 = nodes * ppn
        machines: dict[tuple[int, int], Machine] = {}

        def rung_args(i: int) -> tuple[str, Machine, int, int]:
            key = (int(nodes[i]), int(ppn[i]))
            m = machines.get(key)
            if m is None:
                m = machines[key] = Machine(spec, key[0], key[1])
            return collectives[i], m, int(msg_size[i]), int(p64[i])

        def put(i: int, d: GuardDecision) -> None:
            algorithms[i] = d.algorithm
            actions[i] = d.action
            details[i] = d.detail

        ood = np.zeros(n, dtype=bool)
        for collective in dict.fromkeys(collectives.tolist()):
            rows = collectives == collective
            ood[rows] = self._ood_mask(collective, nodes[rows],
                                       ppn[rows], msg_size[rows])
        for i in np.flatnonzero(ood):
            decision = self._ood_rung(*rung_args(i))
            if decision is None:
                ood[i] = False  # in range by the scalar arithmetic
            else:
                put(i, decision)

        rows = np.flatnonzero(~ood)
        start = predicted = None
        for pos, i in enumerate(rows.tolist()):
            args = rung_args(i)
            refused = self._breaker_rung(*args)
            if refused is not None:
                put(i, refused)
                continue
            if start is None:
                start = pos
                predicted = self._predict_block(
                    spec, collectives, nodes, ppn, msg_size, p64,
                    rows[pos:])
            if predicted is None:
                put(i, self._resolve_inner(*args))
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
            put(i, self._classify(*args, prediction))
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
        block_fn = getattr(self.inner, "select_block", None)
        if block_fn is None:
            return None
        sub_coll, sub_p = collectives[rows], p64[rows]
        try:
            predictions = np.asarray(block_fn(
                spec, sub_coll, nodes[rows], ppn[rows], msg_size[rows]),
                dtype=object)
        except Exception:
            return None
        if predictions.shape != rows.shape:
            return None
        ok = np.fromiter((isinstance(v, str) for v in predictions),
                         np.bool_, len(rows))
        for collective in dict.fromkeys(sub_coll.tolist()):
            sel = sub_coll == collective
            labels = np.array(base.algorithm_names(collective))
            algos = [base.get_algorithm(collective, name)
                     for name in labels]
            min_p = np.array([a.min_processes for a in algos])
            pow2_req = np.array([a.requires_power_of_two for a in algos])
            # Truncation at 64 chars cannot alias a (short) real label.
            ps = predictions[sel].astype("U64")
            kidx = np.minimum(np.searchsorted(labels, ps),
                              len(labels) - 1)
            pr = sub_p[sel]
            ok[sel] &= (labels[kidx] == ps) & (pr >= min_p[kidx]) \
                & (~pow2_req[kidx] | base.power_of_two_mask(pr))
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

    def _ood_rung(self, collective: str, machine: Machine,
                  msg_size: int, p: int) -> GuardDecision | None:
        """Serve a query outside the trained envelope from the
        fallback; ``None`` when it is in distribution."""
        detail = self._ood_detail(collective, machine, msg_size)
        if detail is None:
            return None
        self._counters["ood_fallback"].inc()
        return self._serve_fallback(
            collective, machine, msg_size, p, ACTION_OOD, detail)

    def _breaker_rung(self, collective: str, machine: Machine,
                      msg_size: int, p: int) -> GuardDecision | None:
        """Serve the query from the fallback when the breaker refuses
        it; ``None`` when the breaker admits the inner selector."""
        if self.breaker.allow_request():
            return None
        self._counters["breaker_fallback"].inc()
        return self._serve_fallback(
            collective, machine, msg_size, p, ACTION_BREAKER,
            f"breaker {self.breaker.state}")

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
        return self._classify(collective, machine, msg_size, p, predicted)

    def _classify(self, collective: str, machine: Machine,
                  msg_size: int, p: int,
                  predicted: object) -> GuardDecision:
        """Feasibility-classify one inner prediction: ship it, or remap
        an infeasible/unknown one (a guard trip either way recorded
        against the breaker)."""
        problem = self._prediction_problem(collective, predicted, p)
        if problem is None:
            self.breaker.record_success()
            self._counters["served_model"].inc()
            return GuardDecision(collective, str(predicted), ACTION_MODEL)

        # Infeasible or unknown prediction: a guard trip; remap to the
        # best feasible alternative instead of shipping it.
        self.breaker.record_failure()
        self._counters["remapped"].inc()
        remapped = base.best_feasible(collective, machine, msg_size)
        return GuardDecision(
            collective, remapped, ACTION_REMAP,
            f"predicted {predicted!r}: {problem}")

    # -- ladder rungs ----------------------------------------------------
    def _ood_detail(self, collective: str, machine: Machine,
                    msg_size: int) -> str | None:
        env = self.envelopes.get(collective)
        if not env:
            return None
        values = {"nodes": machine.nodes, "ppn": machine.ppn,
                  "msg_size": msg_size}
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
        """Answer from the fallback heuristic, feasibility-enforced."""
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
