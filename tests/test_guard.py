"""Runtime guard layer: shared validation, feasibility predicates,
the circuit breaker state machine, and GuardedSelector's ladder."""

import pytest

from repro.core.framework import offline_train
from repro.core.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.core.training import train_model, training_envelope
from repro.hwmodel import get_cluster
from repro.simcluster.machine import Machine
from repro.smpi.collectives import base
from repro.smpi.guard import (
    ACTION_BREAKER,
    ACTION_ERROR,
    ACTION_MODEL,
    ACTION_OOD,
    ACTION_REMAP,
    GuardedSelector,
    extract_envelopes,
)
from repro.smpi.heuristics import (
    AlgorithmSelector,
    FixedSelector,
    InvalidQueryError,
    MvapichDefaultSelector,
    OpenMpiDefaultSelector,
    RandomSelector,
    UnknownCollectiveError,
    validate_query,
)
from repro.smpi.tuning import OracleSelector, TableSelector, TuningTable


@pytest.fixture(scope="module")
def machine():
    return Machine(get_cluster("RI"), 2, 8)


@pytest.fixture(scope="module")
def odd_machine():
    """p = 6: not a power of two, trips the constrained families."""
    return Machine(get_cluster("Rome"), 3, 2)


# ---------------------------------------------------------------------------
# Shared input validation (satellite 1)
# ---------------------------------------------------------------------------

class _Shape:
    def __init__(self, nodes, ppn):
        self.nodes = nodes
        self.ppn = ppn


class TestValidateQuery:
    def test_accepts_well_formed(self, machine):
        validate_query("allgather", machine, 1024)

    @pytest.mark.parametrize("msg", [0, -1, -(1 << 20)])
    def test_rejects_non_positive_msg(self, machine, msg):
        with pytest.raises(InvalidQueryError):
            validate_query("allgather", machine, msg)

    @pytest.mark.parametrize("msg", [1.5, "1024", None, True])
    def test_rejects_non_integer_msg(self, machine, msg):
        with pytest.raises(InvalidQueryError):
            validate_query("allgather", machine, msg)

    @pytest.mark.parametrize("msg", [2**62 + 1, 2**70])
    def test_rejects_msg_over_2_62(self, machine, msg):
        """Every valid query fits int64, quantized size included."""
        validate_query("allgather", machine, 2**62)
        with pytest.raises(InvalidQueryError, match="at most 2\\*\\*62"):
            validate_query("allgather", machine, msg)
        guard = GuardedSelector(MvapichDefaultSelector())
        with pytest.raises(InvalidQueryError):
            guard.explain("allgather", machine, msg)

    def test_rejects_unknown_collective(self, machine):
        with pytest.raises(UnknownCollectiveError):
            validate_query("no_such_collective", machine, 1024)

    def test_unknown_collective_is_value_and_key_error(self, machine):
        """Pre-guard callers caught ValueError or KeyError; both keep
        working."""
        with pytest.raises(ValueError):
            validate_query("bogus", machine, 1024)
        with pytest.raises(KeyError):
            validate_query("bogus", machine, 1024)

    @pytest.mark.parametrize("shape", [
        _Shape(0, 8), _Shape(2, 0), _Shape(-1, 8), _Shape(2, -4),
        _Shape(2.5, 8), _Shape(2, "8"), _Shape(True, 8),
    ])
    def test_rejects_degenerate_shapes(self, shape):
        with pytest.raises(InvalidQueryError):
            validate_query("alltoall", shape, 1024)


SELECTOR_FACTORIES = [
    MvapichDefaultSelector,
    OpenMpiDefaultSelector,
    RandomSelector,
    lambda: FixedSelector("allgather", "ring"),
    OracleSelector,
]


class TestAllSelectorsValidate:
    """Every AlgorithmSelector implementation rejects malformed queries
    with the shared typed errors (regression: they used to silently
    compute with garbage or die with unrelated exceptions)."""

    @pytest.mark.parametrize("factory", SELECTOR_FACTORIES)
    def test_negative_msg(self, factory, machine):
        with pytest.raises(InvalidQueryError):
            factory().select("allgather", machine, -4)

    @pytest.mark.parametrize("factory", SELECTOR_FACTORIES)
    def test_unknown_collective(self, factory, machine):
        with pytest.raises(UnknownCollectiveError):
            factory().select("gossip", machine, 1024)

    def test_table_selector_validates(self, machine):
        table = TuningTable("RI",
                            {"allgather": {(2, 8): [(1 << 20, "ring")]}})
        sel = TableSelector(table)
        with pytest.raises(InvalidQueryError):
            sel.select("allgather", machine, 0)
        with pytest.raises(UnknownCollectiveError):
            sel.select("gossip", machine, 64)

    def test_pretrained_validates(self, mini_dataset):
        sel = offline_train(mini_dataset, collectives=("allgather",))
        machine = Machine(get_cluster("RI"), 2, 8)
        with pytest.raises(InvalidQueryError):
            sel.select("allgather", machine, -1)
        # Known-but-unmodeled collective: still the historical KeyError.
        with pytest.raises(KeyError, match="no pre-trained model"):
            sel.select("bcast", machine, 64)

    def test_fixed_selector_still_rejects_wrong_collective(self, machine):
        sel = FixedSelector("allgather", "ring")
        with pytest.raises(ValueError, match="fixed for"):
            sel.select("alltoall", machine, 64)


# ---------------------------------------------------------------------------
# Feasibility predicates (satellite 2)
# ---------------------------------------------------------------------------

class TestFeasibilityPredicates:
    def test_power_of_two_constraint(self):
        algo = base.get_algorithm("allgather", "recursive_doubling")
        assert algo.requires_power_of_two
        assert algo.feasible(8)
        assert not algo.feasible(6)
        assert "power-of-two" in algo.infeasibility(6)
        assert algo.infeasibility(8) is None

    def test_min_processes_constraint(self):
        algo = base.get_algorithm("alltoall", "inplace")
        assert algo.min_processes == 2
        assert not algo.feasible(1)
        assert ">=" in algo.infeasibility(1)

    @pytest.mark.parametrize("collective", base.ALL_COLLECTIVES)
    @pytest.mark.parametrize("p", [1, 2, 6, 7, 8, 12])
    def test_every_collective_keeps_a_feasible_algorithm(
            self, collective, p):
        """The guard's floor relies on this: no shape is unservable."""
        assert base.feasible_algorithm_names(collective, p)

    def test_feasible_names_excludes_constrained(self):
        names = base.feasible_algorithm_names("allgather", 6)
        assert "recursive_doubling" not in names
        assert "ring" in names
        assert base.is_feasible("allgather", "recursive_doubling", 8)
        assert not base.is_feasible("allgather", "recursive_doubling", 6)

    def test_lookups_read_the_registry_not_a_copy(self, monkeypatch):
        """``algorithms()`` hands out a copy: changing it leaves
        ``get_algorithm`` unchanged, and the serving-path lookups never
        build one."""
        ring = base.get_algorithm("allgather", "ring")
        copy = base.algorithms("allgather")
        copy["ring"] = None
        copy["bogus"] = ring
        copies = []
        monkeypatch.setattr(base, "algorithms",
                            lambda c: copies.append(c))
        assert base.get_algorithm("allgather", "ring") is ring
        with pytest.raises(KeyError, match="'bogus'; known: .*ring"):
            base.get_algorithm("allgather", "bogus")
        with pytest.raises(ValueError, match="unknown collective"):
            base.get_algorithm("gather", "ring")
        assert "ring" in base.feasible_algorithm_names("allgather", 6)
        assert base.is_feasible("allgather", "ring", 6)
        assert copies == []

    def test_heuristics_never_return_infeasible(self, odd_machine):
        """MVAPICH thresholds are gated on the registry predicates, so
        at p=6 the RD buckets fall through to feasible families."""
        sel = MvapichDefaultSelector()
        p = odd_machine.nodes * odd_machine.ppn
        for collective in base.ALL_COLLECTIVES:
            for msg in (8, 4096, 1 << 20):
                algo = sel.select(collective, odd_machine, msg)
                assert base.is_feasible(collective, algo, p), \
                    (collective, msg, algo)


# ---------------------------------------------------------------------------
# Circuit breaker state machine (satellite 4)
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def make(self, threshold=3, timeout=10.0):
        clock = FakeClock()
        return CircuitBreaker(failure_threshold=threshold,
                              recovery_timeout_s=timeout,
                              clock=clock), clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow_request()

    def test_opens_at_threshold_not_before(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow_request()

    def test_success_resets_consecutive_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_after_timeout_single_probe(self):
        breaker, clock = self.make(threshold=1, timeout=10.0)
        breaker.record_failure()
        assert not breaker.allow_request()
        clock.advance(9.9)
        assert not breaker.allow_request()
        clock.advance(0.2)
        assert breaker.allow_request()          # the probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow_request()      # only one in flight

    def test_probe_success_closes(self):
        breaker, clock = self.make(threshold=1, timeout=10.0)
        breaker.record_failure()
        clock.advance(11)
        assert breaker.allow_request()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow_request()
        assert breaker.cycles() == 1

    def test_probe_failure_reopens(self):
        breaker, clock = self.make(threshold=1, timeout=10.0)
        breaker.record_failure()
        clock.advance(11)
        assert breaker.allow_request()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow_request()
        assert breaker.cycles() == 0
        # ... and it can still recover later.
        clock.advance(11)
        assert breaker.allow_request()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.cycles() == 1

    def test_transition_counts(self):
        breaker, clock = self.make(threshold=1, timeout=1.0)
        for _ in range(2):
            breaker.record_failure()
            clock.advance(2)
            assert breaker.allow_request()
            breaker.record_success()
        counts = breaker.transition_counts()
        assert counts["closed->open"] == 2
        assert counts["open->half-open"] == 2
        assert counts["half-open->closed"] == 2
        assert breaker.cycles() == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_timeout_s=-1.0)


# ---------------------------------------------------------------------------
# GuardedSelector ladder (the tentpole)
# ---------------------------------------------------------------------------

class ScriptedSelector(AlgorithmSelector):
    """Returns / raises whatever the test scripts, in order."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def select(self, collective, machine, msg_size):
        self.calls += 1
        step = self.script.pop(0) if self.script else "ring"
        if isinstance(step, BaseException) or (
                isinstance(step, type)
                and issubclass(step, BaseException)):
            raise step
        return step


def make_guard(script, **kwargs):
    kwargs.setdefault("breaker", CircuitBreaker(
        failure_threshold=3, recovery_timeout_s=10.0, clock=FakeClock()))
    return GuardedSelector(ScriptedSelector(script), **kwargs)


class TestGuardedSelector:
    def test_clean_prediction_passes_through(self, machine):
        guard = make_guard(["ring"])
        decision = guard.explain("allgather", machine, 1024)
        assert (decision.algorithm, decision.action) == \
            ("ring", ACTION_MODEL)
        assert guard.counters["served_model"] == 1

    def test_invalid_query_raises_and_counts(self, machine):
        guard = make_guard(["ring"])
        with pytest.raises(InvalidQueryError):
            guard.select("allgather", machine, -1)
        assert guard.counters["invalid"] == 1
        assert guard.counters["queries"] == 1

    def test_infeasible_prediction_remapped(self, odd_machine):
        guard = make_guard(["recursive_doubling"])
        decision = guard.explain("allgather", odd_machine, 1024)
        p = odd_machine.nodes * odd_machine.ppn
        assert base.is_feasible("allgather", decision.algorithm, p)
        assert decision.action == ACTION_REMAP
        assert "power-of-two" in decision.detail
        assert guard.counters["remapped"] == 1

    def test_unknown_label_remapped(self, machine):
        guard = make_guard(["__garbage__"])
        decision = guard.explain("alltoall", machine, 64)
        assert base.is_feasible("alltoall", decision.algorithm, 16)
        assert decision.action == ACTION_REMAP

    def test_inner_exception_served_by_fallback(self, machine):
        guard = make_guard([RuntimeError("model exploded")])
        decision = guard.explain("allgather", machine, 1024)
        assert base.is_feasible("allgather", decision.algorithm, 16)
        assert decision.action == ACTION_ERROR
        assert guard.counters["error_fallback"] == 1

    def test_breaker_opens_then_recovers(self, machine):
        clock = FakeClock()
        guard = make_guard(
            [RuntimeError("boom")] * 3 + ["ring"] * 10,
            breaker=CircuitBreaker(failure_threshold=3,
                                   recovery_timeout_s=10.0, clock=clock))
        for _ in range(3):
            guard.select("allgather", machine, 1024)
        assert guard.breaker.state == BREAKER_OPEN
        # While open, the inner selector is not consulted.
        calls_before = guard.inner.calls
        assert guard.explain("allgather", machine, 1024).action == \
            ACTION_BREAKER
        assert guard.inner.calls == calls_before
        # After the timeout, one probe goes through and closes it.
        clock.advance(11)
        assert guard.explain("allgather", machine, 1024).action == \
            ACTION_MODEL
        assert guard.breaker.state == BREAKER_CLOSED
        assert guard.breaker.cycles() == 1

    def test_ood_routes_to_fallback(self, mini_dataset):
        sel = offline_train(mini_dataset,
                            collectives=("allgather", "alltoall"))
        guard = GuardedSelector(sel)
        assert guard.envelopes  # lifted from the trained models
        huge = Machine(get_cluster("Frontera"), 2048, 16)
        decision = guard.explain("allgather", huge, 1024)
        assert decision.action == ACTION_OOD
        assert "octaves" in decision.detail
        assert base.is_feasible("allgather", decision.algorithm, 2048 * 16)
        assert guard.counters["ood_fallback"] == 1

    def test_in_envelope_not_ood(self, mini_dataset):
        sel = offline_train(mini_dataset, collectives=("allgather",))
        guard = GuardedSelector(sel)
        machine = Machine(get_cluster("RI"), 2, 8)
        assert guard.explain("allgather", machine, 1024).action == \
            ACTION_MODEL

    def test_no_envelope_disables_ood(self, machine):
        guard = make_guard(["ring"] * 2, envelopes={})
        huge = Machine(get_cluster("Frontera"), 2048, 16)
        assert guard.explain("allgather", huge, 1024).action == \
            ACTION_MODEL

    def test_fallback_infeasible_answer_floored(self, odd_machine):
        """Even a misbehaving fallback cannot ship an infeasible
        algorithm: the guard floors to the cheapest feasible one."""
        guard = make_guard(
            [RuntimeError("boom")],
            fallback=FixedSelector("allgather", "recursive_doubling"))
        algo = guard.select("allgather", odd_machine, 1024)
        p = odd_machine.nodes * odd_machine.ppn
        assert base.is_feasible("allgather", algo, p)
        assert guard.counters["fallback_floored"] == 1

    def test_fallback_exception_floored(self, odd_machine):
        class Bomb(AlgorithmSelector):
            def select(self, collective, machine, msg_size):
                raise RuntimeError("fallback exploded too")

        guard = make_guard([RuntimeError("boom")], fallback=Bomb())
        algo = guard.select("allgather", odd_machine, 1024)
        assert base.is_feasible("allgather", algo,
                                odd_machine.nodes * odd_machine.ppn)

    def test_counters_partition_queries(self, machine, odd_machine):
        guard = make_guard(
            ["ring", "recursive_doubling", RuntimeError("x")] * 4)
        fired = 0
        for msg in (64, 1024, 1 << 16):
            for m in (machine, odd_machine):
                guard.select("allgather", m, msg)
                fired += 1
        try:
            guard.select("allgather", machine, -1)
        except InvalidQueryError:
            pass
        fired += 1
        c = guard.counters
        assert c["queries"] == fired
        assert (c["invalid"] + c["served_model"] + c["remapped"]
                + c["ood_fallback"] + c["breaker_fallback"]
                + c["error_fallback"]) == fired

    def test_health_report(self, machine):
        guard = make_guard(["ring"])
        guard.select("allgather", machine, 1024)
        report = guard.health_report()
        assert report.counters["queries"] == 1
        assert report.counters["served_model"] == 1
        assert "queries" in report.describe()

    def test_best_feasible_prefers_cheap(self, odd_machine):
        p = odd_machine.nodes * odd_machine.ppn
        name = base.best_feasible("allgather", odd_machine, 1 << 20)
        names = base.feasible_algorithm_names("allgather", p)
        assert name in names
        best = min(names, key=lambda n: base.get_algorithm(
            "allgather", n).estimate(odd_machine, 1 << 20))
        assert name == best


# ---------------------------------------------------------------------------
# Envelope persistence (tentpole plumbing)
# ---------------------------------------------------------------------------

class TestEnvelope:
    def test_training_envelope_matches_dataset(self, mini_dataset):
        sub = mini_dataset.filter(collective="allgather")
        env = training_envelope(sub)
        assert env["nodes"][0] >= 1
        assert env["msg_size"][0] >= 1
        assert env["nodes"][0] <= env["nodes"][1]

    def test_train_model_persists_envelope(self, mini_dataset):
        model = train_model(mini_dataset, "allgather",
                            params={"n_estimators": 5})
        env = model.envelope
        assert env is not None
        assert set(env) == {"nodes", "ppn", "msg_size"}
        lo, hi = env["msg_size"]
        assert 0 < lo <= hi

    def test_malformed_envelope_metadata_is_none(self, mini_dataset):
        model = train_model(mini_dataset, "allgather",
                            params={"n_estimators": 5})
        model.metadata["envelope"] = {"nodes": [1]}
        assert model.envelope is None
        model.metadata["envelope"] = "garbage"
        assert model.envelope is None

    def test_extract_envelopes_heuristic_selector_empty(self):
        assert extract_envelopes(MvapichDefaultSelector()) == {}

    def test_ood_margin_in_octaves(self):
        guard = GuardedSelector(
            ScriptedSelector(["ring"] * 10),
            envelopes={"allgather": {"nodes": (2.0, 2.0),
                                     "ppn": (4.0, 8.0),
                                     "msg_size": (1.0, 1 << 20)}},
            ood_margin_log2=1.0)
        # 1 octave outside is tolerated, >1 octave is OOD.
        assert guard._ood_detail("allgather", 4, 8, 1024) is None
        detail = guard._ood_detail("allgather", 16, 8, 1024)
        assert detail is not None and "nodes" in detail
        assert guard._ood_detail("allgather", 2, 8, 1 << 22) is not None

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            GuardedSelector(MvapichDefaultSelector(), ood_margin_log2=-1)


# ---------------------------------------------------------------------------
# Registry-backed counters (observability layer)
# ---------------------------------------------------------------------------

class TestRegistryBackedCounters:
    """The guard's health counters are registry instruments; the
    counter-partition invariant must reconcile exactly through them."""

    def test_counters_live_in_per_instance_registry(self, machine):
        guard = make_guard(["ring"])
        guard.select("allgather", machine, 1024)
        assert guard.registry.counter("guard.queries").value == 1
        assert guard.registry.counter("guard.served_model").value == 1
        assert guard.counters["queries"] == 1

    def test_two_guards_do_not_share_counts(self, machine):
        a, b = make_guard(["ring"]), make_guard(["ring"])
        a.select("allgather", machine, 1024)
        assert a.counters["queries"] == 1
        assert b.counters["queries"] == 0

    def test_explicit_registry_aggregates(self, machine):
        from repro.obs.telemetry import MetricsRegistry

        shared = MetricsRegistry()
        a = make_guard(["ring"], registry=shared)
        b = make_guard(["ring"], registry=shared)
        a.select("allgather", machine, 1024)
        b.select("allgather", machine, 1024)
        assert shared.counter("guard.queries").value == 2

    def test_partition_invariant_reconciles_via_registry(
            self, machine, odd_machine):
        guard = make_guard(
            ["ring", "recursive_doubling", RuntimeError("x")] * 4)
        fired = 0
        for msg in (64, 1024, 1 << 16):
            for m in (machine, odd_machine):
                guard.select("allgather", m, msg)
                fired += 1
        try:
            guard.select("allgather", machine, -1)
        except InvalidQueryError:
            pass
        fired += 1
        reg = guard.registry
        partition = sum(
            reg.counter(f"guard.{k}").value
            for k in ("invalid", "served_model", "remapped",
                      "ood_fallback", "breaker_fallback",
                      "error_fallback"))
        assert partition == fired
        assert reg.counter("guard.queries").value == fired
        # The snapshot property mirrors the registry exactly.
        assert guard.counters == {
            k: reg.counter(f"guard.{k}").value
            for k in guard.counters}
