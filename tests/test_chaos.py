"""Chaos/soak harness: fault-injected selectors and guard invariants.

The short run executes on every test invocation; the full 10k-query
soak is opt-in via ``-m chaos`` (it is what ``scripts/smoke.sh`` and
``pml-mpi chaos`` run).
"""

import pytest

from repro.core.chaos import (
    CORRUPT_LABEL,
    AdaptChaosReport,
    ChaosReport,
    DaemonChaosReport,
    FlakySelector,
    _Daemon,
    partition_violations,
    run_adapt_chaos,
    run_chaos,
    run_daemon_chaos,
)
from repro.hwmodel import get_cluster
from repro.obs.expo import prometheus_name
from repro.serve.daemon import DAEMON_COUNTER_KEYS
from repro.serve.service import SERVE_COUNTER_KEYS
from repro.simcluster.conditions import FaultProfile
from repro.simcluster.machine import Machine
from repro.smpi.guard import COUNTER_KEYS
from repro.smpi.heuristics import MvapichDefaultSelector


class TestFlakySelector:
    def test_deterministic_per_seed(self):
        machine = Machine(get_cluster("RI"), 2, 8)

        def run(seed):
            flaky = FlakySelector(MvapichDefaultSelector(),
                                  FaultProfile(failure_rate=0.2,
                                               seed=seed),
                                  garbage_rate=0.2, seed=seed)
            out = []
            for _ in range(50):
                try:
                    out.append(flaky.select("allgather", machine, 1024))
                except Exception as exc:
                    out.append(type(exc).__name__)
            return out

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_force_fail_always_raises(self):
        flaky = FlakySelector(MvapichDefaultSelector(),
                              FaultProfile(failure_rate=0.0))
        machine = Machine(get_cluster("RI"), 2, 8)
        flaky.force_fail = True
        with pytest.raises(Exception):
            flaky.select("allgather", machine, 1024)

    def test_garbage_label_is_unknown_to_registry(self):
        from repro.smpi.collectives import base
        with pytest.raises(KeyError):
            base.get_algorithm("allgather", CORRUPT_LABEL)


class TestRunChaos:
    def test_short_soak_holds_invariants(self):
        report = run_chaos(queries=1200, seed=0)
        assert report.ok, "\n".join(report.violations)
        assert report.unguarded_exceptions == 0
        assert report.infeasible_served == 0
        assert report.breaker_cycles >= 1
        assert report.counters["queries"] == 1200
        assert report.invalid_rejected > 0
        assert report.counters["remapped"] > 0
        assert report.counters["ood_fallback"] > 0

    def test_deterministic_given_seed(self):
        a = run_chaos(queries=300, seed=3)
        b = run_chaos(queries=300, seed=3)
        assert a.counters == b.counters
        assert a.breaker_transitions == b.breaker_transitions

    def test_rejects_bad_query_count(self):
        with pytest.raises(ValueError):
            run_chaos(queries=0)


@pytest.mark.parametrize("report_type,kwargs,banner", [
    (ChaosReport, {"queries": 10}, "CHAOS"),
    (DaemonChaosReport, {"clients": 2, "requests_per_client": 4},
     "DAEMON CHAOS"),
    (AdaptChaosReport, {}, "ADAPT CHAOS"),
], ids=["guard", "daemon", "adapt"])
def test_report_flags_violations(report_type, kwargs, banner):
    report = report_type(seed=1, **kwargs)
    assert report.ok
    assert report.describe().endswith(f"\n{banner} OK")
    report.violations.append("boom")
    assert not report.ok
    text = report.describe()
    assert "\nVIOLATION: boom\n" in text
    assert text.endswith(f"\n{banner} FAILED")


#: One counter family per exported key tuple: (namespace, total, parts).
FAMILIES = [
    ("guard", COUNTER_KEYS[0], COUNTER_KEYS[1:7]),
    ("guard.challenger", COUNTER_KEYS[0], COUNTER_KEYS[1:7]),
    ("serve", SERVE_COUNTER_KEYS[0], SERVE_COUNTER_KEYS[1:4]),
    ("serve.daemon", DAEMON_COUNTER_KEYS[0],
     tuple(k for k in DAEMON_COUNTER_KEYS[1:] if k != "internal")),
]


class TestPartitionViolations:
    @staticmethod
    def _snapshot(namespace, total, parts, exposition=False):
        values = {k: i + 1 for i, k in enumerate(parts)}
        values[total] = sum(values.values())

        def name(key):
            dotted = f"{namespace}.{key}"
            return (f"{prometheus_name(dotted)}_total" if exposition
                    else dotted)

        return {name(k): v for k, v in values.items()}, name

    @pytest.mark.parametrize("exposition", [False, True],
                             ids=["registry", "exposition"])
    @pytest.mark.parametrize("namespace,total,parts", FAMILIES,
                             ids=[f[0] for f in FAMILIES])
    def test_consistent_passes_off_by_one_fails(self, namespace, total,
                                                parts, exposition):
        counters, name = self._snapshot(namespace, total, parts,
                                        exposition)
        assert partition_violations(counters, "ctx", namespace,
                                    exposition=exposition) == []
        counters[name(parts[-1])] += 1
        violations = partition_violations(counters, "ctx", namespace,
                                          exposition=exposition)
        assert len(violations) == 1
        assert violations[0].startswith(f"ctx: {namespace} partition")

    def test_non_partition_counters_are_ignored(self):
        counters, _ = self._snapshot("guard", "queries",
                                     COUNTER_KEYS[1:7])
        counters["guard.fallback_floored"] = 99
        counters["serve.queries"] = 7
        assert partition_violations(counters, "ctx", "guard") == []

    def test_daemon_internal_errors_are_violations(self):
        counters = {"serve.daemon.requests": 3, "serve.daemon.ok": 2,
                    "serve.daemon.internal": 1}
        violations = partition_violations(counters, "ctx",
                                          "serve.daemon")
        assert violations == ["ctx: 1 internal errors served"]


def test_daemon_lifecycle_reports_client_tally_on_early_exit():
    """A soak that ends early (say, a failed restart) still reports the
    violations its clients recorded, and leaves no temp dir behind."""
    report = DaemonChaosReport(seed=0, clients=1, requests_per_client=1)
    with _Daemon(report, "pml-chaos-test-") as daemon:
        daemon.tally.violation("post-corrupt: late violation")
        tmp = daemon.tmp
    assert report.violations == ["post-corrupt: late violation"]
    assert not tmp.exists()
    assert report.wall_s > 0


@pytest.mark.chaos
@pytest.mark.drift
def test_adapt_soak_full_lifecycle():
    """The full online-adaptation soak: poisoned feedback quarantined,
    drift storm detected, a good challenger promoted behind the gate
    and confirmed through probation, a deliberately-worse challenger
    rejected, mid-promotion SIGKILL recovered, and the whole decision
    log byte-identical on replay."""
    report = run_adapt_chaos(seed=0)
    assert report.ok, "\n".join(report.violations)
    assert report.decision_log_identical
    assert report.reloads_observed >= 1
    for verdict in ("no_feedback", "promoted", "confirmed", "demoted",
                    "recovered"):
        assert verdict in report.verdicts, report.verdicts
    c = report.counters
    assert c["adapt.runs"] == sum(
        v for k, v in c.items() if k.startswith("adapt.verdict."))
    assert c["adapt.feedback.loads"] == (
        c["adapt.feedback.ok"] + c["adapt.feedback.quarantined"])
    assert c["adapt.gate.evaluations"] == (
        c["adapt.gate.accepted"] + c["adapt.gate.rejected"])


@pytest.mark.chaos
def test_daemon_soak_full_lifecycle():
    """A real daemon subprocess soaked through its whole lifecycle:
    storm, mid-storm hot-reload, corrupt-bundle rejection, SIGKILL +
    crash-safe restart, protocol garbage, graceful drain — with zero
    raised client exceptions and exact counter partitions."""
    report = run_daemon_chaos(seed=0, clients=2,
                              requests_per_client=10)
    assert report.ok, "\n".join(report.violations)
    assert report.requests_sent == 2 * 10
    assert report.counters["serve.daemon.internal"] == 0
    phases = " | ".join(report.phases)
    assert "client storm" in phases
    assert "mid-storm hot-reload" in phases
    assert "corrupt-bundle swap" in phases
    assert "crash-safe restart" in phases
    assert "graceful shutdown" in phases


@pytest.mark.chaos
def test_full_soak_ten_thousand_queries():
    """The acceptance-criteria run: >= 10k adversarial queries, zero
    unguarded exceptions, 100% feasible selections, breaker cycles."""
    report = run_chaos(queries=10_000, seed=0)
    assert report.ok, "\n".join(report.violations)
    assert report.unguarded_exceptions == 0
    assert report.infeasible_served == 0
    assert report.breaker_cycles >= 1
    c = report.counters
    assert c["queries"] == 10_000
    assert (c["invalid"] + c["served_model"] + c["remapped"]
            + c["ood_fallback"] + c["breaker_fallback"]
            + c["error_fallback"]) == 10_000
