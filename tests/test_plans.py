"""Schedule plans: built once per job shape, checked once, sized per
message size.

Every registered algorithm's ``build_plan`` gives its communication
structure on one job shape; a :class:`Machine` keeps each plan it
prices, so collection builds one plan per (algorithm, nodes, ppn) for
the whole message-size sweep.  These gates count, never time.
"""

import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core.dataset import _collect_chunk, feasible_configs
from repro.core.resilience import CircuitBreaker
from repro.hwmodel import get_cluster
from repro.simcluster.machine import FlatSchedule, Machine, Plan, Step
from repro.smpi.collectives import base
from repro.smpi.guard import ACTION_REMAP, GuardedSelector
from repro.smpi.heuristics import AlgorithmSelector
from repro.smpi.tuning import clear_measurement_cache

RANKS = np.arange(4, dtype=np.int64)


def count_builds(monkeypatch, collective):
    """Count ``build_plan`` calls per (algorithm, nodes, ppn) for every
    registered algorithm of *collective*."""
    builds: Counter = Counter()
    for algo in base.algorithms(collective).values():
        def counted(machine, _algo=algo, _build=algo.build_plan):
            builds[_algo.name, machine.nodes, machine.ppn] += 1
            return _build(machine)
        monkeypatch.setattr(algo, "build_plan", counted)
    return builds


class _Always(AlgorithmSelector):
    """Answers one algorithm whatever the query, row by row or for a
    whole block."""

    def __init__(self, name):
        self.name = name

    def select(self, collective, machine, msg_size):
        return self.name

    def select_block(self, spec, collectives, nodes, ppn, msg_size):
        return np.full(len(msg_size), self.name, dtype=object)


class TestPlanReuse:
    @pytest.mark.parametrize("collective", base.COLLECTIVES)
    def test_collection_builds_each_plan_once_per_shape(self, monkeypatch,
                                                        collective):
        """Collecting Ray prices every (algorithm, configuration) once,
        and builds each algorithm's plan once per job shape across its
        21 message sizes."""
        spec = get_cluster("Ray")
        clear_measurement_cache()
        builds = count_builds(monkeypatch, collective)
        estimates: Counter = Counter()
        estimate = base.CollectiveAlgorithm.estimate

        def counted(algo, machine, msg_size):
            estimates[algo.name, machine.nodes, machine.ppn, msg_size] += 1
            return estimate(algo, machine, msg_size)
        monkeypatch.setattr(base.CollectiveAlgorithm, "estimate", counted)
        records, dropped = _collect_chunk(spec, collective)
        clear_measurement_cache()

        configs = feasible_configs(spec, collective)
        shapes = {(n, p) for n, p, _ in configs}
        names = base.algorithm_names(collective)
        assert dropped == 0 and len(records) == len(configs) == 252
        assert set(estimates) == {(a, n, p, m) for a in names
                                  for n, p, m in configs}
        assert set(estimates.values()) == {1}
        assert set(builds) == {(a, n, p) for a in names
                               for n, p in shapes}
        assert set(builds.values()) == {1}
        assert len(shapes) == 12

    def test_remaps_sharing_a_shape_build_each_plan_once(self,
                                                         monkeypatch):
        """Every row of the block is remapped (recursive doubling is
        infeasible at 6 ranks): the remap prices each feasible
        algorithm, and builds its plan once per job shape although the
        shapes' rows interleave.  A machine keeps the plans it prices,
        so the block holds one machine's plans at a time."""
        spec = get_cluster("Ray")
        builds = count_builds(monkeypatch, "allgather")
        machines = weakref.WeakSet()
        holding = []

        def plan(machine, algo, _plan=Machine.plan):
            machines.add(machine)
            holding.append(sum(1 for m in machines if m._plans))
            return _plan(machine, algo)
        monkeypatch.setattr(Machine, "plan", plan)
        guard = GuardedSelector(
            _Always("recursive_doubling"), envelopes={},
            breaker=CircuitBreaker(failure_threshold=1 << 30))
        nodes = np.array([3, 1, 3, 2, 3, 1, 2, 3, 1])
        ppn = np.array([2, 6, 2, 3, 2, 6, 3, 2, 6])
        msg = np.array([1, 64, 1000, 5, 12345, 3, 77, 1 << 20, 1 << 16])
        collectives = np.full(len(msg), "allgather", dtype=object)
        algorithms, actions, _ = guard.explain_block(
            spec, collectives, nodes, ppn, msg)

        assert actions.tolist() == [ACTION_REMAP] * len(msg)
        feasible = base.feasible_algorithm_names("allgather", 6)
        assert set(algorithms.tolist()) <= set(feasible)
        assert set(builds) == {(a, n, p) for a in feasible
                               for n, p in ((3, 2), (1, 6), (2, 3))}
        assert set(builds.values()) == {1}
        assert max(holding) == 1

    def test_delegating_algorithms_share_their_fallback_plan(self):
        """Off a power of two, recursive-doubling alltoall prices
        pairwise's plan, the very one the machine keeps for pairwise."""
        m = Machine(get_cluster("RI"), 2, 3)
        rd = base.get_algorithm("alltoall", "recursive_doubling")
        pairwise = base.get_algorithm("alltoall", "pairwise")
        assert m.plan(rd) is m.plan(pairwise)
        assert rd.estimate(m, 1000) == pairwise.estimate(m, 1000)


class TestPlanChecks:
    """:class:`Round`'s checks, run once over the whole plan."""

    def test_self_message_rejected(self):
        with pytest.raises(ValueError, match="self-messages"):
            Plan.of_steps([Step(RANKS, (RANKS + 1) % 4),
                           Step(RANKS, RANKS ^ 2), Step(RANKS, RANKS)],
                          base.multiples([1.0]))

    def test_repeat_below_one_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            Plan.of_steps([Step(RANKS, (RANKS + 1) % 4, repeat=0)],
                          base.multiples([1.0]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="src/dst/size"):
            Plan(RANKS, RANKS[:3], np.zeros(4), [], [], [4], [0], [1],
                 base.multiples([1.0]))
        with pytest.raises(ValueError, match="copy_ranks/copy_bytes"):
            Plan([], [], [], RANKS, np.zeros(3), [0], [4], [1],
                 base.multiples([1.0]))

    def test_sized_plan_round_trips_through_rounds(self):
        """``schedule``'s :class:`Round` list flattens back to the sized
        plan, array for array."""
        m = Machine(get_cluster("Ray"), 2, 3)
        for collective in base.ALL_COLLECTIVES:
            for algo in base.algorithms(collective).values():
                flat = algo.flat_schedule(m, 12345)
                again = FlatSchedule.of_rounds(algo.schedule(m, 12345))
                for name in FlatSchedule.__slots__:
                    assert np.array_equal(getattr(flat, name),
                                          getattr(again, name)), \
                        (collective, algo.name, name)
