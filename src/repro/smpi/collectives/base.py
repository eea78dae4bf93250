"""Collective-algorithm framework.

Every algorithm has two faithful implementations of the *same* message
structure:

``build_plan(machine)``
    A vectorized generator of the algorithm's
    :class:`~repro.simcluster.machine.Plan` on one job shape: its rounds'
    messages and copies in flat arrays, each naming a byte term of the
    algorithm's own sizing arithmetic.  A :class:`Machine` keeps the
    plan, and ``estimate`` sizes it per message size and prices it with
    the analytic evaluator.  This is what dataset collection and the
    benchmarks use — it scales to thousand-rank jobs.  ``schedule``
    builds :class:`~repro.simcluster.machine.Round` objects from the
    sized plan, for the per-round oracle and the two-level compositions.

``rank_process(comm, rank, msg_size)``
    A data-level generator executed on the discrete-event engine, moving
    real block identifiers.  This is the ground truth: the test suite
    validates that every rank ends with exactly the right blocks, and
    that the message trace matches the vectorized schedule.

Algorithms register themselves in per-collective registries keyed by
name, which is also the ML classification label.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from ...simcluster.engine import Event, Process
from ...simcluster.machine import FlatSchedule, Machine, Plan, Schedule
from ..comm import Communicator

ALLGATHER = "allgather"
ALLTOALL = "alltoall"
ALLREDUCE = "allreduce"
BCAST = "bcast"
REDUCE_SCATTER = "reduce_scatter"

#: The two collectives of the paper's evaluation (dataset default).
COLLECTIVES = (ALLGATHER, ALLTOALL)
#: Including the future-work extensions (Section IX).
ALL_COLLECTIVES = (ALLGATHER, ALLTOALL, ALLREDUCE, BCAST,
                   REDUCE_SCATTER)


class CollectiveAlgorithm(abc.ABC):
    """Base class for one algorithm of one collective."""

    #: Registry label (e.g. ``"ring"``); also the ML class name.
    name: str
    #: Which collective this algorithm implements.
    collective: str

    # -- declared feasibility constraints ------------------------------
    #
    # The simulator implementations below are total (every algorithm
    # handles every rank count, via folds where needed), but the
    # *production* implementations the labels stand for are not: the
    # classic recursive-doubling/halving family is only defined for
    # power-of-two communicators, and some algorithms need a minimum
    # rank count.  These declarations are the single source of truth
    # for "is this algorithm runnable on this job shape" — consumed by
    # the shipping heuristics and by the runtime guard layer, instead
    # of the constraints living implicitly in threshold code.

    #: The algorithm is only defined for power-of-two rank counts.
    requires_power_of_two: bool = False
    #: Smallest rank count the algorithm is defined for.
    min_processes: int = 1

    def infeasibility(self, p: int) -> str | None:
        """Why this algorithm cannot run on *p* ranks (``None`` = it can)."""
        if p < self.min_processes:
            return (f"{self.collective}/{self.name} requires >= "
                    f"{self.min_processes} ranks, job has {p}")
        if self.requires_power_of_two and not is_power_of_two(p):
            return (f"{self.collective}/{self.name} requires a "
                    f"power-of-two rank count, job has {p}")
        return None

    def feasible(self, p: int) -> bool:
        """Is this algorithm runnable on a *p*-rank communicator?"""
        return self.infeasibility(p) is None

    # ------------------------------------------------------------------
    def build_plan(self, machine: Machine) -> Plan:
        """The message-independent plan of this algorithm on a job of
        ``machine.p`` ranks, with its sizing arithmetic as the plan's
        byte terms.  Every registered algorithm defines it; callers go
        through ``machine.plan(algo)``, which builds it once per
        machine."""
        raise NotImplementedError(f"{self!r} has no plan")

    def flat_schedule(self, machine: Machine,
                      msg_size: int) -> FlatSchedule:
        """The schedule for per-block message size *msg_size* bytes, in
        flat arrays: this algorithm's plan on *machine*, sized."""
        return machine.plan(self).sized(msg_size)

    def schedule(self, machine: Machine, msg_size: int) -> Schedule:
        """The same schedule as a :class:`Round` list, built from
        :meth:`flat_schedule`."""
        return self.flat_schedule(machine, msg_size).rounds()

    @abc.abstractmethod
    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, list]:
        """Data-level process for one rank; returns its final buffer."""

    # ------------------------------------------------------------------
    def estimate(self, machine: Machine, msg_size: int) -> float:
        """Analytic runtime estimate in seconds."""
        return machine.evaluate(self.flat_schedule(machine, msg_size))

    def buffer_bytes(self, p: int, msg_size: int) -> float:
        """Per-rank buffer footprint (used for feasibility filtering)."""
        if self.collective == ALLGATHER:
            return (p + 1.0) * msg_size
        return 2.0 * p * msg_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.collective}/{self.name}>"


@dataclass
class ExecutionResult:
    """Outcome of a data-level run on the discrete-event engine."""

    time_s: float
    buffers: list[list]
    trace: list | None


_REGISTRY: dict[str, dict[str, CollectiveAlgorithm]] = {
    name: {} for name in ALL_COLLECTIVES
}


def register(algo: CollectiveAlgorithm) -> CollectiveAlgorithm:
    """Add an algorithm instance to its collective's registry."""
    if algo.collective not in _REGISTRY:
        raise ValueError(f"unknown collective {algo.collective!r}")
    family = _REGISTRY[algo.collective]
    if algo.name in family:
        raise ValueError(
            f"duplicate {algo.collective} algorithm {algo.name!r}")
    family[algo.name] = algo
    return algo


def _family(collective: str) -> dict[str, CollectiveAlgorithm]:
    """The registry's own name -> algorithm mapping for one collective
    (not a copy: the lookups below run on the serving path)."""
    try:
        return _REGISTRY[collective]
    except KeyError:
        raise ValueError(f"unknown collective {collective!r}") from None


def algorithms(collective: str) -> dict[str, CollectiveAlgorithm]:
    """Name -> algorithm mapping for one collective (a copy the caller
    may change)."""
    return dict(_family(collective))


def algorithm_names(collective: str) -> tuple[str, ...]:
    """Sorted label space of one collective."""
    return tuple(sorted(_REGISTRY[collective]))


def get_algorithm(collective: str, name: str) -> CollectiveAlgorithm:
    """Look up one algorithm by collective and name."""
    family = _family(collective)
    try:
        return family[name]
    except KeyError:
        raise KeyError(
            f"unknown {collective} algorithm {name!r}; "
            f"known: {', '.join(sorted(family))}") from None


def feasible_algorithm_names(collective: str, p: int) -> tuple[str, ...]:
    """Sorted names of the algorithms runnable on *p* ranks.

    Every collective keeps at least one unconstrained algorithm (ring /
    pairwise / binomial / ...), so this is never empty for ``p >= 1`` —
    the floor the runtime guard's remapping stands on.
    """
    return tuple(name for name, algo in sorted(_family(collective).items())
                 if algo.feasible(p))


def is_feasible(collective: str, name: str, p: int) -> bool:
    """Is one named algorithm runnable on a *p*-rank communicator?"""
    return get_algorithm(collective, name).feasible(p)


def best_feasible(collective: str, machine: Machine, msg_size: int) -> str:
    """Cheapest algorithm runnable on *machine*'s communicator, by the
    analytic cost model (:meth:`CollectiveAlgorithm.estimate`); the
    first feasible name (sorted order) when no schedule can be priced.
    The remap of the runtime guard and of the shipped tuning table."""
    p = int(machine.nodes) * int(machine.ppn)
    names = feasible_algorithm_names(collective, p)
    assert names, f"no feasible {collective} algorithm for p={p}"
    if len(names) == 1:
        return names[0]
    best, best_t = names[0], math.inf
    for name in names:
        try:
            t = get_algorithm(collective, name).estimate(machine, msg_size)
        except Exception:
            continue
        if t < best_t:
            best, best_t = name, t
    return best


def execute(algo: CollectiveAlgorithm, machine: Machine, msg_size: int,
            record_trace: bool = False) -> ExecutionResult:
    """Run the data-level implementation on the DES and return the
    simulated time plus every rank's final buffer."""
    comm = Communicator(machine, record_trace=record_trace)
    procs = [Process(comm.sim, algo.rank_process(comm, r, msg_size))
             for r in range(machine.p)]
    comm.sim.run()
    unfinished = [r for r, pr in enumerate(procs) if not pr.triggered]
    if unfinished:
        raise RuntimeError(
            f"{algo.collective}/{algo.name}: ranks {unfinished[:8]} "
            f"deadlocked (p={machine.p}, msg={msg_size})")
    if comm.undelivered_messages:
        raise RuntimeError(
            f"{algo.collective}/{algo.name}: "
            f"{comm.undelivered_messages} unmatched messages")
    return ExecutionResult(
        time_s=comm.sim.now,
        buffers=[pr.value for pr in procs],
        trace=comm.trace,
    )


# ---------------------------------------------------------------------
# Shared schedule helpers
# ---------------------------------------------------------------------

def ranks_array(p: int) -> np.ndarray:
    return np.arange(p, dtype=np.int64)


def multiples(coef) -> Callable[[int], np.ndarray]:
    """Sizing whose byte term ``i`` is ``coef[i] * float(msg_size)``:
    that of every algorithm whose sizes are whole multiples of the
    message (as ``cnt * m`` with ``m = float(msg_size)``)."""
    coef = np.asarray(coef, dtype=np.float64)
    return lambda msg_size: coef * float(msg_size)


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def power_of_two_mask(p: np.ndarray) -> np.ndarray:
    """Vectorized :func:`is_power_of_two` over an integer array."""
    p = np.asarray(p)
    return (p >= 1) & ((p & (p - 1)) == 0)


def feasible_mask(collective: str, name: str, p: np.ndarray) -> np.ndarray:
    """Vectorized :func:`is_feasible`: one named algorithm against an
    array of rank counts.  Row-for-row identical to the scalar
    predicate (same ``min_processes`` / power-of-two declarations)."""
    algo = get_algorithm(collective, name)
    p = np.asarray(p)
    mask = p >= algo.min_processes
    if algo.requires_power_of_two:
        mask &= power_of_two_mask(p)
    return mask
