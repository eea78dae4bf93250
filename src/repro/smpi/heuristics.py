"""Default algorithm-selection heuristics (the paper's baselines).

These are *hardware-oblivious* threshold rules in the style MPI
libraries ship:

* :class:`MvapichDefaultSelector` models MVAPICH2-2.3.7's flat-collective
  defaults, which inherit MPICH's thresholds (Thakur, Rabenseifner &
  Gropp 2005): message-size and communicator-size cutoffs between the
  latency-optimal, mid-range and bandwidth-optimal algorithms.
* :class:`OpenMpiDefaultSelector` models Open MPI's fixed decision rules
  (``coll_tuned`` defaults), which use different cutoffs and per-message
  (not total) sizes.

Because the thresholds are constants baked in at release time, they are
optimal only on hardware resembling the vendors' tuning testbeds — the
exact failure mode PML-MPI exploits (paper Sections II-III).
"""

from __future__ import annotations

import abc
import zlib

import numpy as np

from ..simcluster.machine import Machine
from .collectives import base
from .collectives.base import (
    ALL_COLLECTIVES,
    ALLGATHER,
    ALLREDUCE,
    ALLTOALL,
    BCAST,
    REDUCE_SCATTER,
)


class InvalidQueryError(ValueError):
    """A selection query is malformed: non-positive / non-integer
    message size, degenerate job shape, wrong types."""


class UnknownCollectiveError(InvalidQueryError, KeyError):
    """The queried collective is not one this library implements.

    Subclasses both ``ValueError`` (via :class:`InvalidQueryError`) and
    ``KeyError`` so pre-guard callers catching either keep working.
    """

    def __str__(self) -> str:  # KeyError quotes its arg; keep prose
        return self.args[0] if self.args else ""


#: Largest valid message size.  With it, every valid query fits the
#: serving layer's int64 columns, quantized message size included.
MAX_MSG_SIZE = 1 << 62


def validate_query(collective: str, machine: Machine,
                   msg_size: int) -> None:
    """Shared input validation for every :class:`AlgorithmSelector`.

    Raises a typed :class:`InvalidQueryError` /
    :class:`UnknownCollectiveError` instead of letting a negative
    message size or a zero-rank job shape flow into threshold
    arithmetic or model inference.  nodes, ppn and msg_size must be
    non-bool integers (NumPy integers count) and ``msg_size`` at most
    :data:`MAX_MSG_SIZE`.  Deliberately duck-typed on *machine* (needs
    ``nodes`` and ``ppn``) so guard fuzzing can probe it with
    adversarial stand-ins.
    """
    if collective not in ALL_COLLECTIVES:
        raise UnknownCollectiveError(
            f"unknown collective {collective!r}; known: "
            f"{', '.join(ALL_COLLECTIVES)}")
    if isinstance(msg_size, bool) or not isinstance(
            msg_size, (int, np.integer)):
        raise InvalidQueryError(
            f"msg_size must be an integer, got {msg_size!r}")
    if msg_size <= 0:
        raise InvalidQueryError(
            f"msg_size must be positive, got {msg_size}")
    if msg_size > MAX_MSG_SIZE:
        raise InvalidQueryError(
            f"msg_size must be at most 2**62, got {msg_size}")
    for attr in ("nodes", "ppn"):
        value = getattr(machine, attr, None)
        if isinstance(value, bool) or not isinstance(
                value, (int, np.integer)):
            raise InvalidQueryError(
                f"machine.{attr} must be an integer, got {value!r}")
        if value < 1:
            raise InvalidQueryError(
                f"machine.{attr} must be >= 1, got {value}")


class AlgorithmSelector(abc.ABC):
    """Maps (collective, job shape, message size) to an algorithm name.

    Implementations must call :func:`validate_query` (directly or via
    ``super()``-style helpers) before trusting the query — the runtime
    guard layer and the regression suite hold every selector to that
    contract.

    Selectors that can answer *columnar* batches additionally implement
    ``select_block(spec, collectives, nodes, ppn, msg_size)`` taking
    per-row NumPy arrays of **prevalidated** queries for one cluster
    spec and returning an object array of algorithm-name strings,
    row-for-row identical to a loop over :meth:`select`.
    :meth:`~repro.smpi.guard.GuardedSelector.explain_block` probes for
    that method with ``getattr``, on its inner selector and on its
    fallback, and calls :meth:`select` per row when it is absent.
    """

    @abc.abstractmethod
    def select(self, collective: str, machine: Machine,
               msg_size: int) -> str:
        """Return the registry name of the chosen algorithm."""

    def describe(self) -> str:
        return type(self).__name__


class MvapichDefaultSelector(AlgorithmSelector):
    """MVAPICH2-2.3.7-style static defaults (MPICH-inherited thresholds)."""

    # Total-result-size cutoffs for Allgather (bytes).
    ALLGATHER_SHORT_TOTAL = 80 * 1024
    ALLGATHER_MEDIUM_TOTAL = 512 * 1024
    # Per-destination cutoffs for Alltoall (bytes).
    ALLTOALL_SHORT_MSG = 256
    ALLTOALL_MEDIUM_MSG = 32 * 1024
    ALLTOALL_BRUCK_MIN_P = 8

    def select(self, collective: str, machine: Machine,
               msg_size: int) -> str:
        validate_query(collective, machine, msg_size)
        p = machine.p
        if collective == ALLGATHER:
            total = p * msg_size
            # The power-of-two gate is the algorithm's declared
            # feasibility constraint, not a tuning threshold.
            if base.is_feasible(ALLGATHER, "recursive_doubling", p) \
                    and total < self.ALLGATHER_MEDIUM_TOTAL:
                return "recursive_doubling"
            if total < self.ALLGATHER_SHORT_TOTAL:
                return "bruck"
            return "ring"
        if collective == ALLTOALL:
            if msg_size <= self.ALLTOALL_SHORT_MSG and \
                    p >= self.ALLTOALL_BRUCK_MIN_P:
                return "bruck"
            if msg_size <= self.ALLTOALL_MEDIUM_MSG:
                return "scatter_dest"
            return "pairwise"
        if collective == ALLREDUCE:
            # MPICH-inherited: short or non-commutative -> recursive
            # doubling; long -> Rabenseifner's reduce-scatter/allgather.
            if msg_size <= 2048 or p < 4:
                return "recursive_doubling"
            if base.is_feasible(ALLREDUCE, "rabenseifner", p):
                return "rabenseifner"
            return "ring_rsag"
        if collective == BCAST:
            if msg_size < 12 * 1024 or p < 8:
                return "binomial"
            return "scatter_allgather"
        if collective == REDUCE_SCATTER:
            # MPICH: reduce+scatter for short, recursive halving for
            # long power-of-two, pairwise otherwise.
            if p * msg_size < 512:
                return "reduce_scatterv"
            if base.is_feasible(REDUCE_SCATTER, "recursive_halving", p):
                return "recursive_halving"
            return "pairwise"
        raise UnknownCollectiveError(
            f"unknown collective {collective!r}")  # pragma: no cover

    def select_block(self, spec: object, collectives: np.ndarray,
                     nodes: np.ndarray, ppn: np.ndarray,
                     msg_size: np.ndarray) -> np.ndarray:
        """Columnar :meth:`select` over prevalidated rows.

        Each branch mirrors the scalar threshold order exactly; the
        mask assignments run lowest-precedence first so the last write
        reproduces the scalar ``if`` chain.  Total-size products are
        compared in float64, which agrees with the exact integer
        comparison everywhere (products below 2**53 are exact; larger
        ones are astronomically above every threshold).
        """
        out = np.empty(len(msg_size), dtype=object)
        p = nodes * ppn
        for collective in ALL_COLLECTIVES:
            rows = collectives == collective
            if not rows.any():
                continue
            m, pp = msg_size[rows], p[rows]
            if collective == ALLGATHER:
                total = pp.astype(np.float64) * m.astype(np.float64)
                sel = np.full(len(m), "ring", dtype=object)
                sel[total < self.ALLGATHER_SHORT_TOTAL] = "bruck"
                sel[base.feasible_mask(ALLGATHER, "recursive_doubling", pp)
                    & (total < self.ALLGATHER_MEDIUM_TOTAL)] \
                    = "recursive_doubling"
            elif collective == ALLTOALL:
                sel = np.full(len(m), "pairwise", dtype=object)
                sel[m <= self.ALLTOALL_MEDIUM_MSG] = "scatter_dest"
                sel[(m <= self.ALLTOALL_SHORT_MSG)
                    & (pp >= self.ALLTOALL_BRUCK_MIN_P)] = "bruck"
            elif collective == ALLREDUCE:
                sel = np.full(len(m), "ring_rsag", dtype=object)
                sel[base.feasible_mask(ALLREDUCE, "rabenseifner", pp)] \
                    = "rabenseifner"
                sel[(m <= 2048) | (pp < 4)] = "recursive_doubling"
            elif collective == BCAST:
                sel = np.full(len(m), "scatter_allgather", dtype=object)
                sel[(m < 12 * 1024) | (pp < 8)] = "binomial"
            else:  # REDUCE_SCATTER
                sel = np.full(len(m), "pairwise", dtype=object)
                sel[base.feasible_mask(
                    REDUCE_SCATTER, "recursive_halving", pp)] \
                    = "recursive_halving"
                sel[pp.astype(np.float64) * m.astype(np.float64) < 512] \
                    = "reduce_scatterv"
            out[rows] = sel
        return out


class OpenMpiDefaultSelector(AlgorithmSelector):
    """Open MPI 5.x-style fixed decision rules (per-message cutoffs)."""

    ALLGATHER_BRUCK_MAX_MSG = 512
    ALLGATHER_RD_MAX_MSG = 64 * 1024
    ALLTOALL_BRUCK_MAX_MSG = 128
    ALLTOALL_LINEAR_MAX_MSG = 16 * 1024

    def select(self, collective: str, machine: Machine,
               msg_size: int) -> str:
        validate_query(collective, machine, msg_size)
        p = machine.p
        if collective == ALLGATHER:
            if msg_size <= self.ALLGATHER_BRUCK_MAX_MSG:
                return "bruck"
            if msg_size <= self.ALLGATHER_RD_MAX_MSG:
                # Open MPI keeps recursive doubling through mid sizes
                # (the RD implementation handles non-power-of-two
                # internally) — a window that is miscalibrated on
                # clusters unlike its tuning testbed.
                return "recursive_doubling"
            return "ring"
        if collective == ALLTOALL:
            if msg_size <= self.ALLTOALL_BRUCK_MAX_MSG:
                return "bruck"
            if msg_size < self.ALLTOALL_LINEAR_MAX_MSG:
                return "scatter_dest"
            return "pairwise"
        if collective == ALLREDUCE:
            if msg_size <= 4096:
                return "recursive_doubling"
            return "ring_rsag"
        if collective == BCAST:
            if msg_size <= 2048:
                return "binomial"
            if msg_size <= 128 * 1024:
                return "scatter_allgather"
            return "ring_pipelined"
        if collective == REDUCE_SCATTER:
            if msg_size <= 1024:
                return "reduce_scatterv"
            return "pairwise"
        raise UnknownCollectiveError(
            f"unknown collective {collective!r}")  # pragma: no cover

    def select_block(self, spec: object, collectives: np.ndarray,
                     nodes: np.ndarray, ppn: np.ndarray,
                     msg_size: np.ndarray) -> np.ndarray:
        """Columnar :meth:`select` over prevalidated rows (see
        :meth:`MvapichDefaultSelector.select_block`).  Open MPI's rules
        are pure per-message cutoffs, so every branch is a direct
        integer comparison."""
        out = np.empty(len(msg_size), dtype=object)
        for collective in ALL_COLLECTIVES:
            rows = collectives == collective
            if not rows.any():
                continue
            m = msg_size[rows]
            if collective == ALLGATHER:
                sel = np.full(len(m), "ring", dtype=object)
                sel[m <= self.ALLGATHER_RD_MAX_MSG] = "recursive_doubling"
                sel[m <= self.ALLGATHER_BRUCK_MAX_MSG] = "bruck"
            elif collective == ALLTOALL:
                sel = np.full(len(m), "pairwise", dtype=object)
                sel[m < self.ALLTOALL_LINEAR_MAX_MSG] = "scatter_dest"
                sel[m <= self.ALLTOALL_BRUCK_MAX_MSG] = "bruck"
            elif collective == ALLREDUCE:
                sel = np.full(len(m), "ring_rsag", dtype=object)
                sel[m <= 4096] = "recursive_doubling"
            elif collective == BCAST:
                sel = np.full(len(m), "ring_pipelined", dtype=object)
                sel[m <= 128 * 1024] = "scatter_allgather"
                sel[m <= 2048] = "binomial"
            else:  # REDUCE_SCATTER
                sel = np.full(len(m), "pairwise", dtype=object)
                sel[m <= 1024] = "reduce_scatterv"
            out[rows] = sel
        return out


class RandomSelector(AlgorithmSelector):
    """Uniform random choice, deterministic per configuration (the
    paper's Fig. 8 strawman)."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def select(self, collective: str, machine: Machine,
               msg_size: int) -> str:
        validate_query(collective, machine, msg_size)
        names = base.algorithm_names(collective)
        key = (f"{self.seed}|{collective}|{machine.spec.name}|"
               f"{machine.nodes}|{machine.ppn}|{msg_size}")
        rng = np.random.default_rng(zlib.crc32(key.encode()))
        return names[int(rng.integers(len(names)))]


class FixedSelector(AlgorithmSelector):
    """Always returns one algorithm (used for per-algorithm sweeps)."""

    def __init__(self, collective: str, name: str) -> None:
        base.get_algorithm(collective, name)  # validate
        self.collective = collective
        self.name = name

    def select(self, collective: str, machine: Machine,
               msg_size: int) -> str:
        validate_query(collective, machine, msg_size)
        if collective != self.collective:
            raise ValueError(
                f"selector fixed for {self.collective}, got {collective}")
        return self.name
