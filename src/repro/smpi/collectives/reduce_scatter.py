"""MPI_Reduce_scatter_block flat algorithms (extension).

Each rank contributes p segments of ``msg_size`` bytes; rank *i* must
end with segment *i* element-wise reduced across all ranks.  Reuses the
contributor-set correctness model of :mod:`.allreduce`: a rank's result
is valid when its own segment's contributor set is {0..p-1}.

Algorithms:

* ``recursive_halving`` — the classic MPICH choice for long vectors on
  power-of-two communicators: log p steps, each exchanging half of the
  remaining range; m(p-1)/p volume.  Non-power-of-two falls back to
  pairwise (as the real library falls back internally).
* ``pairwise`` — p-1 ring steps of one segment each; any p.
* ``reduce_scatterv`` — binomial reduce of the whole vector to rank 0,
  then a binomial scatter of the segments (the simple small-p choice).
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ...simcluster.machine import EMPTY_PLAN, Machine, Plan, Step
from ..comm import Communicator
from .base import (
    REDUCE_SCATTER,
    CollectiveAlgorithm,
    is_power_of_two,
    multiples,
    ranks_array,
    register,
)
from .allreduce import _merge, allreduce_initial
from .bcast import _scatter_steps, _scatter_transfers


def reduce_scatter_expected(rank: int, p: int) -> dict[int, frozenset]:
    """Rank *rank* must own its segment with every contribution."""
    return {rank: frozenset(range(p))}


class _ReduceScatterBase(CollectiveAlgorithm):
    collective = REDUCE_SCATTER

    def buffer_bytes(self, p: int, msg_size: int) -> float:
        return (p + 1.0) * msg_size


class PairwiseReduceScatter(_ReduceScatterBase):
    """Ring reduce-scatter: identical to the first phase of
    ring-based allreduce."""

    name = "pairwise"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Any, Any, dict]:
        p = comm.size
        state = allreduce_initial(rank, p)
        if p == 1:
            return {0: state[0]}
        right = (rank + 1) % p
        left = (rank - 1) % p
        # Segment s starts travelling at rank s+1 and accumulates one
        # contribution per hop, landing fully reduced on rank s at the
        # last round.
        for k in range(p - 1):
            send_seg = (rank - k - 1) % p
            yield from comm.send(rank, right, k,
                                 {send_seg: state[send_seg]}, msg_size)
            got = yield from comm.recv(rank, left, k)
            _merge(state, got)
            yield from comm.local_copy(rank, msg_size)  # reduce pass
        return {rank: state[rank]}

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        ranks = ranks_array(p)
        return Plan.of_steps([Step(ranks, (ranks + 1) % p,
                                   copy_ranks=ranks, repeat=p - 1)],
                             multiples([1.0]))


class RecursiveHalvingReduceScatter(_ReduceScatterBase):
    """Recursive halving (power-of-two p; pairwise fallback)."""

    name = "recursive_halving"

    #: Recursive halving is only defined on power-of-two communicators
    #: (the simulator's pairwise fallback covers the rest).
    requires_power_of_two = True

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Any, Any, dict]:
        p = comm.size
        if p == 1:
            return {0: allreduce_initial(rank, p)[0]}
        if not is_power_of_two(p):
            result = yield from PAIRWISE.rank_process(comm, rank,
                                                      msg_size)
            return result
        state = allreduce_initial(rank, p)
        logp = p.bit_length() - 1
        lo, hi = 0, p
        for k in range(logp):
            partner = rank ^ (1 << (logp - 1 - k))
            mid = (lo + hi) // 2
            if rank < partner:
                mine, theirs = (lo, mid), (mid, hi)
            else:
                mine, theirs = (mid, hi), (lo, mid)
            outgoing = {s: state[s] for s in range(*theirs)}
            nbytes = max(1, msg_size * (hi - lo) // 2)
            yield from comm.send(rank, partner, k, outgoing, nbytes)
            got = yield from comm.recv(rank, partner, k)
            _merge(state, got)
            yield from comm.local_copy(rank, nbytes)  # reduce pass
            lo, hi = mine
        assert (lo, hi) == (rank, rank + 1)
        return {rank: state[rank]}

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        if not is_power_of_two(p):
            return machine.plan(PAIRWISE)
        ranks = ranks_array(p)
        logp = p.bit_length() - 1
        widths = [p >> k for k in range(logp)]
        return Plan.of_steps(
            [Step(ranks, ranks ^ (1 << (logp - 1 - k)), size=k,
                  copy_ranks=ranks, copy=k) for k in range(logp)],
            lambda msg_size: [float(max(1, msg_size * width // 2))
                              for width in widths])


class ReduceScattervReduceScatter(_ReduceScatterBase):
    """Binomial reduce to rank 0, then binomial scatter of segments."""

    name = "reduce_scatterv"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Any, Any, dict]:
        p = comm.size
        state = allreduce_initial(rank, p)
        if p == 1:
            return {0: state[0]}
        full = p * msg_size

        # Binomial reduce (same fold as reduce_bcast's first phase).
        k = 0
        while (1 << k) < p:
            bit = 1 << k
            if rank & bit:
                yield from comm.send(rank, rank - bit, k, dict(state),
                                     full)
                break
            if (rank | bit) < p:
                got = yield from comm.recv(rank, rank + bit, k)
                _merge(state, got)
                yield from comm.local_copy(rank, full)  # reduce pass
            k += 1

        # Binomial scatter of the reduced segments (shared plan with
        # the van de Geijn bcast).
        owned: dict[int, frozenset] = dict(state) if rank == 0 else {}
        for level, src, dst, seg_lo, seg_hi in _scatter_transfers(p):
            if rank == src:
                payload = {s: owned.pop(s)
                           for s in range(seg_lo, seg_hi)}
                yield from comm.send(rank, dst, 1000 + level, payload,
                                     (seg_hi - seg_lo) * msg_size)
            elif rank == dst:
                owned = yield from comm.recv(rank, src, 1000 + level)
                owned = dict(owned)
        return {rank: owned[rank]}

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        steps = []
        logp = (p - 1).bit_length()
        ranks = ranks_array(p)
        # Term 0 is the whole reduced vector, float(p * msg_size); the
        # scatter's messages carry seg_hi - seg_lo segments of msg_size.
        for k in range(logp):
            bit = 1 << k
            senders = ranks[(ranks & bit > 0) & (ranks & (bit - 1) == 0)]
            if len(senders):
                steps.append(Step(senders, senders - bit,
                                  copy_ranks=senders - bit))
        scatter = _scatter_steps(p)
        segments = np.unique(np.concatenate([s.size for s in scatter]))
        steps += [s._replace(size=1 + np.searchsorted(segments, s.size))
                  for s in scatter]
        return Plan.of_steps(
            steps, lambda msg_size: np.concatenate(
                [[float(p * msg_size)], segments * float(msg_size)]))


PAIRWISE = register(PairwiseReduceScatter())
RECURSIVE_HALVING = register(RecursiveHalvingReduceScatter())
REDUCE_SCATTERV = register(ReduceScattervReduceScatter())

ALL = (PAIRWISE, RECURSIVE_HALVING, REDUCE_SCATTERV)
