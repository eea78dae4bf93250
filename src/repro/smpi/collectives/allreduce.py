"""MPI_Allreduce flat algorithms (the paper's stated future work).

Every rank contributes an m-byte vector; all ranks must end with the
element-wise reduction of all p vectors.  The data-level executor
tracks, per vector *segment* (we use p equal segments), the set of
ranks whose contribution has been folded in — a message carries
``(segment, contributor-set)`` pairs and merging is set union, which is
exactly the algebra of the real reduction.  Verification: every rank
ends with every segment's contributor set equal to {0..p-1}.

Algorithms:

* ``recursive_doubling`` — log p full-vector exchanges (XOR partners;
  non-power-of-two folds remainder ranks in and out).  Latency-optimal.
* ``rabenseifner`` — recursive-halving reduce-scatter followed by a
  recursive-doubling allgather; 2·m·(1-1/p) volume (power-of-two only,
  falls back to ring_rsag otherwise).
* ``ring_rsag`` — ring reduce-scatter + ring allgather; 2(p-1) rounds
  of m/p; the bandwidth workhorse for large vectors.
* ``reduce_bcast`` — binomial-tree reduce to rank 0 followed by a
  binomial broadcast; the classic small-p fallback.

Reduction arithmetic is charged as local copy work (it is memory-bound
like a copy, one pass over the combined bytes).
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ...simcluster.engine import Event
from ...simcluster.machine import EMPTY_PLAN, Machine, Plan, Step
from ..comm import Communicator
from .base import (
    ALLREDUCE,
    CollectiveAlgorithm,
    is_power_of_two,
    multiples,
    ranks_array,
    register,
)

_TAG_FOLD = 1 << 21
_TAG_UNFOLD = (1 << 21) + 1

# State: dict segment_id -> frozenset of contributing ranks.
State = dict[int, frozenset]


def allreduce_initial(rank: int, p: int) -> State:
    return {seg: frozenset([rank]) for seg in range(p)}


def allreduce_expected(p: int) -> State:
    full = frozenset(range(p))
    return {seg: full for seg in range(p)}


def _merge(state: State, incoming: dict[int, frozenset]) -> None:
    for seg, contributors in incoming.items():
        state[seg] = state.get(seg, frozenset()) | contributors


def _rd_geometry(p: int) -> tuple[int, int]:
    q = 1
    while q * 2 <= p:
        q *= 2
    return q, p - q


class _AllreduceBase(CollectiveAlgorithm):
    collective = ALLREDUCE

    def buffer_bytes(self, p: int, msg_size: int) -> float:
        return 3.0 * msg_size  # send + recv + temp


class RecursiveDoublingAllreduce(_AllreduceBase):
    """Full-vector XOR exchanges; non-power-of-two three-phase fold."""

    name = "recursive_doubling"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, State]:
        p = comm.size
        state = allreduce_initial(rank, p)
        if p == 1:
            return state
        q, r = _rd_geometry(p)
        m = msg_size

        if r and rank >= q:
            yield from comm.send(rank, rank - q, _TAG_FOLD, state, m)
            state = yield from comm.recv(rank, rank - q, _TAG_UNFOLD)
            return dict(state)

        if r and rank < r:
            extra = yield from comm.recv(rank, rank + q, _TAG_FOLD)
            _merge(state, extra)
            yield from comm.local_copy(rank, m)  # reduction pass

        for k in range(q.bit_length() - 1):
            partner = rank ^ (1 << k)
            yield from comm.send(rank, partner, k, dict(state), m)
            got = yield from comm.recv(rank, partner, k)
            _merge(state, got)
            yield from comm.local_copy(rank, m)  # reduction pass

        if r and rank < r:
            yield from comm.send(rank, rank + q, _TAG_UNFOLD,
                                 dict(state), m)
        return state

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        q, r = _rd_geometry(p)
        rem = np.arange(r, dtype=np.int64)
        core = np.arange(q, dtype=np.int64)
        steps = [Step(rem + q, rem, copy_ranks=rem)] if r else []
        steps += [Step(core, core ^ (1 << k), copy_ranks=core)
                  for k in range(q.bit_length() - 1)]
        if r:
            steps.append(Step(rem, rem + q))
        return Plan.of_steps(steps, multiples([1.0]))


class RingRsagAllreduce(_AllreduceBase):
    """Ring reduce-scatter + ring allgather (bandwidth-optimal)."""

    name = "ring_rsag"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, State]:
        p = comm.size
        state = allreduce_initial(rank, p)
        if p == 1:
            return state
        seg_bytes = max(1, msg_size // p)
        right = (rank + 1) % p
        left = (rank - 1) % p

        # Phase 1 — reduce-scatter: in round k, send the partial for
        # segment (rank - k) % p; after p-1 rounds rank owns the fully
        # reduced segment (rank + 1) % p.
        for k in range(p - 1):
            send_seg = (rank - k) % p
            yield from comm.send(rank, right, k,
                                 {send_seg: state[send_seg]}, seg_bytes)
            got = yield from comm.recv(rank, left, k)
            _merge(state, got)
            yield from comm.local_copy(rank, seg_bytes)  # reduce pass

        # Phase 2 — allgather: circulate the completed segments.
        own = (rank + 1) % p
        for k in range(p - 1):
            send_seg = (own - k) % p
            yield from comm.send(rank, right, (p + k),
                                 {send_seg: state[send_seg]}, seg_bytes)
            got = yield from comm.recv(rank, left, (p + k))
            _merge(state, got)
        return state

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        ranks = ranks_array(p)
        right = (ranks + 1) % p
        return Plan.of_steps(
            [Step(ranks, right, copy_ranks=ranks, repeat=p - 1),
             Step(ranks, right, repeat=p - 1)],
            lambda msg_size: [float(max(1, msg_size // p))])


class RabenseifnerAllreduce(_AllreduceBase):
    """Recursive-halving reduce-scatter + recursive-doubling allgather
    (power-of-two only; delegates to ring_rsag otherwise)."""

    name = "rabenseifner"

    #: Declared constraint matching the MVAPICH default rule, which
    #: only selects Rabenseifner on power-of-two communicators.
    requires_power_of_two = True

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, State]:
        p = comm.size
        if p == 1:
            return allreduce_initial(rank, p)
        if not is_power_of_two(p):
            result = yield from RING_RSAG.rank_process(comm, rank,
                                                       msg_size)
            return result
        state = allreduce_initial(rank, p)
        logp = p.bit_length() - 1

        # Reduce-scatter by recursive halving: my owned range narrows
        # by half each step.
        lo, hi = 0, p  # segment range I am still responsible for
        for k in range(logp):
            partner = rank ^ (1 << (logp - 1 - k))
            mid = (lo + hi) // 2
            if rank < partner:
                mine, theirs = (lo, mid), (mid, hi)
            else:
                mine, theirs = (mid, hi), (lo, mid)
            outgoing = {s: state[s] for s in range(*theirs)}
            nbytes = max(1, msg_size * (hi - lo) // (2 * p))
            yield from comm.send(rank, partner, k, outgoing, nbytes)
            got = yield from comm.recv(rank, partner, k)
            _merge(state, got)
            yield from comm.local_copy(rank, nbytes)  # reduce pass
            lo, hi = mine

        # Allgather by recursive doubling: ranges widen back.
        for k in range(logp):
            partner = rank ^ (1 << k)
            width = hi - lo
            outgoing = {s: state[s] for s in range(lo, hi)}
            nbytes = max(1, msg_size * width // p)
            yield from comm.send(rank, partner, logp + k, outgoing,
                                 nbytes)
            got = yield from comm.recv(rank, partner, logp + k)
            _merge(state, got)
            # Merge the partner's range into mine.
            plo = min(lo, min(got) if got else lo)
            phi = max(hi, (max(got) + 1) if got else hi)
            lo, hi = plo, phi
        return state

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        if not is_power_of_two(p):
            return machine.plan(RING_RSAG)
        ranks = ranks_array(p)
        logp = p.bit_length() - 1
        # Halving: sizes m/2, m/4, ... (width p >> k of the segment
        # range before step k); doubling: sizes m/p, 2m/p, ...  Integer
        # math mirrors the data-level executor exactly.
        halving = [Step(ranks, ranks ^ (1 << (logp - 1 - k)), size=k,
                        copy_ranks=ranks, copy=k) for k in range(logp)]
        doubling = [Step(ranks, ranks ^ (1 << k), size=logp + k)
                    for k in range(logp)]
        shares = [(p >> k, 2 * p) for k in range(logp)] \
            + [(1 << k, p) for k in range(logp)]
        return Plan.of_steps(
            halving + doubling,
            lambda msg_size: [float(max(1, msg_size * width // parts))
                              for width, parts in shares])


class ReduceBcastAllreduce(_AllreduceBase):
    """Binomial-tree reduce to rank 0, then binomial broadcast."""

    name = "reduce_bcast"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, State]:
        p = comm.size
        state = allreduce_initial(rank, p)
        if p == 1:
            return state
        m = msg_size

        # Reduce: canonical binomial fold — a rank sends once, when the
        # loop reaches its lowest set bit; until then it absorbs from
        # rank + 2^k when that peer exists.
        k = 0
        while (1 << k) < p:
            bit = 1 << k
            if rank & bit:
                yield from comm.send(rank, rank - bit, k, dict(state), m)
                break
            if (rank | bit) < p:
                got = yield from comm.recv(rank, rank + bit, k)
                _merge(state, got)
                yield from comm.local_copy(rank, m)  # reduce pass
            k += 1

        # Broadcast: mirror image, high bit first.
        logp = (p - 1).bit_length()
        for k in reversed(range(logp)):
            bit = 1 << k
            if rank & (bit - 1):
                continue
            if rank & bit:
                state = yield from comm.recv(rank, rank - bit,
                                             1000 + k)
                state = dict(state)
            elif (rank | bit) < p:
                yield from comm.send(rank, rank + bit, 1000 + k,
                                     dict(state), m)
        return state

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        ranks = ranks_array(p)
        steps = []
        logp = (p - 1).bit_length()
        # Reduce rounds: senders are ranks with bit k set, lower clear.
        for k in range(logp):
            bit = 1 << k
            senders = ranks[(ranks & bit > 0) & (ranks & (bit - 1) == 0)]
            if len(senders):
                steps.append(Step(senders, senders - bit,
                                  copy_ranks=senders - bit))
        # Bcast rounds: mirror.
        for k in reversed(range(logp)):
            bit = 1 << k
            sources = ranks[(ranks & (2 * bit - 1) == 0)
                            & ((ranks | bit) < p)]
            if len(sources):
                steps.append(Step(sources, sources + bit))
        return Plan.of_steps(steps, multiples([1.0]))


RECURSIVE_DOUBLING = register(RecursiveDoublingAllreduce())
RING_RSAG = register(RingRsagAllreduce())
RABENSEIFNER = register(RabenseifnerAllreduce())
REDUCE_BCAST = register(ReduceBcastAllreduce())

ALL = (RECURSIVE_DOUBLING, RING_RSAG, RABENSEIFNER, REDUCE_BCAST)
