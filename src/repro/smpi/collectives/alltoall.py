"""The five flat MPI_Alltoall algorithms of the paper (Section III).

* ``bruck`` — log-step store-and-forward with rotation/packing phases;
  minimizes latency terms for small messages at the cost of extra
  volume (each step moves about half the buffer).
* ``scatter_dest`` — every rank posts a direct isend to every peer in
  one shot (MPICH's "isend/irecv to scattered destinations").
* ``pairwise`` — p-1 structured exchange rounds (XOR partners for
  power-of-two p, ring offsets otherwise); congestion-free permutation
  per round, the large-message workhorse.
* ``recursive_doubling`` — hypercube store-and-forward on XOR partners
  (power-of-two only; falls back to pairwise otherwise, as an MPI
  library would).
* ``inplace`` — memory-optimized sendrecv_replace exchanges; constant
  extra memory, extra copy traffic every round.

Each rank starts with p blocks of ``msg_size`` bytes (one per peer) and
must end with the p blocks addressed to it, ordered by source rank.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ...simcluster.engine import Event
from ...simcluster.machine import EMPTY_PLAN, Machine, Plan, Step
from ..comm import Communicator
from .base import (
    ALLTOALL,
    CollectiveAlgorithm,
    is_power_of_two,
    multiples,
    ranks_array,
    register,
)
from ..datatypes import alltoall_initial


class _AlltoallBase(CollectiveAlgorithm):
    collective = ALLTOALL

    @staticmethod
    def _own_copy(comm: Communicator, rank: int,
                  msg_size: int) -> Generator[Event, Any, None]:
        """Move the rank's own block from send to receive buffer."""
        yield from comm.local_copy(rank, msg_size)


class ScatterDestAlltoall(_AlltoallBase):
    """One-shot isend/irecv to every peer, destinations staggered by
    rank so the blast does not synchronize on peer 0."""

    name = "scatter_dest"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, list]:
        p = comm.size
        result = [(rank, rank)]
        yield from self._own_copy(comm, rank, msg_size)
        for offset in range(1, p):
            dst = (rank + offset) % p
            yield from comm.send(rank, dst, 0, [(rank, dst)], msg_size)
        for offset in range(1, p):
            src = (rank - offset) % p
            got = yield from comm.recv(rank, src, 0)
            result.extend(got)
        return sorted(result)

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        ranks = ranks_array(p)
        offsets = np.arange(1, p, dtype=np.int64)
        src = np.repeat(ranks, p - 1)
        dst = (src + np.tile(offsets, p)) % p
        return Plan.of_steps([Step(src, dst, copy_ranks=ranks)],
                             multiples([1.0]))


class PairwiseAlltoall(_AlltoallBase):
    """p-1 permutation rounds: XOR partners when p is a power of two,
    ring offsets otherwise."""

    name = "pairwise"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, list]:
        p = comm.size
        result = [(rank, rank)]
        yield from self._own_copy(comm, rank, msg_size)
        pow2 = is_power_of_two(p)
        for k in range(1, p):
            if pow2:
                send_to = recv_from = rank ^ k
            else:
                send_to = (rank + k) % p
                recv_from = (rank - k) % p
            got = yield from comm.sendrecv(
                rank, send_to, [(rank, send_to)], msg_size, recv_from, k)
            result.extend(got)
        return sorted(result)

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        ranks = ranks_array(p)
        offsets = ranks[1:, None]
        # Every round's destinations in one broadcast (row k-1 is
        # round k), after a copy-only round for the own block.
        dsts = ranks ^ offsets if is_power_of_two(p) \
            else (ranks + offsets) % p
        return Plan(np.tile(ranks, p - 1), dsts.ravel(),
                    np.broadcast_to(0, p * (p - 1)), ranks,
                    np.broadcast_to(0, p), [0] + [p] * (p - 1),
                    [p] + [0] * (p - 1), [1] * p, multiples([1.0]))


class BruckAlltoall(_AlltoallBase):
    """Bruck's log-step alltoall with rotation and per-step packing."""

    name = "bruck"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, list]:
        p = comm.size
        if p == 1:
            return [(rank, rank)]
        # Phase 1: local rotation — slot j holds the block destined to
        # rank (rank + j) % p.
        slots: list[tuple[int, int]] = [(rank, (rank + j) % p)
                                        for j in range(p)]
        yield from comm.local_copy(rank, p * msg_size)
        # Phase 2: log-step exchanges of the slots with bit k set.
        k = 0
        while (1 << k) < p:
            step = 1 << k
            idx = [j for j in range(p) if j & step]
            outgoing = [slots[j] for j in idx]
            nbytes = len(idx) * msg_size
            yield from comm.local_copy(rank, nbytes)  # pack
            dst = (rank + step) % p
            src = (rank - step) % p
            got = yield from comm.sendrecv(rank, dst, outgoing, nbytes,
                                           src, k)
            for j, blk in zip(idx, got):
                slots[j] = blk
            yield from comm.local_copy(rank, nbytes)  # unpack
            k += 1
        # Phase 3: inverse rotation into source order.
        yield from comm.local_copy(rank, p * msg_size)
        return sorted(slots)

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        ranks = ranks_array(p)
        # Term 0 is the whole buffer (rotations); step k sends term
        # 2k + 1 and packs + unpacks term 2k + 2.
        steps, coef = [Step(copy_ranks=ranks)], [p]
        k = 0
        j = np.arange(p)
        while (1 << k) < p:
            step = 1 << k
            cnt = int(np.count_nonzero(j & step))
            steps.append(Step(ranks, (ranks + step) % p, size=2 * k + 1,
                              copy_ranks=ranks, copy=2 * k + 2))
            coef += [cnt, 2.0 * cnt]
            k += 1
        steps.append(Step(copy_ranks=ranks))
        return Plan.of_steps(steps, multiples(coef))


class RecursiveDoublingAlltoall(_AlltoallBase):
    """Hypercube store-and-forward alltoall (power-of-two p); every step
    relays the half of the buffer destined to the partner's sub-cube."""

    name = "recursive_doubling"

    #: Production hypercube alltoall is undefined off power-of-two
    #: communicators (the simulator delegates to pairwise there).
    requires_power_of_two = True

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, list]:
        p = comm.size
        if not is_power_of_two(p):
            result = yield from PAIRWISE.rank_process(comm, rank, msg_size)
            return result
        held = alltoall_initial(rank, p)
        if p == 1:
            return held
        for k in range(p.bit_length() - 1):
            bit = 1 << k
            partner = rank ^ bit
            outgoing = [b for b in held if (b[1] ^ rank) & bit]
            held = [b for b in held if not ((b[1] ^ rank) & bit)]
            nbytes = len(outgoing) * msg_size
            yield from comm.local_copy(rank, nbytes)  # pack
            got = yield from comm.sendrecv(rank, partner, outgoing,
                                           nbytes, partner, k)
            yield from comm.local_copy(rank, len(got) * msg_size)  # unpack
            held.extend(got)
        return sorted(held)

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        if not is_power_of_two(p):
            return machine.plan(PAIRWISE)
        ranks = ranks_array(p)
        half = p / 2.0
        return Plan.of_steps(
            [Step(ranks, ranks ^ (1 << k), size=0, copy_ranks=ranks, copy=1)
             for k in range(p.bit_length() - 1)],
            multiples([half, 2.0 * half]))


class InplaceAlltoall(_AlltoallBase):
    """Memory-optimized exchange: ring-offset rounds with
    sendrecv_replace semantics (temp-buffer copy in and out each round)."""

    name = "inplace"

    #: ``MPI_IN_PLACE`` alltoall needs a partner to exchange with every
    #: round; a one-rank communicator has nothing to replace.
    min_processes = 2

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, list]:
        p = comm.size
        result = [(rank, rank)]
        for k in range(1, p):
            send_to = (rank + k) % p
            recv_from = (rank - k) % p
            yield from comm.local_copy(rank, msg_size)  # stage into temp
            got = yield from comm.sendrecv(
                rank, send_to, [(rank, send_to)], msg_size, recv_from, k)
            yield from comm.local_copy(rank, msg_size)  # place from temp
            result.extend(got)
        return sorted(result)

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        ranks = ranks_array(p)
        n = p * (p - 1)
        return Plan(np.tile(ranks, p - 1),
                    ((ranks + ranks[1:, None]) % p).ravel(),
                    np.broadcast_to(0, n), np.tile(ranks, p - 1),
                    np.broadcast_to(1, n), [p] * (p - 1), [p] * (p - 1),
                    [1] * (p - 1), multiples([1.0, 2.0]))


BRUCK = register(BruckAlltoall())
SCATTER_DEST = register(ScatterDestAlltoall())
PAIRWISE = register(PairwiseAlltoall())
RECURSIVE_DOUBLING = register(RecursiveDoublingAlltoall())
INPLACE = register(InplaceAlltoall())

ALL = (BRUCK, SCATTER_DEST, PAIRWISE, RECURSIVE_DOUBLING, INPLACE)
