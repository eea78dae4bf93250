"""The four flat MPI_Allgather algorithms of the paper (Section III).

* ``recursive_doubling`` — pairwise XOR exchanges doubling the held data
  each step; non-power-of-two rank counts use the standard three-phase
  fold (remainder ranks fold into the power-of-two core and get the full
  result back at the end).
* ``ring`` — logical ring, p-1 steps of one block each; near-neighbour
  traffic is mostly intra-node under block placement.
* ``bruck`` — log-step algorithm for arbitrary p; finishes with a local
  rotation of the full result.
* ``rd_communication`` — the paper's "Recursive Doubling Communication"
  variation: the RD exchange of each step is split into two pipelined
  half-messages, halving the per-message working set (cache-friendlier at
  the cost of twice the message count).  See DESIGN.md for the
  interpretation note.

Every rank contributes one block of ``msg_size`` bytes and must end with
all ``p`` blocks in rank order.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ...simcluster.engine import Event
from ...simcluster.machine import EMPTY_PLAN, Machine, Plan, Step
from ..comm import Communicator
from .base import (
    ALLGATHER,
    CollectiveAlgorithm,
    multiples,
    ranks_array,
    register,
)

# Distinct tag ranges per phase so message matching is unambiguous.
_TAG_FOLD = 1 << 20
_TAG_UNFOLD = (1 << 20) + 1


def _rd_geometry(p: int) -> tuple[int, int]:
    """(q, r): largest power of two q <= p and the remainder r = p - q."""
    q = 1
    while q * 2 <= p:
        q *= 2
    return q, p - q


class _AllgatherBase(CollectiveAlgorithm):
    collective = ALLGATHER

    def initial_blocks(self, rank: int) -> list:
        """The block(s) a rank contributes.  Two-level composition
        overrides this per leader so the inter-node phase can carry
        whole node payloads; ``msg_size`` is then the per-block size."""
        return [rank]


class RecursiveDoublingAllgather(_AllgatherBase):
    """Recursive doubling with the three-phase non-power-of-two fold."""

    name = "recursive_doubling"

    #: MVAPICH's flat RD allgather is only selected on power-of-two
    #: communicators (the simulator's three-phase fold below is the
    #: MPICH generalization, kept so datasets cover every shape); the
    #: runtime guard enforces the production constraint.
    requires_power_of_two = True

    #: Number of half-messages each RD exchange is split into (1 = plain
    #: RD; the rd_communication subclass overrides this).
    split = 1

    def _halves(self, blocks: list) -> list[list]:
        """Split a block list into ``self.split`` contiguous pieces."""
        if self.split == 1 or len(blocks) < 2:
            return [blocks]
        mid = (len(blocks) + 1) // 2
        return [blocks[:mid], blocks[mid:]]

    # -- data level -----------------------------------------------------
    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, list]:
        p = comm.size
        blocks: list = list(self.initial_blocks(rank))
        if p == 1:
            return blocks
        q, r = _rd_geometry(p)

        if r and rank >= q:  # remainder rank: fold in, wait for result
            yield from comm.send(rank, rank - q, _TAG_FOLD, blocks,
                                 msg_size)
            blocks = yield from comm.recv(rank, rank - q, _TAG_UNFOLD)
            return sorted(blocks)

        if r and rank < r:  # core rank absorbing a remainder block
            extra = yield from comm.recv(rank, rank + q, _TAG_FOLD)
            blocks = blocks + extra

        # Every rank can derive every core rank's block count per step
        # (it depends only on p), so piece counts are agreed without
        # extra communication.
        counts = [2 if i < r else 1 for i in range(q)]
        for k in range(q.bit_length() - 1):
            partner = rank ^ (1 << k)
            pieces = self._halves(blocks)
            for i, piece in enumerate(pieces):
                yield from comm.send(rank, partner, k * 4 + i, piece,
                                     len(piece) * msg_size)
            n_incoming = 1 if (self.split == 1 or counts[partner] < 2) else 2
            received: list[int] = []
            for i in range(n_incoming):
                got = yield from comm.recv(rank, partner, k * 4 + i)
                received.extend(got)
            blocks = blocks + received
            counts = [c + counts[i ^ (1 << k)]
                      for i, c in enumerate(counts)]

        if r and rank < r:  # send the full result back out
            yield from comm.send(rank, rank + q, _TAG_UNFOLD, blocks,
                                 len(blocks) * msg_size)
        return sorted(blocks)

    # -- schedule level ---------------------------------------------------
    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        q, r = _rd_geometry(p)
        rem = np.arange(r, dtype=np.int64)
        core = np.arange(q, dtype=np.int64)
        counts = np.ones(q)
        counts[:r] = 2.0
        # Each round as (src, dst, blocks each message carries, which
        # messages are the second half of a split exchange).
        rounds = [(rem + q, rem, np.ones(r), np.zeros(r, bool))] if r \
            else []
        for k in range(q.bit_length() - 1):
            partner = core ^ (1 << k)
            if self.split == 1:
                rounds.append((core, partner, counts, np.zeros(q, bool)))
            else:
                # Single-block exchanges cannot be split; the first
                # half carries ceil(c / 2) blocks.
                pair = counts >= 2
                rounds.append((
                    np.concatenate([core, core[pair]]),
                    np.concatenate([partner, partner[pair]]),
                    np.concatenate([np.ceil(counts / 2.0), counts[pair]]),
                    np.arange(q + int(pair.sum())) >= q))
            counts = counts + counts[core ^ (1 << k)]
        if r:
            rounds.append((rem, rem + q, np.full(r, float(p)),
                           np.zeros(r, bool)))

        # Byte terms: c * m per distinct whole count c, then the second
        # halves' c * m - ceil(c / 2) * m per distinct pair count c.
        src, dst, carried, second = (np.concatenate(a)
                                     for a in zip(*rounds))
        term = np.empty(len(carried), dtype=np.intp)
        whole, term[~second] = np.unique(carried[~second],
                                         return_inverse=True)
        split, term[second] = np.unique(carried[second],
                                        return_inverse=True)
        term[second] += len(whole)

        def terms(msg_size: int) -> np.ndarray:
            m = float(msg_size)
            return np.concatenate([whole * m,
                                   split * m - np.ceil(split / 2.0) * m])

        n_msgs = [len(rnd[0]) for rnd in rounds]
        return Plan(src, dst, term, [], [], n_msgs, [0] * len(rounds),
                    [1] * len(rounds), terms)


class RdCommunicationAllgather(RecursiveDoublingAllgather):
    """RD with each exchange split into two pipelined half-messages."""

    name = "rd_communication"
    split = 2


class RingAllgather(_AllgatherBase):
    """Logical-ring allgather: p-1 steps of one block to the right."""

    name = "ring"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, list]:
        p = comm.size
        blocks: list = list(self.initial_blocks(rank))
        if p == 1:
            return blocks
        right = (rank + 1) % p
        left = (rank - 1) % p
        outgoing = blocks[0]
        for k in range(p - 1):
            yield from comm.send(rank, right, k, [outgoing], msg_size)
            got = yield from comm.recv(rank, left, k)
            outgoing = got[0]
            blocks.append(outgoing)
        return sorted(blocks)

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        ranks = ranks_array(p)
        return Plan.of_steps([Step(ranks, (ranks + 1) % p, repeat=p - 1)],
                             multiples([1.0]))


class BruckAllgather(_AllgatherBase):
    """Bruck's log-step allgather (any p) + final local rotation."""

    name = "bruck"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, list]:
        p = comm.size
        blocks: list = list(self.initial_blocks(rank))
        if p == 1:
            return blocks
        k = 0
        while (1 << k) < p:
            step = 1 << k
            cnt = min(step, p - step)
            dst = (rank - step) % p
            src = (rank + step) % p
            yield from comm.send(rank, dst, k, blocks[:cnt],
                                 cnt * msg_size)
            got = yield from comm.recv(rank, src, k)
            blocks.extend(got)
            k += 1
        # Local rotation into rank order.
        yield from comm.local_copy(rank, p * msg_size)
        return sorted(blocks)

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        ranks = ranks_array(p)
        steps, coef = [], []
        k = 0
        while (1 << k) < p:
            step = 1 << k
            steps.append(Step(ranks, (ranks - step) % p, size=k))
            coef.append(min(step, p - step))
            k += 1
        # Local rotation of the full result.
        steps.append(Step(copy_ranks=ranks, copy=k))
        return Plan.of_steps(steps, multiples(coef + [p]))


RECURSIVE_DOUBLING = register(RecursiveDoublingAllgather())
RING = register(RingAllgather())
BRUCK = register(BruckAllgather())
RD_COMMUNICATION = register(RdCommunicationAllgather())

ALL = (RECURSIVE_DOUBLING, RING, BRUCK, RD_COMMUNICATION)
