"""MPI_Bcast flat algorithms (future-work extension, paper Section IX).

Rank 0 holds an m-byte message split into ``p`` chunks; every rank must
end with all chunks.  The data-level executor moves chunk indices and
verifies each rank's final chunk set.

Algorithms:

* ``binomial`` — classic binomial tree, log p rounds of the full
  message; latency-optimal for small messages.
* ``scatter_allgather`` — van de Geijn: binomial scatter of m/p chunks
  followed by a ring allgather; ~2m volume, the large-message choice.
* ``ring_pipelined`` — chunked pipeline around a ring; p-2+C rounds of
  m/C, asymptotically bandwidth-optimal with overlap.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ...simcluster.engine import Event
from ...simcluster.machine import EMPTY_PLAN, Machine, Plan, Step
from ..comm import Communicator
from .base import (
    BCAST,
    CollectiveAlgorithm,
    multiples,
    ranks_array,
    register,
)

#: Pipeline depth of the ring algorithm.
RING_CHUNKS = 8


def bcast_expected(p: int) -> list[int]:
    """Every rank must end with all p chunks of the root's message."""
    return list(range(p))


class _BcastBase(CollectiveAlgorithm):
    collective = BCAST

    def buffer_bytes(self, p: int, msg_size: int) -> float:
        return 2.0 * msg_size


class BinomialBcast(_BcastBase):
    """Binomial tree from rank 0, high bit first."""

    name = "binomial"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, list[int]]:
        p = comm.size
        chunks = list(range(p)) if rank == 0 else []
        if p == 1:
            return chunks
        logp = (p - 1).bit_length()
        for k in reversed(range(logp)):
            bit = 1 << k
            if rank & (bit - 1):
                continue  # not active yet at this level
            if rank & bit:
                chunks = yield from comm.recv(rank, rank - bit, k)
                chunks = list(chunks)
            elif (rank | bit) < p and (rank == 0 or chunks):
                yield from comm.send(rank, rank + bit, k, list(chunks),
                                     msg_size)
        return sorted(chunks)

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        ranks = ranks_array(p)
        steps = []
        logp = (p - 1).bit_length()
        for k in reversed(range(logp)):
            bit = 1 << k
            sources = ranks[(ranks & (2 * bit - 1) == 0)
                            & ((ranks | bit) < p)]
            if len(sources):
                steps.append(Step(sources, sources + bit))
        return Plan.of_steps(steps, multiples([1.0]))


def _scatter_transfers(p: int) -> list[tuple[int, int, int, int, int]]:
    """The binomial-scatter transfer plan: a list of
    ``(level, src, dst, chunk_lo, chunk_hi)`` tuples, high level first.

    Rank 0 starts owning chunks [0, p); at each level ``k`` an owner
    ``r`` hands the sub-range [r + 2^k, hi) to rank ``r + 2^k``.  The
    plan ends with every rank owning exactly its own chunk — the same
    loop drives both the data-level execution and the schedule, so they
    cannot diverge.
    """
    hi = {0: p}
    logp = (p - 1).bit_length()
    plan: list[tuple[int, int, int, int, int]] = []
    for k in reversed(range(logp)):
        bit = 1 << k
        for r in sorted(hi):
            if r & (bit - 1) or r & bit:
                continue
            dst = r + bit
            if dst < p and hi[r] > dst:
                plan.append((k, r, dst, dst, hi[r]))
                hi[dst] = hi[r]
                hi[r] = dst
    return plan


def _scatter_steps(p: int) -> list[Step]:
    """The binomial scatter as plan rounds, one per level, high level
    first.  Each message's ``size`` is still its count of chunks
    (``hi - lo``), for the caller to turn into byte terms."""
    by_level: dict[int, list[tuple[int, int, int]]] = {}
    for level, src, dst, lo, hi in _scatter_transfers(p):
        by_level.setdefault(level, []).append((src, dst, hi - lo))
    return [Step(*np.asarray(by_level[level], dtype=np.int64).T)
            for level in sorted(by_level, reverse=True)]


class ScatterAllgatherBcast(_BcastBase):
    """van de Geijn: binomial scatter down to one chunk per rank, then
    a standard ring allgather of the chunks."""

    name = "scatter_allgather"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, list[int]]:
        p = comm.size
        if p == 1:
            return list(range(p))
        chunk_bytes = max(1, msg_size // p)

        # Scatter phase, driven by the shared plan.
        for level, src, dst, lo, hi in _scatter_transfers(p):
            if rank == src:
                yield from comm.send(rank, dst, level,
                                     list(range(lo, hi)),
                                     (hi - lo) * chunk_bytes)
            elif rank == dst:
                got = yield from comm.recv(rank, src, level)
                assert got == list(range(lo, hi))
        held = {rank}

        # Ring allgather: round k passes chunk (rank - k) mod p right.
        right = (rank + 1) % p
        left = (rank - 1) % p
        for k in range(p - 1):
            send_chunk = (rank - k) % p
            yield from comm.send(rank, right, 1000 + k, [send_chunk],
                                 chunk_bytes)
            got = yield from comm.recv(rank, left, 1000 + k)
            held.update(got)
        return sorted(held)

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        ranks = ranks_array(p)
        # A scatter message carries hi - lo chunks and a ring message
        # one (term 0), each chunk max(1, msg_size // p) bytes.
        scatter = _scatter_steps(p)
        chunks = np.unique(np.concatenate([[1], *(s.size for s in scatter)]))
        steps = [s._replace(size=np.searchsorted(chunks, s.size))
                 for s in scatter]
        steps.append(Step(ranks, (ranks + 1) % p, repeat=p - 1))
        return Plan.of_steps(
            steps, lambda msg_size: chunks * float(max(1, msg_size // p)))


class RingPipelinedBcast(_BcastBase):
    """Chunked pipeline around the ring: rank 0 injects C chunks one
    per round; each rank forwards what it received last round."""

    name = "ring_pipelined"

    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Event, Any, list[int]]:
        p = comm.size
        if p == 1:
            return list(range(p))
        chunks = min(RING_CHUNKS, p)
        groups = np.array_split(np.arange(p), chunks)
        group_bytes = [max(1, len(g) * msg_size // p) for g in groups]
        held: list[int] = list(range(p)) if rank == 0 else []
        right = (rank + 1) % p
        total_rounds = (p - 2) + chunks
        for step in range(total_rounds):
            # Rank r forwards group (step - r + 1) at time step if it
            # has it; equivalently rank r receives group g at step
            # r - 1 + g and forwards at step r + g.
            if rank != p - 1:  # last rank never forwards
                g = step - rank
                if 0 <= g < chunks and (rank == 0 or held):
                    payload = groups[g].tolist()
                    if set(payload) <= set(held):
                        yield from comm.send(rank, right, step,
                                             payload, group_bytes[g])
            if rank != 0:
                g = step - (rank - 1)
                if 0 <= g < chunks:
                    got = yield from comm.recv(rank, (rank - 1) % p,
                                               step)
                    held.extend(got)
        return sorted(held)

    def build_plan(self, machine: Machine) -> Plan:
        p = machine.p
        if p == 1:
            return EMPTY_PLAN
        chunks = min(RING_CHUNKS, p)
        lengths = [len(g) for g in np.array_split(np.arange(p), chunks)]
        # Rank r < p - 1 forwards group g at step r + g; a step's
        # senders in rank order.  Every step has one.
        rank, group = np.divmod(np.arange((p - 1) * chunks), chunks)
        order = np.lexsort((rank, rank + group))
        src = rank[order]
        steps = np.bincount(rank + group, minlength=p - 2 + chunks)
        return Plan(src, (src + 1) % p, group[order], np.empty(0),
                    np.empty(0), steps, [0] * len(steps),
                    [1] * len(steps),
                    lambda msg_size: [float(max(1, n_g * msg_size // p))
                                      for n_g in lengths])


BINOMIAL = register(BinomialBcast())
SCATTER_ALLGATHER = register(ScatterAllgatherBcast())
RING_PIPELINED = register(RingPipelinedBcast())

ALL = (BINOMIAL, SCATTER_ALLGATHER, RING_PIPELINED)
