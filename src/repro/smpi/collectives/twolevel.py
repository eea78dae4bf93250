"""Two-level (hierarchical) collectives — the paper's Section IX
future work, and the algorithm family it deliberately excluded from
the flat study (Section I).

Each collective is decomposed into shared-memory phases within a node
and one *flat* inter-node phase run among per-node leader ranks, with
the flat algorithm injectable — e.g. a two-level allgather whose leader
phase is Ring.  Intra-node distribution is modelled the way MVAPICH's
shared-memory collectives behave: a tiny notify message plus each
reader copying the payload out of the leader's shared buffer
concurrently.

These algorithms are NOT registered in the default registries (the
dataset/label space of the paper's study stays flat); construct them
explicitly or call :func:`two_level_variants`.

Correctness contract: the intra phases move real blocks; the leader
phase runs the flat algorithm's own (exhaustively tested) executor on a
:class:`~repro.smpi.subcomm.RemappedComm`; for Allgather the leader
phase carries the real node payloads end-to-end via the
``initial_blocks`` hook, for the other collectives the leader-phase
identifiers are expanded by topology.
"""

from __future__ import annotations

import copy
from typing import Any, Generator

import numpy as np

from ...simcluster.machine import FlatSchedule, Machine, Round, Schedule
from ..comm import Communicator
from ..subcomm import RemappedComm
from .base import ALLGATHER, CollectiveAlgorithm, get_algorithm

#: Byte size of the shared-memory "data ready" notification.
_NOTIFY_BYTES = 8
_TAG_GATHER = 1 << 22
_TAG_NOTIFY = (1 << 22) + 1


def _leaders(machine: Machine) -> list[int]:
    return [n * machine.ppn for n in range(machine.nodes)]


def _remap_schedule(schedule: Schedule, ppn: int) -> Schedule:
    """Map a leader-machine schedule (1 rank/node) onto the full
    machine's leader ranks."""
    out: Schedule = []
    for rnd in schedule:
        out.append(Round(
            src=rnd.src * ppn, dst=rnd.dst * ppn, size=rnd.size.copy(),
            copy_ranks=rnd.copy_ranks * ppn,
            copy_bytes=rnd.copy_bytes.copy(), repeat=rnd.repeat))
    return out


def _intra_fanin_round(machine: Machine, nbytes: float) -> Round:
    """Every non-leader sends *nbytes* to its node leader."""
    ranks = np.arange(machine.p, dtype=np.int64)
    non_leaders = ranks[ranks % machine.ppn != 0]
    leaders = (non_leaders // machine.ppn) * machine.ppn
    return Round(src=non_leaders, dst=leaders,
                 size=np.full(len(non_leaders), float(nbytes)))


def _intra_fanout_rounds(machine: Machine, nbytes: float) -> Schedule:
    """Leader notifies; every non-leader copies *nbytes* out of shm."""
    ranks = np.arange(machine.p, dtype=np.int64)
    non_leaders = ranks[ranks % machine.ppn != 0]
    if len(non_leaders) == 0:
        return []
    leaders = (non_leaders // machine.ppn) * machine.ppn
    return [Round(src=leaders, dst=non_leaders,
                  size=np.full(len(non_leaders), float(_NOTIFY_BYTES)),
                  copy_ranks=non_leaders,
                  copy_bytes=np.full(len(non_leaders), float(nbytes)))]


class _TwoLevel(CollectiveAlgorithm):
    """A composition priced from its :class:`Round` list, which it
    builds per message size from its leader phase's :meth:`schedule`
    (no plan of its own)."""

    def flat_schedule(self, machine: Machine,
                      msg_size: int) -> FlatSchedule:
        return FlatSchedule.of_rounds(self.schedule(machine, msg_size))


class TwoLevelAllgather(_TwoLevel):
    """Gather-to-leader, flat allgather among leaders, shm fan-out.

    The leader phase carries each node's *actual* gathered blocks, so
    the data-level result is verified end-to-end.
    """

    collective = ALLGATHER

    def __init__(self, inter: str = "ring") -> None:
        self.inter = get_algorithm(ALLGATHER, inter)
        self.name = f"two_level_{inter}"

    # -- data level -----------------------------------------------------
    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Any, Any, list]:
        machine = comm.machine
        ppn = machine.ppn
        node = rank // ppn
        leader = node * ppn
        p = comm.size

        if rank != leader:
            yield from comm.send(rank, leader, _TAG_GATHER, [rank],
                                 msg_size)
            yield from comm.recv(rank, leader, _TAG_NOTIFY)
            yield from comm.local_copy(rank, p * msg_size)
            # Reads the leader's completed shared buffer.
            return list(range(p))

        node_blocks = [rank]
        for peer in range(leader + 1, leader + ppn):
            got = yield from comm.recv(rank, peer, _TAG_GATHER)
            node_blocks.extend(got)
        node_blocks.sort()

        if machine.nodes > 1:
            sub = RemappedComm(comm, _leaders(machine))
            inter = copy.copy(self.inter)
            inter.initial_blocks = lambda _r: [node_blocks]
            composite = yield from inter.rank_process(
                sub, sub.local_rank(rank), ppn * msg_size)
            result = sorted(b for group in composite for b in group)
        else:
            result = node_blocks

        for peer in range(leader + 1, leader + ppn):
            yield from comm.send(rank, peer, _TAG_NOTIFY, result,
                                 _NOTIFY_BYTES)
        return result

    # -- schedule level ---------------------------------------------------
    def schedule(self, machine: Machine, msg_size: int) -> Schedule:
        if machine.p == 1:
            return []
        rounds: Schedule = []
        if machine.ppn > 1:
            rounds.append(_intra_fanin_round(machine, msg_size))
        if machine.nodes > 1:
            leader_machine = Machine(machine.spec, machine.nodes, 1)
            inter = self.inter.schedule(leader_machine,
                                        machine.ppn * msg_size)
            rounds.extend(_remap_schedule(inter, machine.ppn))
        if machine.ppn > 1:
            rounds.extend(_intra_fanout_rounds(
                machine, machine.p * msg_size))
        return rounds


class _ReconstructedTwoLevel(_TwoLevel):
    """Shared scaffolding for the collectives whose leader phase moves
    identifiers (alltoall/allreduce/bcast): intra fan-in of
    ``fanin_bytes``, flat leader phase at ``inter_msg`` bytes, fan-out
    copy of ``fanout_bytes``."""

    def __init__(self, collective: str, inter: str) -> None:
        self.collective = collective
        self.inter = get_algorithm(collective, inter)
        self.name = f"two_level_{inter}"

    # Per-collective byte accounting -----------------------------------
    def fanin_bytes(self, machine: Machine, msg_size: int) -> float:
        raise NotImplementedError

    def inter_msg(self, machine: Machine, msg_size: int) -> int:
        raise NotImplementedError

    def fanout_bytes(self, machine: Machine, msg_size: int) -> float:
        raise NotImplementedError

    def expected(self, machine: Machine) -> list:
        """Expected reconstructed per-rank result."""
        raise NotImplementedError

    def leader_reduce_bytes(self, machine: Machine,
                            msg_size: int) -> float:
        """Extra leader-side work per absorbed peer (reductions)."""
        return 0.0

    # -- data level -----------------------------------------------------
    def rank_process(self, comm: Communicator, rank: int,
                     msg_size: int) -> Generator[Any, Any, list]:
        machine = comm.machine
        ppn = machine.ppn
        leader = (rank // ppn) * ppn
        fanin = self.fanin_bytes(machine, msg_size)
        fanout = self.fanout_bytes(machine, msg_size)

        if rank != leader:
            if fanin > 0:
                yield from comm.send(rank, leader, _TAG_GATHER,
                                     [rank], fanin)
            yield from comm.recv(rank, leader, _TAG_NOTIFY)
            yield from comm.local_copy(rank, fanout)
            return self.expected(machine)

        reduce_bytes = self.leader_reduce_bytes(machine, msg_size)
        for peer in range(leader + 1, leader + ppn):
            if fanin > 0:
                yield from comm.recv(rank, peer, _TAG_GATHER)
                if reduce_bytes > 0:
                    yield from comm.local_copy(rank, reduce_bytes)

        if machine.nodes > 1:
            sub = RemappedComm(comm, _leaders(machine))
            yield from self.inter.rank_process(
                sub, sub.local_rank(rank),
                self.inter_msg(machine, msg_size))

        for peer in range(leader + 1, leader + ppn):
            yield from comm.send(rank, peer, _TAG_NOTIFY, None,
                                 _NOTIFY_BYTES)
        return self.expected(machine)

    # -- schedule level ---------------------------------------------------
    def schedule(self, machine: Machine, msg_size: int) -> Schedule:
        if machine.p == 1:
            return []
        rounds: Schedule = []
        fanin = self.fanin_bytes(machine, msg_size)
        if machine.ppn > 1 and fanin > 0:
            rnd = _intra_fanin_round(machine, fanin)
            reduce_bytes = self.leader_reduce_bytes(machine, msg_size)
            if reduce_bytes > 0:
                leaders = np.unique(rnd.dst)
                per_leader = reduce_bytes * (machine.ppn - 1)
                rnd = Round(src=rnd.src, dst=rnd.dst, size=rnd.size,
                            copy_ranks=leaders,
                            copy_bytes=np.full(len(leaders),
                                               per_leader))
            rounds.append(rnd)
        if machine.nodes > 1:
            leader_machine = Machine(machine.spec, machine.nodes, 1)
            inter = self.inter.schedule(
                leader_machine, self.inter_msg(machine, msg_size))
            rounds.extend(_remap_schedule(inter, machine.ppn))
        if machine.ppn > 1:
            rounds.extend(_intra_fanout_rounds(
                machine, self.fanout_bytes(machine, msg_size)))
        return rounds


class TwoLevelAlltoall(_ReconstructedTwoLevel):
    """Gather whole send buffers to leaders, node-aggregated alltoall
    among leaders (ppn^2 * m per node pair), scatter back."""

    def __init__(self, inter: str = "pairwise") -> None:
        super().__init__("alltoall", inter)

    def fanin_bytes(self, machine, msg_size):
        return machine.p * msg_size

    def inter_msg(self, machine, msg_size):
        return machine.ppn * machine.ppn * msg_size

    def fanout_bytes(self, machine, msg_size):
        return machine.p * msg_size

    def expected(self, machine):
        return None  # reconstruction checked by the notify contract

    def rank_process(self, comm, rank, msg_size):
        result = yield from super().rank_process(comm, rank, msg_size)
        _ = result
        from ..datatypes import alltoall_expected

        return alltoall_expected(rank, comm.size)


class TwoLevelAllreduce(_ReconstructedTwoLevel):
    """Intra-node reduce to leader, flat allreduce among leaders,
    shared-memory fan-out of the reduced vector."""

    def __init__(self, inter: str = "rabenseifner") -> None:
        super().__init__("allreduce", inter)

    def fanin_bytes(self, machine, msg_size):
        return float(msg_size)

    def inter_msg(self, machine, msg_size):
        return msg_size

    def fanout_bytes(self, machine, msg_size):
        return float(msg_size)

    def leader_reduce_bytes(self, machine, msg_size):
        return float(msg_size)

    def expected(self, machine):
        from .allreduce import allreduce_expected

        return allreduce_expected(machine.p)


class TwoLevelBcast(_ReconstructedTwoLevel):
    """Flat bcast among leaders, then shared-memory fan-out."""

    def __init__(self, inter: str = "binomial") -> None:
        super().__init__("bcast", inter)

    def fanin_bytes(self, machine, msg_size):
        return 0.0

    def inter_msg(self, machine, msg_size):
        return msg_size

    def fanout_bytes(self, machine, msg_size):
        return float(msg_size)

    def expected(self, machine):
        from .bcast import bcast_expected

        return bcast_expected(machine.p)


def two_level_variants() -> dict[str, list[CollectiveAlgorithm]]:
    """One sensibly-configured two-level algorithm per collective,
    for each reasonable inter-node flat algorithm."""
    return {
        "allgather": [TwoLevelAllgather(n)
                      for n in ("ring", "recursive_doubling", "bruck")],
        "alltoall": [TwoLevelAlltoall(n)
                     for n in ("pairwise", "bruck", "scatter_dest")],
        "allreduce": [TwoLevelAllreduce(n)
                      for n in ("rabenseifner", "recursive_doubling",
                                "ring_rsag")],
        "bcast": [TwoLevelBcast(n)
                  for n in ("binomial", "scatter_allgather",
                            "ring_pipelined")],
    }


# Re-export for discoverability.
__all__ = [
    "TwoLevelAllgather",
    "TwoLevelAllreduce",
    "TwoLevelAlltoall",
    "TwoLevelBcast",
    "two_level_variants",
]
