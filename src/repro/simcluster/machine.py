"""The simulated machine: rank placement + analytic round-cost evaluator.

A :class:`Machine` is one job allocation — ``nodes`` nodes of a cluster
with ``ppn`` MPI ranks per node, placed in block order (ranks
``0..ppn-1`` on node 0, and so on), which is the default mapping of
MVAPICH/Open MPI and the one the paper benchmarks.

Collective algorithms are expressed as a list of :class:`Round` objects
(vectorized message sets plus local copy work).  ``Machine.evaluate``
prices a schedule with a bulk-synchronous bottleneck model::

    round time = latency term
               + max( per-NIC serialization (out and in),
                      per-rank CPU work (posting, packing, copies) )

using the :class:`~repro.simcluster.netmodel.NetParams` of the cluster.
The same parameters drive the discrete-event executor in
:mod:`repro.smpi`, so the analytic model and the DES agree on small
configurations (tested), while this evaluator scales to thousand-rank
jobs at dataset-generation speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hwmodel.specs import ClusterSpec
from .netmodel import NetParams

#: Most entries (messages + local copies + rank slots)
#: :meth:`Machine.evaluate` prices in one NumPy pass.  It bounds the
#: pass's transient arrays at a few MiB whatever the schedule: the
#: 1,024-round pairwise alltoall on 1,024 ranks (16 x 64, 64 KiB)
#: peaks at 3-5 MiB in chunks and at 104 MiB in one pass.
EVALUATE_CHUNK_ENTRIES = 65_536


@dataclass
class Round:
    """One communication round of a collective schedule.

    ``src``/``dst``/``size`` describe the point-to-point messages of the
    round (parallel arrays).  ``copy_ranks``/``copy_bytes`` describe
    local memory traffic (packing, unpacking, buffer rotation) performed
    by individual ranks during the round.  ``repeat`` multiplies the cost
    of the round — used by generators whose rounds are structurally
    identical (e.g. Ring).
    """

    src: np.ndarray
    dst: np.ndarray
    size: np.ndarray
    copy_ranks: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    copy_bytes: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64))
    repeat: int = 1

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.size = np.asarray(self.size, dtype=np.float64)
        self.copy_ranks = np.asarray(self.copy_ranks, dtype=np.int64)
        self.copy_bytes = np.asarray(self.copy_bytes, dtype=np.float64)
        if not (len(self.src) == len(self.dst) == len(self.size)):
            raise ValueError("src/dst/size must have equal length")
        if len(self.copy_ranks) != len(self.copy_bytes):
            raise ValueError("copy_ranks/copy_bytes must have equal length")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if (self.src == self.dst).any():
            raise ValueError("self-messages must be modelled as copies")

    @property
    def n_messages(self) -> int:
        return len(self.src)

    @property
    def total_bytes(self) -> float:
        return float(self.size.sum()) * self.repeat


Schedule = list[Round]


class Machine:
    """A job allocation on one cluster, with the analytic cost model."""

    def __init__(self, spec: ClusterSpec, nodes: int, ppn: int) -> None:
        if nodes < 1 or ppn < 1:
            raise ValueError("nodes and ppn must be >= 1")
        if nodes > spec.max_nodes:
            raise ValueError(
                f"{spec.name} has at most {spec.max_nodes} nodes, "
                f"requested {nodes}")
        if ppn > spec.node.cpu.threads_per_node:
            raise ValueError(
                f"{spec.name} nodes expose {spec.node.cpu.threads_per_node} "
                f"hardware threads, requested PPN {ppn}")
        self.spec = spec
        self.nodes = nodes
        self.ppn = ppn
        self.params = NetParams.from_spec(spec)

    # ---------------------------------------------------------------
    @property
    def p(self) -> int:
        """Total number of ranks."""
        return self.nodes * self.ppn

    def node_of(self, rank: np.ndarray | int) -> np.ndarray | int:
        """Node index hosting *rank* (block placement)."""
        return rank // self.ppn

    def fits_memory(self, bytes_per_rank: float,
                    headroom: float = 0.75) -> bool:
        """Whether every rank can allocate *bytes_per_rank* of buffers
        without exceeding its node's memory (with *headroom* usable)."""
        node_bytes = self.spec.node.memory.capacity_gib * 1024**3
        return bytes_per_rank * self.ppn <= headroom * node_bytes

    # ---------------------------------------------------------------
    def round_time(self, rnd: Round) -> float:
        """Price one round (ignoring ``repeat``)."""
        prm = self.params
        p = self.p

        cpu_load = np.zeros(p)
        latency = 0.0
        nic_time = 0.0

        if rnd.n_messages:
            src_node = rnd.src // self.ppn
            dst_node = rnd.dst // self.ppn
            inter = src_node != dst_node

            # Per-posted-operation CPU overhead (isend on src, irecv on
            # dst), regardless of transport.
            np.add.at(cpu_load, rnd.src, prm.cpu_op_overhead_s)
            np.add.at(cpu_load, rnd.dst, prm.cpu_op_overhead_s)

            # ---------------- intra-node messages: copy through shm
            if np.any(~inter):
                isrc = rnd.src[~inter]
                idst = rnd.dst[~inter]
                isz = rnd.size[~inter]
                cost = isz / prm.copy_bandwidth_vec(isz, self.ppn)
                # Sender writes the shared buffer, receiver reads it out.
                np.add.at(cpu_load, isrc, cost)
                np.add.at(cpu_load, idst, cost)
                latency = max(latency, prm.alpha_intra_s)
                if np.any(isz > prm.eager_intra_bytes):
                    latency = max(latency, 3.0 * prm.alpha_intra_s)

            # ---------------- inter-node messages: NIC serialization
            if np.any(inter):
                esrc_node = src_node[inter]
                edst_node = dst_node[inter]
                esz = rnd.size[inter]
                latency = max(latency, prm.alpha_inter_s)
                if np.any(esz > prm.eager_inter_bytes):
                    # Rendezvous handshake, pipelined across the round.
                    latency = max(latency, 3.0 * prm.alpha_inter_s)

                # Destination spread per source node (distinct remote
                # nodes targeted) — congestion penalty.
                spread_out = _distinct_per_group(esrc_node, edst_node,
                                                 self.nodes)
                spread_in = _distinct_per_group(edst_node, esrc_node,
                                                self.nodes)
                # (arrays of length self.nodes, one entry per node)

                beta_out = prm.beta_inter_Bps / (
                    1.0 + prm.spread_gamma
                    * np.maximum(0, spread_out - 1))
                beta_in = prm.beta_inter_Bps / (
                    1.0 + prm.spread_gamma
                    * np.maximum(0, spread_in - 1))

                out_msgs = np.bincount(esrc_node, minlength=self.nodes)
                in_msgs = np.bincount(edst_node, minlength=self.nodes)
                out_load = (out_msgs * prm.nic_gap_s
                            + np.bincount(esrc_node, weights=esz,
                                          minlength=self.nodes)
                            * prm.flow_penalty(out_msgs, self.ppn)
                            / beta_out)
                in_load = (in_msgs * prm.nic_gap_s
                           + np.bincount(edst_node, weights=esz,
                                         minlength=self.nodes)
                           * prm.flow_penalty(in_msgs, self.ppn)
                           / beta_in)
                nic_time = max(float(out_load.max()), float(in_load.max()))

                # Eager inter-node receives land in a bounce buffer and
                # are copied out by the receiving rank.
                eager = esz <= prm.eager_inter_bytes
                if np.any(eager):
                    edst_rank = rnd.dst[inter][eager]
                    esz_e = esz[eager]
                    bw = prm.copy_bandwidth_vec(esz_e, self.ppn)
                    np.add.at(cpu_load, edst_rank, esz_e / bw)

        # ---------------- local copy work (packing/unpacking/rotation)
        if len(rnd.copy_ranks):
            bw = prm.copy_bandwidth_vec(rnd.copy_bytes, self.ppn)
            np.add.at(cpu_load, rnd.copy_ranks, rnd.copy_bytes / bw)

        return latency + max(nic_time, float(cpu_load.max(initial=0.0)))

    def evaluate(self, schedule: Schedule) -> float:
        """Total simulated time of a schedule, in seconds.

        Equal, bit for bit, to ``sum(self.round_time(r) * r.repeat for r
        in schedule)`` (``round_time`` is the readable statement of the
        model and the test oracle), but priced in one NumPy pass per
        chunk of rounds instead of one pass per round.  Rounds are
        grouped in schedule order up to :data:`EVALUATE_CHUNK_ENTRIES`
        entries (a larger round is priced alone).
        """
        rounds = list(schedule)
        times: list[float] = []
        chunk: list[Round] = []
        entries = 0
        for rnd in rounds:
            size = len(rnd.src) + len(rnd.copy_ranks) + self.p
            if chunk and entries + size > EVALUATE_CHUNK_ENTRIES:
                times += self._price_rounds(chunk)
                chunk, entries = [], 0
            chunk.append(rnd)
            entries += size
        if chunk:
            times += self._price_rounds(chunk)
        return sum(t * rnd.repeat for t, rnd in zip(times, rounds))

    def _price_rounds(self, rounds: list[Round]) -> list[float]:
        """``round_time`` of each of *rounds*, in one segmented pass.

        The rounds' messages and copies are concatenated, tagged with
        their round id.  CPU loads live in one flat per-(round, rank)
        array and take the contributions through ordered ``np.add.at``
        calls in ``round_time``'s order (posting at src, posting at dst,
        shared-memory copy at src then dst, eager bounce copy, local
        copies), so every bin adds the same terms in the same order.
        NIC loads are per-(round, node) ``bincount``s, which also add in
        input order.  Maxima are exact, so the latency and bottleneck
        terms need no order.
        """
        prm, p, ppn, nodes = self.params, self.p, self.ppn, self.nodes
        n_rounds = len(rounds)
        rid = np.repeat(np.arange(n_rounds),
                        [len(rnd.src) for rnd in rounds])
        src = _concat([rnd.src for rnd in rounds])
        dst = _concat([rnd.dst for rnd in rounds])
        size = _concat([rnd.size for rnd in rounds])
        src_node = src // ppn
        dst_node = dst // ppn
        inter = src_node != dst_node
        intra = ~inter

        cpu = np.zeros(n_rounds * p)
        src_slot = rid * p + src
        dst_slot = rid * p + dst
        np.add.at(cpu, src_slot, prm.cpu_op_overhead_s)
        np.add.at(cpu, dst_slot, prm.cpu_op_overhead_s)
        isz = size[intra]
        cost = isz / prm.copy_bandwidth_vec(isz, ppn)
        np.add.at(cpu, src_slot[intra], cost)
        np.add.at(cpu, dst_slot[intra], cost)
        del src_slot, isz, cost
        bounce = inter & (size <= prm.eager_inter_bytes)
        bsz = size[bounce]
        np.add.at(cpu, dst_slot[bounce],
                  bsz / prm.copy_bandwidth_vec(bsz, ppn))
        del dst_slot, bounce, bsz
        copy_bytes = _concat([rnd.copy_bytes for rnd in rounds])
        copy_slot = np.repeat(
            np.arange(n_rounds) * p,
            [len(rnd.copy_ranks) for rnd in rounds]
        ) + _concat([rnd.copy_ranks for rnd in rounds])
        np.add.at(cpu, copy_slot,
                  copy_bytes / prm.copy_bandwidth_vec(copy_bytes, ppn))
        cpu = cpu.reshape(n_rounds, p).max(axis=1, initial=0.0)

        # Latency: which of (intra, intra rendezvous, inter, inter
        # rendezvous) occur in each round.
        big = size > np.where(inter, prm.eager_inter_bytes,
                              prm.eager_intra_bytes)
        kinds = np.bincount(rid * 4 + 2 * inter + big,
                            minlength=4 * n_rounds).reshape(n_rounds, 4)
        alphas = np.array([prm.alpha_intra_s, 3.0 * prm.alpha_intra_s,
                           prm.alpha_inter_s, 3.0 * prm.alpha_inter_s])
        latency = ((kinds > 0) * alphas).max(axis=1)
        if not inter.any():
            return (latency + cpu).tolist()

        # NIC: per-(round, node) loads in each direction.  A node's
        # spread is its number of distinct remote peers in the round.
        bins = n_rounds * nodes
        erid = rid[inter] * nodes
        out_key = erid + src_node[inter]
        in_key = erid + dst_node[inter]
        esz = size[inter]
        spreads = (_distinct_per_group(out_key, dst_node[inter], bins),
                   _distinct_per_group(in_key, src_node[inter], bins))
        del erid, src_node, dst_node
        nic = np.zeros(n_rounds)
        for key, spread in zip((out_key, in_key), spreads):
            beta = prm.beta_inter_Bps / (
                1.0 + prm.spread_gamma * np.maximum(0, spread - 1))
            msgs = np.bincount(key, minlength=bins)
            load = (msgs * prm.nic_gap_s
                    + np.bincount(key, weights=esz, minlength=bins)
                    * prm.flow_penalty(msgs, ppn) / beta)
            nic = np.maximum(nic, load.reshape(n_rounds, nodes).max(axis=1))
        return (latency + np.maximum(nic, cpu)).tolist()


def _concat(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate``, without a copy for a single array."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _distinct_per_group(groups: np.ndarray, values: np.ndarray,
                        n_groups: int) -> np.ndarray:
    """Per group, the number of distinct *values* observed in it (e.g.
    distinct destination nodes per source node).  Returns an array of
    length *n_groups*."""
    pairs = np.unique(groups * np.int64(n_groups) + values)
    return np.bincount(pairs // n_groups, minlength=n_groups)
