"""The simulated machine: rank placement + analytic round-cost evaluator.

A :class:`Machine` is one job allocation — ``nodes`` nodes of a cluster
with ``ppn`` MPI ranks per node, placed in block order (ranks
``0..ppn-1`` on node 0, and so on), which is the default mapping of
MVAPICH/Open MPI and the one the paper benchmarks.

A collective algorithm's communication structure on a job shape is a
:class:`Plan`: every round's messages and local copies in flat arrays,
with each message's byte count named by an index into the algorithm's
*byte terms* (the few sizes one message size gives).  The structure is
fixed by the job shape, so a :class:`Machine` builds each algorithm's
plan once and sizes it per message size into a :class:`FlatSchedule`.
``Machine.evaluate`` prices a flat schedule (or a list of
:class:`Round` objects) with a bulk-synchronous bottleneck model::

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

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..hwmodel.specs import ClusterSpec
from .netmodel import NetParams

#: Most entries (messages + local copies + rank slots)
#: :meth:`Machine.evaluate` prices in one NumPy pass (a larger round is
#: priced alone).  It bounds the pass's transient arrays at a few MiB
#: whatever the schedule: the 1,024-round pairwise alltoall on 1,024
#: ranks (16 x 64, 64 KiB) peaks at 3-5 MiB in chunks and at 104 MiB in
#: one pass.
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

_NO_RANKS = np.empty(0, dtype=np.int64)


class Step(NamedTuple):
    """One round of a :class:`Plan`, as an algorithm writes it.

    Messages ``src[i] -> dst[i]`` take byte term ``size`` (one term index
    for the whole round, or one per message); local copies on
    ``copy_ranks`` take byte term ``copy`` (likewise); the round costs
    ``repeat`` times its round time.
    """

    src: np.ndarray = _NO_RANKS
    dst: np.ndarray = _NO_RANKS
    size: int | np.ndarray = 0
    copy_ranks: np.ndarray = _NO_RANKS
    copy: int | np.ndarray = 0
    repeat: int = 1


class Plan:
    """The message-independent structure of one schedule on one job
    shape.

    Every round's messages (``src``, ``dst``) and local copies
    (``copy_ranks``) are concatenated in round order; round ``r`` holds
    messages ``msg_bounds[r]:msg_bounds[r + 1]`` and copies
    ``copy_bounds[r]:copy_bounds[r + 1]`` and costs ``repeat[r]`` times
    its round time.  ``size_term`` and ``copy_term`` name each entry's
    byte count as an index into ``terms(msg_size)``, the algorithm's own
    sizing arithmetic, so one plan prices every message size exactly as
    a schedule built for that size would.  :class:`Round`'s checks run
    once, over the whole plan, when it is built.  Ranks are kept as
    ``int32``: a machine keeps each plan it prices, and at 1,024 ranks
    the alltoall plans of one job shape hold about 3 million messages.
    """

    __slots__ = ("src", "dst", "size_term", "copy_ranks", "copy_term",
                 "msg_bounds", "copy_bounds", "repeat", "terms")

    def __init__(self, src: np.ndarray, dst: np.ndarray,
                 size_term: np.ndarray, copy_ranks: np.ndarray,
                 copy_term: np.ndarray, msg_counts: Sequence[int],
                 copy_counts: Sequence[int], repeat: Sequence[int],
                 terms: Callable[[int], np.ndarray]) -> None:
        self.src = np.asarray(src, dtype=np.int32)
        self.dst = np.asarray(dst, dtype=np.int32)
        self.size_term = np.asarray(size_term, dtype=np.intp)
        self.copy_ranks = np.asarray(copy_ranks, dtype=np.int32)
        self.copy_term = np.asarray(copy_term, dtype=np.intp)
        self.msg_bounds = _bounds(msg_counts)
        self.copy_bounds = _bounds(copy_counts)
        self.repeat = [int(n) for n in repeat]
        self.terms = terms
        if not (len(self.msg_bounds) == len(self.copy_bounds)
                == len(self.repeat) + 1):
            raise ValueError("every round needs message and copy counts "
                             "and a repeat")
        if not (self.msg_bounds[-1] == len(self.src) == len(self.dst)
                == len(self.size_term)):
            raise ValueError("src/dst/size must have equal length")
        if not (self.copy_bounds[-1] == len(self.copy_ranks)
                == len(self.copy_term)):
            raise ValueError("copy_ranks/copy_bytes must have equal length")
        if min(self.repeat, default=1) < 1:
            raise ValueError("repeat must be >= 1")
        if (self.src == self.dst).any():
            raise ValueError("self-messages must be modelled as copies")

    @classmethod
    def of_steps(cls, steps: Iterable[Step],
                 terms: Callable[[int], np.ndarray]) -> "Plan":
        """A plan from its rounds, in order."""
        steps = list(steps)
        msg_counts = [len(s.src) for s in steps]
        copy_counts = [len(s.copy_ranks) for s in steps]
        return cls(
            _cat([s.src for s in steps], np.int32),
            _cat([s.dst for s in steps], np.int32),
            _cat([np.broadcast_to(s.size, n)
                  for s, n in zip(steps, msg_counts)], np.intp),
            _cat([s.copy_ranks for s in steps], np.int32),
            _cat([np.broadcast_to(s.copy, n)
                  for s, n in zip(steps, copy_counts)], np.intp),
            msg_counts, copy_counts, [s.repeat for s in steps], terms)

    def sized(self, msg_size: int) -> "FlatSchedule":
        """The schedule at *msg_size*: the plan's arrays, with every
        entry's byte term looked up."""
        terms = np.asarray(self.terms(msg_size), dtype=np.float64)
        return FlatSchedule(self.src, self.dst,
                            terms.take(self.size_term), self.copy_ranks,
                            terms.take(self.copy_term), self.msg_bounds,
                            self.copy_bounds, self.repeat)


class FlatSchedule:
    """A sized schedule in flat arrays: :class:`Plan`'s layout with
    byte counts (``size``, ``copy_bytes``) in place of term indices.
    What :meth:`Machine.evaluate` prices."""

    __slots__ = ("src", "dst", "size", "copy_ranks", "copy_bytes",
                 "msg_bounds", "copy_bounds", "repeat")

    def __init__(self, src: np.ndarray, dst: np.ndarray, size: np.ndarray,
                 copy_ranks: np.ndarray, copy_bytes: np.ndarray,
                 msg_bounds: np.ndarray, copy_bounds: np.ndarray,
                 repeat: list[int]) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.copy_ranks = copy_ranks
        self.copy_bytes = copy_bytes
        self.msg_bounds = msg_bounds
        self.copy_bounds = copy_bounds
        self.repeat = repeat

    @classmethod
    def of_rounds(cls, rounds: Iterable[Round]) -> "FlatSchedule":
        """The flat form of a :class:`Round` list (one concatenation)."""
        rounds = list(rounds)
        return cls(_cat([r.src for r in rounds], np.int64),
                   _cat([r.dst for r in rounds], np.int64),
                   _cat([r.size for r in rounds], np.float64),
                   _cat([r.copy_ranks for r in rounds], np.int64),
                   _cat([r.copy_bytes for r in rounds], np.float64),
                   _bounds([len(r.src) for r in rounds]),
                   _bounds([len(r.copy_ranks) for r in rounds]),
                   [r.repeat for r in rounds])

    def __len__(self) -> int:
        return len(self.repeat)

    def __iter__(self):
        """The rounds, so code that prices a :class:`Round` list round
        by round (the reference pricer of the one-pass tests, patched in
        for ``Machine.evaluate``) takes what ``estimate`` passes."""
        return iter(self.rounds())

    def rounds(self) -> Schedule:
        """Each round as a :class:`Round` built from its slice of the
        flat arrays (``Round`` holds its ranks as ``int64``)."""
        mb = self.msg_bounds.tolist()
        cb = self.copy_bounds.tolist()
        return [Round(src=self.src[a:b], dst=self.dst[a:b],
                      size=self.size[a:b], copy_ranks=self.copy_ranks[c:d],
                      copy_bytes=self.copy_bytes[c:d], repeat=n)
                for a, b, c, d, n in zip(mb, mb[1:], cb, cb[1:],
                                         self.repeat)]

    def chunk(self, lo: int, hi: int) -> "FlatSchedule":
        """Rounds ``lo:hi`` (views)."""
        (m0, m1), (c0, c1) = self.msg_bounds[[lo, hi]], \
            self.copy_bounds[[lo, hi]]
        return FlatSchedule(self.src[m0:m1], self.dst[m0:m1],
                            self.size[m0:m1], self.copy_ranks[c0:c1],
                            self.copy_bytes[c0:c1],
                            self.msg_bounds[lo:hi + 1] - m0,
                            self.copy_bounds[lo:hi + 1] - c0,
                            self.repeat[lo:hi])


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
        self._plans: dict[object, Plan] = {}

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

    def plan(self, algorithm) -> Plan:
        """*algorithm*'s plan on this job shape: built by its
        ``build_plan(machine)`` on first use and kept, so every message
        size priced on this machine sizes the same plan."""
        plan = self._plans.get(algorithm)
        if plan is None:
            plan = self._plans[algorithm] = algorithm.build_plan(self)
        return plan

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

    def evaluate(self, schedule: FlatSchedule | Iterable[Round]) -> float:
        """Total simulated time of a schedule, in seconds.

        Equal, bit for bit, to ``sum(self.round_time(r) * r.repeat for r
        in rounds)`` over the schedule's rounds (``round_time`` is the
        readable statement of the model and the test oracle), but priced
        in one NumPy pass per chunk of rounds instead of one pass per
        round.  A :class:`Round` list is flattened first; a sized plan
        is priced in place.  Rounds are grouped in schedule order up to
        :data:`EVALUATE_CHUNK_ENTRIES` entries (a larger round is priced
        alone).
        """
        flat = schedule if isinstance(schedule, FlatSchedule) \
            else FlatSchedule.of_rounds(schedule)
        entries = (np.diff(flat.msg_bounds) + np.diff(flat.copy_bounds)
                   + self.p).tolist()
        limit = EVALUATE_CHUNK_ENTRIES
        times: list[float] = []
        lo = total = 0
        for hi, size in enumerate(entries):
            if hi > lo and total + size > limit:
                times += self._price_rounds(flat.chunk(lo, hi))
                lo, total = hi, 0
            total += size
        if entries:
            times += self._price_rounds(
                flat if lo == 0 else flat.chunk(lo, len(entries)))
        return sum(t * n for t, n in zip(times, flat.repeat))

    def _price_rounds(self, rounds: FlatSchedule) -> list[float]:
        """``round_time`` of each of *rounds*, in one segmented pass.

        The rounds' messages and copies, already flat, are tagged with
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
        rid = np.repeat(np.arange(n_rounds), np.diff(rounds.msg_bounds))
        src, dst, size = rounds.src, rounds.dst, rounds.size
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
        copy_bytes = rounds.copy_bytes
        copy_slot = np.repeat(np.arange(n_rounds) * p,
                              np.diff(rounds.copy_bounds)) \
            + rounds.copy_ranks
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


def _cat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    """``np.concatenate`` of *arrays* as *dtype* (empty when there are
    none; no copy for a single array of that dtype)."""
    if not arrays:
        return np.empty(0, dtype=dtype)
    if len(arrays) == 1:
        return np.asarray(arrays[0], dtype=dtype)
    return np.concatenate(arrays).astype(dtype, copy=False)


def _bounds(counts: Sequence[int]) -> np.ndarray:
    """Offsets ``[0, c0, c0 + c1, ...]`` of consecutive runs."""
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def _distinct_per_group(groups: np.ndarray, values: np.ndarray,
                        n_groups: int) -> np.ndarray:
    """Per group, the number of distinct *values* observed in it (e.g.
    distinct destination nodes per source node).  Returns an array of
    length *n_groups*."""
    pairs = np.unique(groups * np.int64(n_groups) + values)
    return np.bincount(pairs // n_groups, minlength=n_groups)


#: The plan of a job with nothing to communicate (one rank).
EMPTY_PLAN = Plan.of_steps([], terms=lambda msg_size: np.empty(0))
