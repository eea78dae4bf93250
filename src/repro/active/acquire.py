"""Candidate pools, stratified seeding, and uncertainty scoring.

The acquisition loop works over a *pool* of unbenchmarked
configurations — one :class:`Candidate` per feasible
``(cluster, collective, nodes, ppn, msg_size)`` — in a canonical order
(clusters and collectives as given, then the feasibility grid's own
ordering).  Everything downstream is deterministic in that order plus
the run seed, which is what makes same-seed schedules byte-identical.

Seeding is stratified per job shape: every ``(cluster, collective,
nodes, ppn)`` group contributes at least one configuration, with its
message sizes sampled evenly across the sorted size axis (a seeded
offset rotates which sizes are picked).  That guarantees each
per-collective model can train after the seed round and that the seed
spans the small-vs-large message crossovers the tuning tables encode.

Scoring ranks the remaining pool with RF vote entropy / margin from
``predict_proba_batch`` — one vectorized PackedTrees traversal per
collective, never a per-config loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.features import ALL_FEATURE_NAMES, feature_block
from ..hwmodel.specs import ClusterSpec
from ..ml.uncertainty import prediction_margin, vote_entropy


@dataclass(frozen=True)
class Candidate:
    """One unbenchmarked configuration in the pool."""

    cluster: str
    collective: str
    nodes: int
    ppn: int
    msg_size: int

    @property
    def key(self) -> tuple[str, str, int, int, int]:
        return (self.cluster, self.collective, self.nodes, self.ppn,
                self.msg_size)


def build_pool(clusters: list[ClusterSpec],
               collectives: tuple[str, ...]) -> list[Candidate]:
    """The canonical candidate pool: every feasible configuration of
    every (cluster, collective), in deterministic order."""
    from ..core.dataset import feasible_configs

    pool: list[Candidate] = []
    for spec in clusters:
        for collective in collectives:
            for nodes, ppn, msg in feasible_configs(spec, collective):
                pool.append(Candidate(spec.name, collective, nodes,
                                      ppn, msg))
    return pool


#: Configs whose *individual* estimated cost exceeds this fraction of
#: the whole pool's estimated cost are never seeded.  The benchmark
#: cost distribution is heavy-tailed (one huge-message, huge-rank
#: config can be ~20 % of an entire campaign), so a seed that trips
#: over the tail by stratification luck would burn the acquisition
#: budget before the first round.  Tail configs stay in the pool: the
#: cost-aware ranking can still buy them later if they are worth their
#: price in information.
SEED_COST_TAIL_FRACTION = 0.01


def stratified_seed(pool: list[Candidate], fraction: float,
                    seed: int = 0,
                    specs: dict[str, ClusterSpec] | None = None
                    ) -> list[int]:
    """Indices into *pool* forming the stratified seed sample.

    Groups by job shape ``(cluster, collective, nodes, ppn)``; each
    group contributes ``max(1, round(fraction * len(group)))``
    configurations spaced evenly along its sorted message-size axis,
    starting from a seeded per-group offset.  Returned indices are
    sorted, so the seed is benchmarked in canonical pool order.

    With *specs*, configs in the pool's estimated-cost tail
    (:data:`SEED_COST_TAIL_FRACTION`) are excluded before grouping;
    a job shape whose configs are all in the tail contributes nothing
    (acquisition can still reach it, budget permitting).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("seed fraction must be in (0, 1]")
    excluded: set[int] = set()
    if specs is not None:
        costs = [estimated_core_hours(specs[c.cluster], c.collective,
                                      c.nodes, c.ppn, c.msg_size)
                 for c in pool]
        cap = SEED_COST_TAIL_FRACTION * sum(costs)
        excluded = {i for i, cost in enumerate(costs) if cost > cap}
    groups: dict[tuple, list[int]] = {}
    for i, cand in enumerate(pool):
        if i in excluded:
            continue
        groups.setdefault(
            (cand.cluster, cand.collective, cand.nodes, cand.ppn),
            []).append(i)
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    # Group iteration order is insertion order — canonical pool order —
    # so the per-group offset draws are reproducible.
    for indices in groups.values():
        indices = sorted(indices, key=lambda i: pool[i].msg_size)
        take = max(1, int(round(fraction * len(indices))))
        take = min(take, len(indices))
        offset = int(rng.integers(len(indices)))
        if take == len(indices):
            chosen.extend(indices)
            continue
        stride = len(indices) / take
        picked = {(offset + int(round(j * stride))) % len(indices)
                  for j in range(take)}
        # Rounding collisions can merge two slots; top up from the
        # unpicked positions nearest the start to keep the count exact.
        pos = 0
        while len(picked) < take:
            if pos not in picked:
                picked.add(pos)
            pos += 1
        chosen.extend(indices[p] for p in sorted(picked))
    return sorted(chosen)


#: Memoized per-config benchmark-cost estimates (pure function of the
#: spec + config, like the feasibility grids).
_COST_CACHE: dict[tuple, float] = {}


def estimated_core_hours(spec: ClusterSpec, collective: str,
                         nodes: int, ppn: int, msg_size: int) -> float:
    """Estimated core-hours of benchmarking one configuration, from
    the analytic (noise-free) cost model — what a real campaign
    planner would predict from message size and rank count *before*
    committing an allocation.  Never consumes a measurement."""
    from ..simcluster.machine import Machine
    from ..smpi.collectives import base
    from ..smpi.tuning import DEFAULT_ITERATIONS

    key = (spec, collective, nodes, ppn, msg_size)
    cached = _COST_CACHE.get(key)
    if cached is not None:
        return cached
    machine = Machine(spec, nodes, ppn)
    total = sum(algo.estimate(machine, msg_size)
                for algo in base.algorithms(collective).values())
    cost = nodes * ppn * total * DEFAULT_ITERATIONS / 3600.0
    if len(_COST_CACHE) < 65536:
        _COST_CACHE[key] = cost
    return cost


def candidate_features(pool: list[Candidate], indices: list[int],
                       specs: dict[str, ClusterSpec]) -> np.ndarray:
    """Full 14-column feature rows for ``pool[i] for i in indices``,
    one :func:`~repro.core.features.feature_block` per cluster (as
    :meth:`TuningDataset.feature_matrix` builds them)."""
    cands = [pool[i] for i in indices]
    mpi = np.array([(c.nodes, c.ppn, c.msg_size) for c in cands],
                   dtype=float).reshape(-1, 3)
    names = np.array([c.cluster for c in cands])
    out = np.empty((len(cands), len(ALL_FEATURE_NAMES)))
    for name in dict.fromkeys(names.tolist()):
        rows = names == name
        out[rows] = feature_block(specs[name], *mpi[rows].T)
    return out


def rank_pool(models: dict, pool: list[Candidate],
              open_indices: list[int],
              specs: dict[str, ClusterSpec],
              cost_weight: float = 1.0
              ) -> list[tuple[int, float, float]]:
    """Rank the open (unbenchmarked) pool by ensemble uncertainty.

    Returns ``(pool_index, entropy, margin)`` triples, most informative
    first.  Candidates are grouped per collective and scored through
    one ``predict_proba_batch`` call each.

    With ``cost_weight > 0`` the ranking is cost-sensitive: the
    primary key is ``entropy / estimated_core_hours ** cost_weight`` —
    information *per core-hour*, the quantity the acquisition budget
    actually buys.  Without it (``cost_weight=0``) raw vote entropy
    ranks first.  Ties break by margin ascending, then pool index
    ascending — fully deterministic either way.  Collectives without a
    trained model (possible only with an empty seed group, which
    stratified seeding rules out) rank their candidates *first*,
    maximally uncertain.
    """
    by_collective: dict[str, list[int]] = {}
    for i in open_indices:
        by_collective.setdefault(pool[i].collective, []).append(i)
    scored: list[tuple[float, float, int, float]] = []
    unscored: list[int] = []
    for collective, indices in by_collective.items():
        model = models.get(collective)
        if model is None:
            unscored.extend(indices)
            continue
        X = candidate_features(pool, indices, specs)
        proba = model.predict_proba_batch(X)
        entropy = vote_entropy(proba)
        margin = prediction_margin(proba)
        for j, i in enumerate(indices):
            score = float(entropy[j])
            if cost_weight > 0.0 and score > 0.0:
                cand = pool[i]
                cost = estimated_core_hours(
                    specs[cand.cluster], cand.collective, cand.nodes,
                    cand.ppn, cand.msg_size)
                score = score / max(cost, 1e-12) ** cost_weight
            scored.append((score, float(margin[j]), i,
                           float(entropy[j])))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    return [(i, float("inf"), 0.0) for i in sorted(unscored)] + \
        [(i, entropy, margin) for score, margin, i, entropy in scored]
