"""Online inference (paper Fig. 4): constant-time tuning-table
generation for a new cluster from the pre-trained model.

``PretrainedSelector`` answers per-call queries (one model inference);
``generate_tuning_table`` runs the compile-time flow — extract the new
cluster's hardware features, batch-infer the full (nodes, ppn, msg)
grid in one ``predict`` call, and emit the JSON tuning table the MPI
runtime will look up in O(1).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from ..hwmodel.specs import ClusterSpec
from ..obs.telemetry import get_registry, get_tracer
from ..simcluster.machine import Machine
from ..smpi.heuristics import AlgorithmSelector, validate_query
from ..smpi.tuning import TuningTable
from .features import feature_block, feature_vector
from .training import TrainedModel

log = logging.getLogger(__name__)


class PretrainedSelector(AlgorithmSelector):
    """Algorithm selector backed by pre-trained per-collective models."""

    def __init__(self, models: dict[str, TrainedModel]) -> None:
        for collective, model in models.items():
            if model.collective != collective:
                raise ValueError(
                    f"model for {model.collective} registered under "
                    f"{collective}")
        self.models = dict(models)

    def select(self, collective: str, machine: Machine,
               msg_size: int) -> str:
        validate_query(collective, machine, msg_size)
        try:
            model = self.models[collective]
        except KeyError:
            raise KeyError(
                f"no pre-trained model for {collective}; have "
                f"{', '.join(self.models)}") from None
        X = feature_vector(machine.spec, machine.nodes, machine.ppn,
                           msg_size)[None, :]
        return str(model.predict(X)[0])

    def select_block(self, spec: ClusterSpec, collectives: np.ndarray,
                     nodes: np.ndarray, ppn: np.ndarray,
                     msg_size: np.ndarray) -> np.ndarray:
        """Columnar selection over prevalidated rows for one cluster:
        one :func:`feature_block` build and one ``predict_batch`` per
        distinct collective, no per-row Python work.  Predictions are
        identical to :meth:`select` per row (same float64 feature
        values, same trees); like it, raises ``KeyError`` when any
        row's collective has no model."""
        out = np.empty(len(msg_size), dtype=object)
        for collective in dict.fromkeys(collectives.tolist()):
            if collective not in self.models:
                raise KeyError(
                    f"no pre-trained model for {collective}; have "
                    f"{', '.join(self.models)}")
        for collective in self.models:
            rows = collectives == collective
            if not rows.any():
                continue
            X = feature_block(spec, nodes[rows], ppn[rows],
                              msg_size[rows])
            out[rows] = self.models[collective].predict_batch(X)
        return out

    def describe(self) -> str:
        families = {c: m.family for c, m in self.models.items()}
        return f"PretrainedSelector({families})"


@dataclass
class InferenceReport:
    """Outcome of one compile-time tuning-table generation."""

    table: TuningTable
    n_configs: int
    wall_seconds: float


def generate_tuning_table(selector: PretrainedSelector, spec: ClusterSpec,
                          collectives: tuple[str, ...] | None = None,
                          node_counts: tuple[int, ...] | None = None,
                          ppn_values: tuple[int, ...] | None = None,
                          msg_sizes: tuple[int, ...] | None = None
                          ) -> InferenceReport:
    """Batch inference over a cluster's configuration grid.

    Defaults to the cluster's own sampled grid (Table I), which is also
    what the paper's framework enumerates at MPI compile time.  The
    wall-clock time of this call is the *entire* per-cluster startup
    overhead of PML-MPI (Fig. 7's flat line).
    """
    if collectives is None:
        collectives = tuple(selector.models)
    # `is None` (not truthiness): an explicitly-passed empty grid must
    # raise "no valid configurations", never silently fall back to the
    # cluster's full default grid.
    if node_counts is None:
        node_counts = spec.node_counts
    if ppn_values is None:
        ppn_values = spec.ppn_values
    if msg_sizes is None:
        msg_sizes = spec.msg_sizes

    t0 = time.perf_counter()
    tracer = get_tracer()
    with tracer.span("tune.generate_table", cluster=spec.name) as top:
        configs = [(nodes, ppn, msg)
                   for nodes in node_counts
                   for ppn in ppn_values if nodes * ppn >= 2
                   for msg in msg_sizes]
        if not configs:
            raise ValueError(f"no valid configurations for {spec.name}")
        X = feature_block(spec, *np.array(configs, dtype=float).T)
        entries: dict[str, dict] = {}
        for collective in collectives:
            model = selector.models[collective]
            with tracer.span("tune.predict", collective=collective,
                             configs=len(configs)):
                predictions = model.predict_batch(X)
            per = entries[collective] = {}
            for (nodes, ppn, msg), algo in zip(configs, predictions):
                per.setdefault((nodes, ppn), []).append((msg, str(algo)))
        # The constructor validates every predicted name, so a degraded
        # model emitting garbage labels fails loudly here (and the
        # setup_cluster ladder degrades to its fallback) instead of
        # shipping a nonsensical table.
        table = TuningTable(spec.name, entries)
        n_configs = len(configs) * len(collectives)
        if top is not None:
            top.attributes["entries"] = n_configs
    get_registry().gauge("tune.table_entries").set(n_configs)
    wall = time.perf_counter() - t0
    log.info("generated tuning table for %s: %d entries in %.3fs",
             spec.name, n_configs, wall)
    return InferenceReport(table=table, n_configs=n_configs,
                           wall_seconds=wall)


def inference_latency(selector: PretrainedSelector, spec: ClusterSpec,
                      repeats: int = 5) -> float:
    """Median wall time of a full tuning-table generation (seconds) —
    the quantity plotted for the proposed framework in Figs. 1/7."""
    times = []
    for _ in range(repeats):
        report = generate_tuning_table(selector, spec)
        times.append(report.wall_seconds)
    return float(np.median(times))
