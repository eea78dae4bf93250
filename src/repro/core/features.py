"""Feature-vector assembly and top-k selection (paper Section V-A).

The full feature set has 14 entries: 3 MPI-specific (#nodes, PPN,
message size) + 11 hardware features from
:mod:`repro.hwmodel.extract`.  The paper ranks them by Random-Forest
Gini importance and keeps the top 5 per collective to avoid
overfitting; :func:`select_top_k` reproduces that step.
"""

from __future__ import annotations

import numpy as np

from ..hwmodel.extract import HARDWARE_FEATURE_NAMES, cluster_features
from ..hwmodel.specs import ClusterSpec

#: MPI-specific feature names, canonical order.
MPI_FEATURE_NAMES: tuple[str, ...] = ("num_nodes", "ppn", "msg_size")

#: Full 14-feature name list (MPI-specific first, as in the paper).
ALL_FEATURE_NAMES: tuple[str, ...] = MPI_FEATURE_NAMES + \
    HARDWARE_FEATURE_NAMES

#: Number of features kept after importance ranking (paper Section V-A).
DEFAULT_TOP_K = 5


def feature_vector(spec: ClusterSpec, nodes: int, ppn: int,
                   msg_size: int) -> np.ndarray:
    """The 14-entry feature vector of one benchmark configuration.

    Hardware features go through the full probe->parse extraction path.
    """
    hw = cluster_features(spec).as_vector()
    return np.array([float(nodes), float(ppn), float(msg_size)] + hw)


def feature_block(spec: ClusterSpec, nodes: np.ndarray, ppn: np.ndarray,
                  msg_size: np.ndarray) -> np.ndarray:
    """Feature rows of many configurations of one cluster: whole-array
    MPI columns, hardware features extracted once and broadcast.
    Produces float64 values identical to :func:`feature_vector` per
    row (both go through the same int -> float64 conversion)."""
    hw = cluster_features(spec).as_vector()
    out = np.empty((len(nodes), len(ALL_FEATURE_NAMES)))
    out[:, 0] = nodes
    out[:, 1] = ppn
    out[:, 2] = msg_size
    out[:, 3:] = hw
    return out


def feature_indices(names: tuple[str, ...] | list[str]) -> np.ndarray:
    """Column indices of the named features in the canonical order."""
    idx = []
    for name in names:
        try:
            idx.append(ALL_FEATURE_NAMES.index(name))
        except ValueError:
            raise KeyError(
                f"unknown feature {name!r}; known: "
                f"{', '.join(ALL_FEATURE_NAMES)}") from None
    return np.asarray(idx, dtype=np.int64)


def select_top_k(importances: np.ndarray, k: int = DEFAULT_TOP_K,
                 names: tuple[str, ...] = ALL_FEATURE_NAMES
                 ) -> tuple[str, ...]:
    """Names of the k most important features, importance-descending.

    Ties broken by canonical feature order for determinism.
    """
    importances = np.asarray(importances)
    if len(importances) != len(names):
        raise ValueError(
            f"{len(importances)} importances for {len(names)} features")
    if not 1 <= k <= len(names):
        raise ValueError(f"k={k} out of range for {len(names)} features")
    order = np.argsort(-importances, kind="stable")[:k]
    return tuple(names[i] for i in order)
