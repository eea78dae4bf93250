"""Fig. 5 — Gini feature importances, MPI_Allgather.

Paper: MPI-specific features (message size above all) dominate; among
hardware features, L3 cache size is the leading one for Allgather.

Shape checks: msg_size is the single most important feature; the three
MPI-specific features carry most of the mass; L3 ranks in the top half
of the hardware features.
"""

from repro.core.features import (
    ALL_FEATURE_NAMES,
    MPI_FEATURE_NAMES,
)
from repro.core.training import feature_importance_report

from repro.hwmodel.extract import HARDWARE_FEATURE_NAMES


def test_fig05_importance_allgather(dataset, report):
    rep = feature_importance_report(dataset, "allgather")

    lines = [f"{'feature':<24} {'importance':>10}"]
    for name, value in rep:
        tag = " (MPI)" if name in MPI_FEATURE_NAMES else " (HW)"
        lines.append(f"{name:<24} {value:>10.4f}{tag}")
    lines.append("paper: msg size dominant; L3 cache is the top hardware "
                 "feature for Allgather")
    report("Fig. 5 — feature importances (Allgather)", lines)

    ordered = [name for name, _ in rep]
    scores = dict(rep)
    assert ordered[0] == "msg_size"
    mpi_mass = sum(scores[f] for f in MPI_FEATURE_NAMES)
    assert mpi_mass > 0.5
    hw_ranked = [f for f in ordered if f in HARDWARE_FEATURE_NAMES]
    assert hw_ranked.index("l3_cache_mib") < len(hw_ranked) / 2
    assert len(ordered) == len(ALL_FEATURE_NAMES)
