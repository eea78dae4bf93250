"""Fig. 6 — Gini feature importances, MPI_Alltoall.

Paper: MPI-specific features dominate again; among hardware features
the interconnect bandwidth (link speed and lane count) leads, because
Alltoall moves far more data than Allgather.

Shape checks: msg_size first; MPI features carry most mass; hardware
features contribute a nonzero remainder.  Whether link speed or a
correlated cluster identifier (e.g. core count) tops the hardware
ranking is reported rather than asserted — see EXPERIMENTS.md.
"""

from repro.core.features import MPI_FEATURE_NAMES
from repro.core.training import feature_importance_report
from repro.hwmodel.extract import HARDWARE_FEATURE_NAMES


def test_fig06_importance_alltoall(dataset, report):
    rep = feature_importance_report(dataset, "alltoall")

    lines = [f"{'feature':<24} {'importance':>10}"]
    for name, value in rep:
        tag = " (MPI)" if name in MPI_FEATURE_NAMES else " (HW)"
        lines.append(f"{name:<24} {value:>10.4f}{tag}")
    scores = dict(rep)
    hw_top = max(HARDWARE_FEATURE_NAMES, key=scores.__getitem__)
    lines.append(f"top hardware feature here: {hw_top} "
                 "(paper: interconnect speed/lanes)")
    report("Fig. 6 — feature importances (Alltoall)", lines)

    ordered = [name for name, _ in rep]
    assert ordered[0] == "msg_size"
    assert sum(scores[f] for f in MPI_FEATURE_NAMES) > 0.5
    assert sum(scores[f] for f in HARDWARE_FEATURE_NAMES) > 0.02
