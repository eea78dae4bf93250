"""Fig. 13 — application results: Gromacs (BenchMEM) and MiniFE on
Frontera, PML vs MVAPICH default vs random selection.

Paper: strong scaling flattens around ~224 processes; PML yields 2.90%
(Gromacs) / 4.43% (MiniFE) over the default and 19.39% / 20.66% over
random selection.

Shape checks: PML >= default >= (never worse than) for total runtime
within noise; PML's win over random is several times its win over the
default; single-digit-percent wins over the default.
"""

from repro.apps import GromacsProxy, MiniFEProxy, strong_scaling
from repro.hwmodel import get_cluster
from repro.smpi import MvapichDefaultSelector, RandomSelector

COUNTS = [(1, 56), (2, 56), (4, 56), (8, 56), (16, 56)]
STEPS = 50


def test_fig13_applications(heldout_selector, report):
    spec = get_cluster("Frontera")

    def run():
        out = {}
        for app in (GromacsProxy(), MiniFEProxy()):
            per_sel = {}
            for name, sel in (("pml", heldout_selector),
                              ("default", MvapichDefaultSelector()),
                              ("random", RandomSelector(0))):
                per_sel[name] = strong_scaling(app, spec, COUNTS, sel,
                                               steps=STEPS)
            out[app.name] = per_sel
        return out

    results = run()

    paper = {"gromacs": (1.0290, 1.1939), "minife": (1.0443, 1.2066)}
    lines = []
    checks = []
    for app_name, per_sel in results.items():
        lines.append(f"-- {app_name} (total runtime, {STEPS} steps) --")
        lines.append(f"{'#procs':>7} {'pml(s)':>10} {'default(s)':>11} "
                     f"{'random(s)':>10}")
        for i, (nodes, ppn) in enumerate(COUNTS):
            lines.append(
                f"{nodes * ppn:>7} {per_sel['pml'][i].total_s:>10.4f} "
                f"{per_sel['default'][i].total_s:>11.4f} "
                f"{per_sel['random'][i].total_s:>10.4f}")
        tot = {n: sum(r.total_s for r in rs)
               for n, rs in per_sel.items()}
        sp_def = tot["default"] / tot["pml"]
        sp_rnd = tot["random"] / tot["pml"]
        lines.append(f"  speedup vs default={sp_def:.4f}x "
                     f"(paper {paper[app_name][0]:.4f}x), "
                     f"vs random={sp_rnd:.4f}x "
                     f"(paper {paper[app_name][1]:.4f}x)")
        checks.append((app_name, per_sel, sp_def, sp_rnd))
    report("Fig. 13 — application results (Frontera)", lines)

    for app_name, per_sel, sp_def, sp_rnd in checks:
        assert sp_def >= 0.999, f"{app_name}: PML slower than default"
        assert 1.0 <= sp_rnd, f"{app_name}: PML slower than random"
        assert sp_rnd > sp_def, \
            f"{app_name}: random should be the weaker baseline"
        assert sp_def < 1.5, \
            f"{app_name}: app-level win implausibly large ({sp_def})"
        # Strong scaling: runtime at 112 procs below 56-proc runtime.
        pml = per_sel["pml"]
        assert pml[1].total_s < pml[0].total_s
