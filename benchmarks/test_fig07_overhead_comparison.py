"""Fig. 7 — startup core-hours including the proposed framework.

Paper: PML-MPI's curve is flat (one inference on one process) while
offline micro-benchmarking and ACCLAiM grow; the gap is ~1e6x vs
micro-benchmarking at 32 nodes and ~1e4x vs ACCLAiM at 128 nodes.

Shape checks: PML core-hours constant across node counts; speedup vs
micro-benchmarking @32 nodes >= 1e4; vs ACCLAiM @128 nodes >= 1e3.
(Our inference runs on a laptop-class Python stack, so we assert one
order of magnitude of slack against the paper's C-side numbers.)
"""

from repro.core.inference import inference_latency
from repro.core.overhead import overhead_curves
from repro.hwmodel import get_cluster

NODE_COUNTS = (2, 8, 32, 128, 512, 2048, 8192)
PPN = 56


def test_fig07_overhead(heldout_selector, report):
    spec = get_cluster("Frontera")

    def run():
        t_infer = inference_latency(heldout_selector, spec, repeats=3)
        return t_infer, overhead_curves(spec, "allgather", PPN,
                                        NODE_COUNTS, t_infer)

    t_infer, curves = run()

    lines = [f"inference wall time: {t_infer * 1e3:.1f} ms",
             f"{'nodes':>6} {'microbench':>12} {'ACCLAiM':>12} "
             f"{'PML':>12}  (core-hours)"]
    for m, a, p in zip(*curves.values()):
        lines.append(f"{m.nodes:>6} {m.core_hours:>12.3e} "
                     f"{a.core_hours:>12.3e} {p.core_hours:>12.3e}")
    micro32 = next(pt for pt in curves["microbenchmark"]
                   if pt.nodes == 32)
    acc128 = next(pt for pt in curves["acclaim"] if pt.nodes == 128)
    pml = curves["pml"][0].core_hours
    lines.append(f"speedup vs microbench@32 = {micro32.core_hours / pml:.2e} "
                 "(paper ~1e6)")
    lines.append(f"speedup vs ACCLAiM@128  = {acc128.core_hours / pml:.2e} "
                 "(paper ~1e4)")
    report("Fig. 7 — overhead comparison incl. proposed", lines)

    pml_vals = [pt.core_hours for pt in curves["pml"]]
    assert max(pml_vals) == min(pml_vals), "PML overhead must be constant"
    assert micro32.core_hours / pml >= 1e4
    assert acc128.core_hours / pml >= 1e3
