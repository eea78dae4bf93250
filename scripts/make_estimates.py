#!/usr/bin/env python
"""Regenerate the frozen cost-model estimates under tests/golden/.

``estimates.json.gz`` holds ``CollectiveAlgorithm.estimate`` of every
registered algorithm, as ``float.hex`` text, on a seeded sample of job
shapes from all 18 clusters (one rank, non-power-of-two rank counts,
shapes over 300 ranks) at message sizes off the power-of-two grid, up
to 2^62.  Collection only prices power-of-two sizes, where most sizing
rules agree whatever their arithmetic; these sizes are where a rule
that rounds differently shows.  ``tests/test_estimates.py`` asserts the
current code reproduces every value exactly.

Run it from the root of a checkout (``python scripts/make_estimates.py``);
it prices with that checkout's ``src/`` and rewrites the fixture.  Rerun
it only when an intentional cost-model change moves the estimates.
"""

from __future__ import annotations

import gzip
import json
import random
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.hwmodel import all_clusters  # noqa: E402
from repro.simcluster.machine import Machine  # noqa: E402
from repro.smpi.collectives import base  # noqa: E402

FIXTURE = REPO / "tests" / "golden" / "estimates.json.gz"
SEED = 2026
#: Off the power-of-two grid: odd sizes; sizes with a float's 53-bit
#: mantissa filled (2^53 - 1, 0x15555555555555, 2^62 - 2^9), where a
#: product such as ``3 * m`` rounds, so ``c * m - h * m`` and
#: ``(c - h) * m`` differ; sizes a float cannot hold exactly (2^53 + 1,
#: 2^62 - 1), where ``float(p * msg_size)`` and ``p * float(msg_size)``
#: differ; and the largest size a query may ask.
MSG_SIZES = (1, 3, 1000, 12345, 2**20 + 1, 2**31 - 1, 2**53 - 1,
             2**53 + 1, 0x15555555555555, 2**62 - 2**9, 2**62 - 1, 2**62)
#: On every cluster: one node of 5 and of 7 ranks, shapes so small that
#: a one-ulp change in one message's bytes can reach the estimate
#: (in larger jobs a round's sums mostly round it away).
SMALL_SHAPES = ((1, 5), (1, 7))
#: Every third cluster also gets a shape of 301-400 ranks.
LARGE_EVERY = 3


def sample_shapes(spec, rng: random.Random, large: bool
                  ) -> list[tuple[int, int]]:
    """(nodes, ppn) shapes of one cluster: one rank, the small shapes,
    a non-power-of-two rank count, a power-of-two one, and, when
    *large*, one over 300 ranks."""
    max_nodes = spec.max_nodes
    threads = spec.node.cpu.threads_per_node

    def draw(accept, nodes_hi, tries=10_000):
        for _ in range(tries):
            nodes = rng.randint(1, nodes_hi)
            ppn = rng.randint(1, threads)
            if accept(nodes * ppn):
                return nodes, ppn
        raise RuntimeError(f"no shape found on {spec.name}")

    shapes = [(1, 1), *SMALL_SHAPES,
              draw(lambda p: 2 < p <= 64 and not base.is_power_of_two(p),
                   min(8, max_nodes)),
              draw(lambda p: 2 <= p <= 256 and base.is_power_of_two(p),
                   min(16, max_nodes))]
    if large and max_nodes * threads > 300:
        shapes.append(draw(lambda p: 300 < p <= 400, max_nodes))
    return shapes


def estimates() -> dict:
    rng = random.Random(SEED)
    rows = []
    for i, spec in enumerate(all_clusters()):
        for nodes, ppn in sample_shapes(spec, rng, i % LARGE_EVERY == 0):
            machine = Machine(spec, nodes, ppn)
            for collective in base.ALL_COLLECTIVES:
                for name in base.algorithm_names(collective):
                    algo = base.get_algorithm(collective, name)
                    rows.append({
                        "cluster": spec.name, "nodes": nodes, "ppn": ppn,
                        "collective": collective, "algorithm": name,
                        "estimates": [float(algo.estimate(machine, m)).hex()
                                      for m in MSG_SIZES]})
    return {"seed": SEED, "msg_sizes": list(MSG_SIZES), "rows": rows}


def main() -> int:
    data = estimates()
    with open(FIXTURE, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                           mtime=0) as fh:
            fh.write((json.dumps(data, indent=0) + "\n").encode())
    shapes = {(r["cluster"], r["nodes"], r["ppn"]) for r in data["rows"]}
    print(f"wrote {FIXTURE.relative_to(REPO)}: {len(data['rows'])} "
          f"(shape, algorithm) rows over {len(shapes)} shapes, "
          f"{len(MSG_SIZES)} message sizes each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
