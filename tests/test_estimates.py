"""Cost-model estimates frozen beyond the collection grid.

``golden/estimates.json.gz`` (written by ``scripts/make_estimates.py``)
holds ``CollectiveAlgorithm.estimate`` of every registered algorithm on
job shapes from all 18 clusters — one rank, one node of 5 and of 7
ranks, seeded non-power-of-two and power-of-two shapes, shapes over
300 ranks — at message sizes off the power-of-two grid, up to 2^62.
Every grid size is a power of two, where most sizing rules agree
however their arithmetic rounds (``c * m - h * m`` equals
``(c - h) * m``, ``float(p * m)`` equals ``p * float(m)``); these sizes
are where a rule that differs shows.  The fixture was written before
schedules were built from plans.
"""

import gzip
import json
from pathlib import Path

import pytest

from repro.hwmodel import all_clusters, get_cluster
from repro.simcluster.machine import Machine
from repro.smpi.collectives import base

FIXTURE = Path(__file__).parent / "golden" / "estimates.json.gz"


@pytest.fixture(scope="module")
def frozen():
    return json.loads(gzip.decompress(FIXTURE.read_bytes()))


def test_fixture_covers_every_algorithm_and_cluster(frozen):
    rows = frozen["rows"]
    assert {r["cluster"] for r in rows} == {s.name for s in all_clusters()}
    assert {(r["collective"], r["algorithm"]) for r in rows} == {
        (c, n) for c in base.ALL_COLLECTIVES
        for n in base.algorithm_names(c)}
    ranks = {r["nodes"] * r["ppn"] for r in rows}
    assert 1 in ranks
    assert any(p & (p - 1) for p in ranks)
    assert max(ranks) > 300
    assert all(m & (m - 1) for m in frozen["msg_sizes"] if 1 < m < 2**62)
    assert max(frozen["msg_sizes"]) == 2**62


def test_estimates_equal_the_frozen_values(frozen):
    sizes = frozen["msg_sizes"]
    machines: dict = {}
    for row in frozen["rows"]:
        shape = (row["cluster"], row["nodes"], row["ppn"])
        m = machines.get(shape)
        if m is None:
            m = machines[shape] = Machine(get_cluster(row["cluster"]),
                                          row["nodes"], row["ppn"])
        algo = base.get_algorithm(row["collective"], row["algorithm"])
        got = [float(algo.estimate(m, size)).hex() for size in sizes]
        assert got == row["estimates"], (shape, row["collective"],
                                         row["algorithm"])
