"""Tests for feature assembly and top-k selection."""

import numpy as np
import pytest

from repro.active.acquire import Candidate, candidate_features
from repro.core.dataset import CollectiveRecord, TuningDataset
from repro.core.features import (
    ALL_FEATURE_NAMES,
    MPI_FEATURE_NAMES,
    feature_block,
    feature_indices,
    feature_vector,
    select_top_k,
)
from repro.hwmodel import get_cluster


class TestFeatureVector:
    def test_fourteen_features(self):
        assert len(ALL_FEATURE_NAMES) == 14
        assert ALL_FEATURE_NAMES[:3] == MPI_FEATURE_NAMES

    def test_vector_contents(self):
        spec = get_cluster("Frontera")
        v = feature_vector(spec, nodes=4, ppn=28, msg_size=1024)
        assert v.shape == (14,)
        assert v[0] == 4 and v[1] == 28 and v[2] == 1024
        idx = ALL_FEATURE_NAMES.index("cpu_max_clock_ghz")
        assert v[idx] == pytest.approx(4.0)

    def test_matrix_matches_vectors(self):
        """The dataset's and the active pool's feature matrices (one
        feature_block per cluster, clusters interleaved) equal the
        scalar path row by row."""
        rows = [("RI", 2, 4, 64), ("Sierra", 8, 16, 4096),
                ("RI", 1, 2, 1 << 20)]
        expected = np.stack([feature_vector(get_cluster(c), n, p, m)
                             for c, n, p, m in rows])
        ds = TuningDataset([CollectiveRecord(c, "allgather", n, p, m,
                                             {"ring": 1.0})
                            for c, n, p, m in rows])
        assert np.array_equal(ds.feature_matrix(), expected)
        pool = [Candidate(c, "allgather", n, p, m) for c, n, p, m in rows]
        specs = {c: get_cluster(c) for c, *_ in rows}
        assert np.array_equal(
            candidate_features(pool, [0, 1, 2], specs), expected)
        assert np.array_equal(candidate_features(pool, [1], specs),
                              expected[1:2])

    def test_feature_indices(self):
        idx = feature_indices(("msg_size", "l3_cache_mib"))
        assert ALL_FEATURE_NAMES[idx[0]] == "msg_size"
        assert ALL_FEATURE_NAMES[idx[1]] == "l3_cache_mib"

    def test_unknown_feature_raises(self):
        with pytest.raises(KeyError, match="unknown feature"):
            feature_indices(("bogus",))

    def test_specs_sharing_a_name_keep_their_own_rows(self):
        """Regression: hardware rows were once cached by spec name, so
        two specs sharing a name (e.g. a degraded-NetParams variant)
        aliased each other's features; feature_block takes the spec
        itself."""
        import dataclasses

        ri = get_cluster("RI")
        impostor = dataclasses.replace(get_cluster("Sierra"), name="RI")
        cols = (np.array([2]), np.array([4]), np.array([64]))
        real = feature_block(ri, *cols)[0]
        fake = feature_block(impostor, *cols)[0]
        assert np.array_equal(real, feature_vector(ri, 2, 4, 64))
        assert np.array_equal(fake, feature_vector(impostor, 2, 4, 64))
        # The two rows genuinely differ in their hardware features.
        assert not np.array_equal(real, fake)

    def test_feature_block_matches_matrix(self):
        """feature_block equals the matrix of stacked scalar vectors."""
        spec = get_cluster("RI")
        nodes = np.array([1, 2, 2], dtype=np.int64)
        ppn = np.array([4, 8, 16], dtype=np.int64)
        msg = np.array([64, 1024, 2**20], dtype=np.int64)
        blk = feature_block(spec, nodes, ppn, msg)
        assert np.array_equal(blk, np.stack([
            feature_vector(spec, int(n), int(p), int(m))
            for n, p, m in zip(nodes, ppn, msg)]))


class TestTopK:
    def test_selects_highest(self):
        imp = np.zeros(14)
        imp[2] = 0.5   # msg_size
        imp[4] = 0.3   # l3 (index 4 = cpu_max_clock? order check below)
        imp[0] = 0.2
        top = select_top_k(imp, k=3)
        assert top[0] == ALL_FEATURE_NAMES[2]
        assert top[1] == ALL_FEATURE_NAMES[4]
        assert top[2] == ALL_FEATURE_NAMES[0]

    def test_tie_break_is_canonical_order(self):
        imp = np.ones(14)
        top = select_top_k(imp, k=5)
        assert top == ALL_FEATURE_NAMES[:5]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            select_top_k(np.ones(14), k=0)
        with pytest.raises(ValueError):
            select_top_k(np.ones(14), k=15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            select_top_k(np.ones(5))
