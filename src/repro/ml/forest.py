"""Random Forest classifier with Gini feature importances.

Bootstrap-sampled CART trees with per-node random feature subsets
(``max_features="sqrt"`` by default).  ``feature_importances_`` is the
mean of the per-tree normalized accumulated Gini decreases — exactly the
definition the paper uses to rank hardware and MPI features (Section
V-A, Figs. 5-6).

The trees grow in lockstep (:class:`_Lockstep`): each step takes
one node from every unfinished tree and scores all their drawn
features in one segmented NumPy pass, so the forest equals fitting
each tree alone with :meth:`DecisionTreeClassifier.fit`, bit for bit.

``n_jobs`` fans tree fitting over a process pool.  Every per-tree
bootstrap sample and RNG seed is pre-drawn from the master RNG in
serial order, so parallel fits are bit-identical to serial ones (same
trees, same predictions, same importances).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..obs.telemetry import get_tracer
from .parallel import chunk_evenly, parallel_map, resolve_n_jobs
from .tree import _LEAF, DecisionTreeClassifier, PackedTrees, _gini_from_counts


#: Most (row, feature) entries one split-scoring pass of the lockstep
#: fit holds (a node's feature column longer than this is scored
#: alone).  It bounds the pass's transient arrays at a few MiB whatever
#: the forest: scoring a whole step at once raised the perfbench
#: pipeline's peak RSS by 45 %.
FIT_SLAB_ENTRIES = 16_384


def _fit_tree_chunk(payload: tuple) -> list[DecisionTreeClassifier]:
    """Fit one worker's share of trees (module-level for pickling).

    The per-chunk span is recorded on the ambient tracer — in a worker
    process that is the fresh per-worker tracer installed by
    :func:`repro.ml.parallel._traced_worker`, whose spans are merged
    back into the parent trace.
    """
    X, y_enc, n_classes, params, draws = payload
    with get_tracer().span("ml.fit_trees", trees=len(draws)):
        return _Lockstep(X, y_enc, n_classes, params, draws).grow()


class _Lockstep:
    """One tree per ``(rows, seed)`` draw, all grown in lockstep.

    Each tree equals ``DecisionTreeClassifier(random_state=seed,
    **params).fit(X[rows], y_enc[rows])`` (the per-node reference) with
    its values widened to all *n_classes*.  Every tree keeps its own DFS
    stack and seeded generator, so each step pops one node per
    unfinished tree and draws its features in the reference's order.
    The popped nodes are then grown in slabs of at most
    :data:`FIT_SLAB_ENTRIES` (row, drawn feature) entries (or one
    node): one segmented pass per slab takes their class counts, scores
    every drawn feature of every node and splits them.  Nodes hold row
    indices into *X*, which is never copied per tree, and node arrays
    are kept per slab, not per node.
    """

    def __init__(self, X: np.ndarray, y_enc: np.ndarray, n_classes: int,
                 params: dict, draws: list) -> None:
        n, d = X.shape
        if n == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.X, self.y_enc, self.n_classes = X, y_enc, n_classes
        self.params, self.draws = params, draws
        self.k = DecisionTreeClassifier(**params)._resolve_max_features(d)
        self.max_depth = params["max_depth"]
        if self.max_depth is None:
            self.max_depth = 2**31
        self.min_split = params["min_samples_split"]
        self.min_leaf = params["min_samples_leaf"]
        # Dense per-feature value ranks: sorting a node by (rank,
        # position) orders it as the reference's stable argsort does.
        self.ranks = np.empty((n, d), dtype=np.int64)
        for f in range(d):
            self.ranks[:, f] = np.unique(X[:, f], return_inverse=True)[1]
        n_trees = len(draws)
        # The reference encodes a tree's labels over the classes its
        # sample holds, and its Gini sums run over exactly those columns.
        present = np.zeros((n_trees, n_classes), dtype=bool)
        for t, (rows, _) in enumerate(draws):
            present[t, y_enc[rows]] = True
        self.local_class = np.cumsum(present, axis=1) - 1
        self.widths = present.sum(axis=1)
        self.rngs = [np.random.default_rng(seed) for _, seed in draws]
        # Stack entries: (rows, depth, parent node, is_left); node ids
        # are global (in pop order) until the trees are cut apart.
        self.stacks = [[(np.asarray(rows), 0, -1, False)]
                       for rows, _ in draws]
        self.n_local = np.zeros(n_trees, dtype=np.int64)
        self.importances = np.zeros((n_trees, d))
        # Node columns, one array per step or slab, in compact dtypes.
        self.store: dict[str, list[np.ndarray]] = {
            key: [] for key in ("tree", "local", "parent", "is_left",
                                "size", "counts", "feature", "threshold")}
        self.n_nodes = 0

    def grow(self) -> list[DecisionTreeClassifier]:
        store, k = self.store, self.k
        while True:
            live = [t for t, stack in enumerate(self.stacks) if stack]
            if not live:
                break
            rows_of, depth, parent, is_left = zip(
                *[self.stacks[t].pop() for t in live])
            tree_of = np.asarray(live)
            store["tree"].append(tree_of.astype(np.int32))
            store["local"].append(self.n_local[tree_of].astype(np.int32))
            store["parent"].append(np.array(parent, dtype=np.int32))
            store["is_left"].append(np.array(is_left))
            self.n_local[tree_of] += 1
            sizes = np.array([len(rows) for rows in rows_of])
            for lo, hi in _slabs(sizes * k):
                self._grow_slab(live[lo:hi], rows_of[lo:hi],
                                np.asarray(depth[lo:hi]), sizes[lo:hi],
                                self.n_nodes + lo)
            self.n_nodes += len(live)
        return self._trees()

    def _grow_slab(self, live: list[int], rows_of: tuple,
                   depth: np.ndarray, sizes: np.ndarray,
                   first_id: int) -> None:
        """Record the popped nodes ``first_id, first_id + 1, ...`` (one
        per tree in *live*) and split the ones that split."""
        X, k, n_classes, store = self.X, self.k, self.n_classes, self.store
        m = len(live)
        tree_of = np.asarray(live)
        offsets = np.cumsum(sizes) - sizes
        cat = np.concatenate(rows_of)
        seg = np.repeat(np.arange(m), sizes)
        y_cat = self.y_enc[cat]
        counts = np.bincount(seg * n_classes + y_cat,
                             minlength=m * n_classes).reshape(m, n_classes)
        feature = np.full(m, _LEAF, dtype=np.int32)
        threshold = np.full(m, np.nan)
        store["size"].append(sizes.astype(np.int32))
        store["counts"].append(counts.astype(np.int32))
        store["feature"].append(feature)
        store["threshold"].append(threshold)
        # Leaf tests: depth, size, purity.  Below 10^11 rows a node's
        # Gini is <= 1e-12, the reference's test, exactly when it is pure.
        cand = np.flatnonzero((depth < self.max_depth)
                              & (sizes >= self.min_split)
                              & (counts.max(axis=1) < sizes))
        if not len(cand):
            return
        d = X.shape[1]
        feats = np.empty((len(cand), k), dtype=np.int64)
        for r, i in enumerate(cand.tolist()):
            feats[r] = (np.arange(d) if k == d else self.rngs[live[i]]
                        .choice(d, size=k, replace=False))
        y_local = self.local_class[tree_of[seg], y_cat]
        gains = np.empty((len(cand), k))
        thresholds = np.empty((len(cand), k))
        cand_widths = self.widths[tree_of[cand]]
        for w in np.unique(cand_widths).tolist():
            sel = np.flatnonzero(cand_widths == w)
            seg_node = np.repeat(cand[sel], k)
            g, thr = _score_segments(
                X, self.ranks, cat, y_local, offsets[seg_node],
                sizes[seg_node], feats[sel].ravel(), w, self.min_leaf)
            gains[sel] = g.reshape(-1, k)
            thresholds[sel] = thr.reshape(-1, k)
        # The reference's rule, in feature-draw order.
        best_gain = np.zeros(len(cand))
        best_feat = np.full(len(cand), -1)
        best_thr = np.full(len(cand), np.nan)
        for j in range(k):
            better = gains[:, j] > best_gain + 1e-15
            best_gain = np.where(better, gains[:, j], best_gain)
            best_feat = np.where(better, feats[:, j], best_feat)
            best_thr = np.where(better, thresholds[:, j], best_thr)
        best = best_feat >= 0
        nodes, best_gain, best_feat, best_thr = (
            cand[best], best_gain[best], best_feat[best], best_thr[best])
        split_rows = cat[_segment_index(offsets[nodes], sizes[nodes])]
        go_left = X[split_rows, np.repeat(best_feat, sizes[nodes])] \
            <= np.repeat(best_thr, sizes[nodes])
        n_left = np.bincount(
            np.repeat(np.arange(len(nodes)), sizes[nodes])[go_left],
            minlength=len(nodes))
        n_right = sizes[nodes] - n_left
        ok = (n_left >= self.min_leaf) & (n_right >= self.min_leaf)
        # Children keep their rows' order (the reference's boolean
        # split); right is pushed first so that left pops first.
        lefts = split_rows[go_left]
        rights = split_rows[~go_left]
        l_hi, r_hi = np.cumsum(n_left), np.cumsum(n_right)
        nodes, best_gain, best_feat, best_thr = (
            nodes[ok], best_gain[ok], best_feat[ok], best_thr[ok])
        feature[nodes] = best_feat
        threshold[nodes] = best_thr
        self.importances[tree_of[nodes], best_feat] += best_gain
        for i, l_lo, l_end, r_lo, r_end in zip(
                nodes.tolist(), (l_hi - n_left)[ok].tolist(),
                l_hi[ok].tolist(), (r_hi - n_right)[ok].tolist(),
                r_hi[ok].tolist()):
            stack, below = self.stacks[live[i]], int(depth[i]) + 1
            stack.append((rights[r_lo:r_end].copy(), below, first_id + i,
                          False))
            stack.append((lefts[l_lo:l_end].copy(), below, first_id + i,
                          True))

    def _trees(self) -> list[DecisionTreeClassifier]:
        """Cut the node columns into one tree per draw."""
        # One column at a time, so the per-slab lists and their
        # concatenation never coexist whole.
        col = {}
        for key, parts in self.store.items():
            col[key] = np.concatenate(parts)
            parts.clear()
        children = (np.full(self.n_nodes, _LEAF),
                    np.full(self.n_nodes, _LEAF))
        linked = col["parent"] >= 0
        for child, side in zip(children, (True, False)):
            mask = linked & (col["is_left"] == side)
            child[col["parent"][mask]] = col["local"][mask]
        left, right = children
        by_tree = np.split(np.argsort(col["tree"], kind="stable"),
                           np.cumsum(self.n_local)[:-1])
        trees = []
        for t, (_, seed) in enumerate(self.draws):
            g = by_tree[t]
            tree = DecisionTreeClassifier(random_state=seed, **self.params)
            tree.classes_ = np.arange(self.n_classes)
            tree._n_classes = int(self.widths[t])
            tree.feature_ = col["feature"][g].astype(np.int64)
            tree.threshold_ = col["threshold"][g]
            tree.left_ = left[g]
            tree.right_ = right[g]
            tree.values_ = col["counts"][g] / col["size"][g][:, None]
            tree.n_features_in_ = self.X.shape[1]
            raw = self.importances[t].copy()
            total = raw.sum()
            tree.feature_importances_raw_ = raw
            tree.feature_importances_ = (raw / total if total > 0
                                         else np.zeros_like(raw))
            trees.append(tree)
        return trees


def _slabs(entries: np.ndarray) -> Iterator[tuple[int, int]]:
    """``(lo, hi)`` bounds cutting ``range(len(entries))``, in order,
    into runs of at most :data:`FIT_SLAB_ENTRIES` summed *entries* (or
    one item)."""
    ends = np.cumsum(entries)
    lo = 0
    while lo < len(entries):
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] - entries[lo] + FIT_SLAB_ENTRIES, side="right")))
        yield lo, hi
        lo = hi


def _segment_index(offsets: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(off, off + size)`` for each segment."""
    starts = np.cumsum(sizes) - sizes
    return np.arange(int(sizes.sum())) + np.repeat(offsets - starts, sizes)


def _score_segments(X: np.ndarray, ranks: np.ndarray, cat: np.ndarray,
                    y_local: np.ndarray, offsets: np.ndarray,
                    sizes: np.ndarray, feats: np.ndarray, width: int,
                    min_leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """Best (weighted Gini decrease, threshold) of each segment, in
    slabs of at most :data:`FIT_SLAB_ENTRIES` entries (or one segment).

    Segment ``s`` is feature ``feats[s]`` over the node rows
    ``cat[offsets[s]:offsets[s] + sizes[s]]``, labelled by *y_local*
    over *width* classes.  Its result equals
    ``DecisionTreeClassifier._best_split_feature`` on it, bit for bit.
    """
    gains = np.empty(len(sizes))
    thresholds = np.empty(len(sizes))
    for lo, hi in _slabs(sizes):
        gains[lo:hi], thresholds[lo:hi] = _score_slab(
            X, ranks, cat, y_local, offsets[lo:hi], sizes[lo:hi],
            feats[lo:hi], width, min_leaf)
    return gains, thresholds


def _score_slab(X: np.ndarray, ranks: np.ndarray, cat: np.ndarray,
                y_local: np.ndarray, offsets: np.ndarray,
                sizes: np.ndarray, feats: np.ndarray, width: int,
                min_leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_score_segments` on one slab.

    One stable sort by (segment, value rank) orders every segment as
    the reference's stable argsort does.  The reference can only split
    where the value changes, so the scoring runs over runs of equal
    values: class counts per run are exact integers, their prefix sums
    are the reference's left counts at each run's last entry, and the
    same Gini and gain arithmetic follows row by row.  Ties between
    runs take the first maximum, as ``np.argmax`` does.
    """
    n_seg = len(sizes)
    total = int(sizes.sum())
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(n_seg), sizes)
    src = _segment_index(offsets, sizes)
    rows = cat[src]
    feat = np.repeat(feats, sizes)
    order = np.argsort(seg * len(ranks) + ranks[rows, feat], kind="stable")
    xs = X[rows[order], feat]
    new_run = np.empty(total, dtype=bool)
    new_run[0] = True
    new_run[1:] = xs[1:] != xs[:-1]
    new_run[starts] = True
    run = np.cumsum(new_run) - 1
    run_start = np.flatnonzero(new_run)
    n_runs = len(run_start)
    run_end = np.append(run_start[1:], total) - 1
    run_seg = seg[run_start]
    counts = np.bincount(run * width + y_local[src[order]],
                         minlength=n_runs * width).reshape(n_runs, width)
    cum = np.cumsum(counts, axis=0)
    first_run = run[starts]
    before = cum[first_run] - counts[first_run]
    seg_counts = cum[run[starts + sizes - 1]] - before
    left_counts = cum - before[run_seg]
    right_counts = seg_counts[run_seg] - left_counts
    n_node = sizes[run_seg]
    n_left = run_end - starts[run_seg] + 1
    n_right = n_node - n_left
    valid = (n_right > 0) & (n_left >= min_leaf) & (n_right >= min_leaf)
    child = (n_left * _gini_from_counts(left_counts.astype(np.float64))
             + n_right * _gini_from_counts(right_counts.astype(np.float64))
             ) / n_node
    parent = _gini_from_counts(seg_counts.astype(np.float64))
    gain = (parent[run_seg] - child) * n_node
    gain[~valid] = -np.inf
    best = np.maximum.reduceat(gain, first_run)
    first = np.minimum.reduceat(
        np.where(gain == best[run_seg], np.arange(n_runs), n_runs),
        first_run)
    thr = np.full(n_seg, np.nan)
    ok = best > -np.inf
    at = run_end[first[ok]]
    thr[ok] = 0.5 * (xs[at] + xs[at + 1])
    return best, thr


class RandomForestClassifier:
    """Bagged CART ensemble (majority vote / averaged probabilities)."""

    def __init__(self, n_estimators: int = 100,
                 max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | str | None = "sqrt",
                 bootstrap: bool = True,
                 random_state: int | None = None,
                 n_jobs: int | None = None) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        resolve_n_jobs(n_jobs)  # validate eagerly
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.n_jobs = n_jobs

    def get_params(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "random_state": self.random_state,
            "n_jobs": self.n_jobs,
        }

    def _draws(self, n: int) -> list[tuple[np.ndarray, int]]:
        """Every tree's (bootstrap rows, seed), drawn in serial order
        from the master RNG: the dispatch (serial or pooled) cannot
        change them."""
        rng = np.random.default_rng(self.random_state)
        draws = []
        for _ in range(self.n_estimators):
            idx = (rng.integers(0, n, size=n) if self.bootstrap
                   else np.arange(n))
            draws.append((idx, int(rng.integers(2**31))))
        return draws

    def _tree_params(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D with one label per row")
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        n = len(X)
        draws = self._draws(n)
        params = self._tree_params()
        # Adaptive engagement: rows x trees is the fit's work size; the
        # pool only spins up when each worker gets enough of it to
        # amortize fork + pickle cost (never worse than serial).
        jobs = resolve_n_jobs(self.n_jobs,
                              work_units=n * self.n_estimators)
        chunks = chunk_evenly(draws, jobs)
        fitted = parallel_map(
            _fit_tree_chunk,
            [(X, y_enc, len(self.classes_), params, chunk)
             for chunk in chunks],
            jobs)
        self.estimators_: list[DecisionTreeClassifier] = [
            t for chunk in fitted for t in chunk]
        importances = np.zeros(X.shape[1])
        for tree in self.estimators_:
            importances += tree.feature_importances_
        self.feature_importances_ = importances / self.n_estimators
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ = self.feature_importances_ / total
        self.n_features_in_ = X.shape[1]
        self._packed_ = None  # invalidate any batch arena of a prior fit
        return self

    def _packed(self) -> PackedTrees:
        packed = getattr(self, "_packed_", None)
        if packed is None:
            packed = PackedTrees(self.estimators_)
            self._packed_ = packed
        return packed

    def predict_proba_batch(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities via one packed traversal of all trees.

        Bit-identical to :meth:`predict_proba`: leaf assignment uses
        the same comparisons, and per-tree probabilities are summed in
        tree order.
        """
        if not hasattr(self, "estimators_"):
            raise RuntimeError("RandomForestClassifier is not fitted")
        # Tree-order accumulation lives with the arena itself.
        return self._packed().mean_values(X)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Vectorized batch prediction over an ``(N, F)`` matrix —
        element-wise identical to :meth:`predict` (and to predicting
        each row on its own), but one arena descent instead of a
        Python-level pass per tree."""
        proba = self.predict_proba_batch(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "estimators_"):
            raise RuntimeError("RandomForestClassifier is not fitted")
        proba = np.zeros((len(X), len(self.classes_)))
        for tree in self.estimators_:
            proba += tree.predict_proba(X)
        return proba / self.n_estimators

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(X) == np.asarray(y)))
