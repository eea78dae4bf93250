"""Differential tests of the one serving path against the one oracle.

:meth:`SelectionService.select_block` (``select`` and ``select_batch``
are adapters over it) answers every batch through
:meth:`GuardedSelector.explain_block`.  The oracle is the scalar guard
ladder: a row is ``invalid`` exactly when the shape check or
:func:`validate_query` rejects the query as sent, and otherwise its
decision is :meth:`GuardedSelector.explain` on the row's *quantized*
key.  Every test here checks the block path against that oracle on
seeded adversarial batches — mixed valid/invalid/OOD/infeasible rows,
NumPy-typed fields, bools, floats, oversized integers, junk objects,
empty blocks, single rows and all-duplicate blocks.

The oracle's breaker is held in one state: closed (it never trips)
for every row, except rows the service answered ``breaker-fallback``,
which are checked against a breaker held open — the rule the perfbench
verifier applies to live daemon replies.

:class:`TestBlockPathCost` checks that the block path never falls back
to scalar cost: a whole stream reaches the model as one call on its
distinct keys, and its per-query cost stays far below ``explain``'s.
:class:`TestFallbackPathCost` holds the fallback rows (open breaker,
out of envelope) to the same rule: one fallback call per block.
"""

import random

import numpy as np
import pytest

from repro.core.dataset import collect_dataset
from repro.core.framework import offline_train
from repro.core.inference import PretrainedSelector
from repro.core.resilience import CircuitBreaker
from repro.core.training import train_model
from repro.hwmodel import get_cluster
from repro.ml.forest import RandomForestClassifier
from repro.serve import (
    ACTION_INVALID,
    DecisionBlock,
    QueryBlock,
    SelectionDecision,
    SelectionQuery,
    SelectionService,
    decisions_to_jsonl,
    quantize_msg_size,
)
from repro.serve.columnar import quantize_block
from repro.simcluster.machine import Machine
from repro.smpi.guard import (
    ACTION_BREAKER,
    ACTION_MODEL,
    COUNTER_KEYS,
    GuardedSelector,
    extract_envelopes,
)
from repro.smpi import guard as guard_module
from repro.smpi import heuristics
from repro.smpi.heuristics import (
    MAX_MSG_SIZE,
    FixedSelector,
    MvapichDefaultSelector,
    OpenMpiDefaultSelector,
)

from .serve_oracle import KeyedAdversary, Oracle, block_args
from .timing import best_interleaved


@pytest.fixture(scope="module")
def ri_spec():
    return get_cluster("RI")


def assert_matches_oracle(service, oracle, batch, as_records=False):
    """Serve *batch* and check every row against *oracle*; returns the
    block."""
    rows = QueryBlock.from_records(
        [{"collective": q.collective, "nodes": q.nodes, "ppn": q.ppn,
          "msg_size": q.msg_size} for q in batch]) if as_records \
        else list(batch)
    block = service.select_block(rows)
    assert isinstance(block, DecisionBlock) and block.n == len(batch)
    for q, d in zip(batch, block.to_decisions()):
        assert (d.collective, d.nodes, d.ppn, d.msg_size) == \
            (q.collective, q.nodes, q.ppn, q.msg_size), q
        want = oracle.expect(q.collective, q.nodes, q.ppn, q.msg_size,
                             d.action == ACTION_BREAKER)
        if d.action == ACTION_BREAKER:
            # "breaker open" vs "breaker half-open" names the live
            # breaker's state at refusal time.
            assert (d.algorithm, d.action) == want[:2], q
        else:
            assert (d.algorithm, d.action, d.detail) == want, q
        if d.action == ACTION_INVALID:
            assert not d.cached, q
    c = service.counters
    assert c["queries"] == c["cache_hits"] + c["deduped"] \
        + c["cache_misses"]
    assert c["invalid"] <= c["cache_misses"]
    assert c["evictions"] == service.cache.evictions
    g = service.guard.counters
    assert g["queries"] == sum(g[k] for k in COUNTER_KEYS[1:7])
    return block


# ---------------------------------------------------------------------------
# Deterministic adversarial blocks
# ---------------------------------------------------------------------------

class TestAdversarialBlocks:
    def test_mixed_everything_single_block(self, ri_spec):
        """One block holding every row class at once: served, duplicate,
        NumPy-typed, bool-typed, float-typed, out-of-range, oversized,
        unknown collective, and object junk."""
        batch = [
            SelectionQuery("allgather", 2, 8, 4096),          # model
            SelectionQuery("allgather", 2, 8, 4096),          # dup
            SelectionQuery("allgather", 2, 8, 4100),          # quantize-dup
            SelectionQuery("allgather", np.int64(2), np.int64(8),
                           np.int64(4096)),                   # np dup
            SelectionQuery("alltoall", 1, 16, 64),            # model
            SelectionQuery("allreduce", 2, 3, 1024),          # model
            SelectionQuery("bogus", 2, 8, 64),                # unknown
            SelectionQuery("allgather", 99, 8, 64),           # bad nodes
            SelectionQuery("allgather", 2, 0, 64),            # bad ppn
            SelectionQuery("allgather", 2, 8, -5),            # bad size
            SelectionQuery("allgather", True, 8, 64),         # bool nodes
            SelectionQuery("allgather", 2, 8, False),         # bool size
            SelectionQuery("allgather", 2.0, 8, 64),          # float nodes
            SelectionQuery("allgather", 2, 8, 64.0),          # float size
            SelectionQuery("allgather", None, 8, 64),         # junk
            SelectionQuery("allgather", 2, "8", 64),          # junk
            SelectionQuery(42, 2, 8, 64),                     # junk coll
            SelectionQuery("allgather", 2, 8, 10**25),        # oversized
            SelectionQuery("allgather", 2, 8, 2**62 + 1),     # oversized
        ]
        svc = SelectionService(MvapichDefaultSelector(), ri_spec)
        block = assert_matches_oracle(
            svc, Oracle(MvapichDefaultSelector(), ri_spec), batch)
        assert block.cached.tolist()[:4] == [False, True, True, True]
        # Invalid rows are answered one by one, never deduplicated.
        assert svc.counters["invalid"] == 13
        assert svc.counters["cache_misses"] == 13 + 3
        assert svc.counters["deduped"] == 3

    @pytest.mark.parametrize("as_records", (True, False))
    def test_empty_single_and_all_duplicates(self, ri_spec, as_records):
        q = SelectionQuery("bcast", 1, 4, 32768)
        svc = SelectionService(OpenMpiDefaultSelector(), ri_spec)
        oracle = Oracle(OpenMpiDefaultSelector(), ri_spec)
        for batch in ([], [q], [q] * 50):
            assert_matches_oracle(svc, oracle, batch, as_records)
        # One miss; the 50-row block is all memo hits.
        assert svc.counters == {"queries": 51, "cache_hits": 50,
                                "deduped": 0, "cache_misses": 1,
                                "invalid": 0, "evictions": 0}

    def test_numpy_typed_fields_share_keys_with_plain_ints(self, ri_spec):
        """np.integer fields land on the same memo entries as the equal
        plain ints."""
        plain = SelectionQuery("allgather", 2, 8, 1000)
        typed = SelectionQuery("allgather", np.int64(2), np.int32(8),
                               np.int64(1000))
        svc = SelectionService(MvapichDefaultSelector(), ri_spec,
                               cache_size=64)
        first = svc.select_batch([plain])[0]
        assert first.cached is False
        via_block = svc.select_block([typed]).to_decisions()[0]
        assert via_block.cached is True
        assert via_block.algorithm == first.algorithm
        assert svc.counters["cache_hits"] == 1

    def test_infeasible_predictions_and_breaker_replay(self, ri_spec):
        """Valid-but-infeasible predictions trip the guard per unique
        key; once the breaker opens, refusals replay per row.  Every
        row still equals the scalar ladder (held open for the refused
        rows)."""
        rng = random.Random(5)
        inner = FixedSelector("allgather", "recursive_doubling")
        svc = SelectionService(inner, ri_spec)
        oracle = Oracle(inner, ri_spec)
        for _ in range(6):
            batch = [SelectionQuery("allgather", 1, 3,
                                    rng.randint(1, 10**6))
                     for _ in range(rng.randint(5, 60))]
            assert_matches_oracle(svc, oracle, batch)
        assert svc.guard.breaker.state == "open"
        assert svc.guard.counters["breaker_fallback"] > 0
        assert svc.guard.counters["remapped"] > 0

    def test_cross_path_memo_interop(self, ri_spec):
        """A key resolved by ``select_block`` is a memo hit for the
        one-row ``select`` adapter."""
        q = SelectionQuery("alltoall", 2, 8, 2048)
        svc = SelectionService(MvapichDefaultSelector(), ri_spec,
                               cache_size=64)
        d1 = svc.select_block([q]).to_decisions()[0]
        assert d1.cached is False
        d2 = svc.select(q)
        assert d2.cached is True
        assert d2.algorithm == d1.algorithm
        assert d2.detail == d1.detail

    def test_records_and_queries_agree(self, ri_spec):
        """A block built from raw records, as the daemon's parser
        builds it, goes through the same pipeline."""
        records = [
            {"collective": "allgather", "nodes": 2, "ppn": 8,
             "msg_size": 4096},
            {"collective": "bogus", "nodes": 2, "ppn": 8, "msg_size": 1},
            {"collective": "bcast", "nodes": 1, "ppn": 4,
             "msg_size": 123},
        ]
        queries = [SelectionQuery(r["collective"], r["nodes"], r["ppn"],
                                  r["msg_size"]) for r in records]
        a = SelectionService(MvapichDefaultSelector(), ri_spec)
        b = SelectionService(MvapichDefaultSelector(), ri_spec)
        assert a.select_block(queries).to_dicts() == \
            b.select_block(QueryBlock.from_records(records)).to_dicts()
        assert a.counters == b.counters

    def test_jsonl_byte_identical_on_clean_batch(self, ri_spec):
        """For JSON-shaped inputs (the daemon's case) the serialized
        decisions are byte-identical to the scalar ladder's answers."""
        batch = [SelectionQuery("allreduce", 2, 8, m)
                 for m in (1, 64, 1000, 1024, 1100, 2**18)]
        batch += [SelectionQuery("bogus", 1, 1, 1),
                  SelectionQuery("allreduce", 0, 8, 64)]
        oracle = Oracle(MvapichDefaultSelector(), ri_spec)
        seen = set()
        expected = []
        for q in batch:
            alg, act, det = oracle.expect(q.collective, q.nodes, q.ppn,
                                          q.msg_size)
            key = (q.collective, q.nodes, q.ppn,
                   quantize_msg_size(q.msg_size))
            expected.append(SelectionDecision(
                q.collective, q.nodes, q.ppn, q.msg_size, alg, act, det,
                cached=act != ACTION_INVALID and key in seen))
            seen.add(key)
        svc = SelectionService(MvapichDefaultSelector(), ri_spec)
        assert decisions_to_jsonl(svc.select_batch(batch)) == \
            decisions_to_jsonl(expected)


# ---------------------------------------------------------------------------
# Seeded fuzz against the scalar ladder
# ---------------------------------------------------------------------------

JUNK = (None, "x", 3.5, 2.0, -1, 0, True, False, 10**25, -(10**25),
        2**62 + 1, "8", np.float64(4.0), np.bool_(True))
COLLECTIVES = ("allgather", "alltoall", "allreduce", "bcast",
               "reduce_scatter")


def _random_batch(rng, n):
    batch = []
    for _ in range(n):
        if rng.random() < 0.25:
            batch.append(SelectionQuery(
                rng.choice(COLLECTIVES + ("bogus", 42)),
                rng.choice(JUNK + (1, 2, np.int64(2))),
                rng.choice(JUNK + (1, 8, np.int64(16))),
                rng.choice(JUNK + (64, np.int64(1024), 2**62))))
        else:
            batch.append(SelectionQuery(
                rng.choice(COLLECTIVES), rng.randint(1, 3),
                rng.randint(1, 20),
                rng.choice([1, 64, 1000, 1024, 4096, 2**18,
                            rng.randint(1, 10**7)])))
    return batch


@pytest.fixture(scope="module")
def trained(mini_dataset):
    return PretrainedSelector({
        c: train_model(mini_dataset, c, seed=0,
                       params={"n_estimators": 4})
        for c in ("allgather", "alltoall")})


class TestFuzzDifferential:
    @pytest.mark.parametrize("make_selector,as_records", (
        (MvapichDefaultSelector, False),
        (MvapichDefaultSelector, True),
        (OpenMpiDefaultSelector, True),
    ))
    def test_heuristic_batches(self, ri_spec, make_selector, as_records):
        rng = random.Random(13)
        svc = SelectionService(make_selector(), ri_spec, cache_size=64)
        oracle = Oracle(make_selector(), ri_spec)
        for _ in range(5):
            assert_matches_oracle(svc, oracle,
                                  _random_batch(rng, rng.randint(0, 200)),
                                  as_records)
        assert svc.counters["evictions"] > 0

    def test_pretrained_with_ood_and_missing_models(self, ri_spec,
                                                    trained):
        """Model path + OOD envelope routing + error fallback (queries
        for collectives the bundle lacks raise inside the inner
        selector) — all in the same blocks."""
        rng = random.Random(29)
        svc = SelectionService(trained, ri_spec, cache_size=8192)
        oracle = Oracle(trained, ri_spec)
        for _ in range(4):
            batch = _random_batch(rng, rng.randint(1, 150))
            # far-OOD shapes/sizes relative to the trained grid
            batch += [SelectionQuery("allgather", 1, 1, 2**30),
                      SelectionQuery("alltoall", 2, 16, 1)]
            assert_matches_oracle(svc, oracle, batch)
        assert svc.guard.counters["ood_fallback"] > 0
        assert svc.guard.counters["error_fallback"] > 0

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_adversarial_inner_batches(self, ri_spec, trained, seed):
        """Junk labels, junk types, infeasible names and exceptions trip
        a live breaker open mid-stream; rows answered before, while and
        after it is open all match the scalar ladder."""
        rng = random.Random(seed)
        inner = KeyedAdversary(raises=seed != 0)
        env = extract_envelopes(trained)
        svc = SelectionService(
            GuardedSelector(inner, envelopes=env,
                            breaker=CircuitBreaker(failure_threshold=2)),
            ri_spec, cache_size=rng.randint(8, 64))
        oracle = Oracle(inner, ri_spec, envelopes=env)
        actions = set()
        for _ in range(8):
            block = assert_matches_oracle(
                svc, oracle, _random_batch(rng, rng.randint(1, 80)),
                as_records=rng.random() < 0.5)
            actions.update(block.actions.tolist())
        assert {ACTION_BREAKER, "remap", ACTION_INVALID} <= actions


# ---------------------------------------------------------------------------
# The block path's cost (it must never fall back to scalar cost)
# ---------------------------------------------------------------------------

#: The per-query cost of one cold ``select_block`` over the stream must
#: be at least this many times below scalar ``explain``'s.
MIN_SPEEDUP_VS_SCALAR = 50


@pytest.fixture(scope="module")
def ri_allgather_selector(ri_spec):
    """RF models trained on RI's allgather campaign (42 configs)."""
    dataset = collect_dataset(clusters=[ri_spec],
                              collectives=("allgather",))
    return offline_train(dataset, family="rf", collectives=("allgather",))


@pytest.fixture(scope="module")
def ri_stream(ri_spec):
    """10,000 RI allgather queries over every job shape, message sizes
    2^e + U[0, 2^e) for e in 6..20 (NumPy seed 0)."""
    rng = np.random.default_rng(0)
    shapes = [(int(nodes), int(ppn)) for nodes in ri_spec.node_counts
              for ppn in ri_spec.ppn_values if nodes * ppn >= 2]
    queries = []
    for _ in range(10_000):
        nodes, ppn = shapes[int(rng.integers(len(shapes)))]
        exp = int(rng.integers(6, 21))
        msg = int(2 ** exp + rng.integers(0, 2 ** exp))
        queries.append(SelectionQuery("allgather", nodes, ppn, msg))
    return queries


class TestBlockPathCost:
    def test_one_model_call_on_the_distinct_keys(
            self, ri_spec, ri_stream, ri_allgather_selector, monkeypatch):
        """A cold service answers the stream in one ``select_block``:
        the inner selector gets one block call carrying exactly the
        distinct quantized keys, the forest predicts once, and no row
        goes through scalar ``explain`` or the inner ``select``."""
        selector = ri_allgather_selector
        calls = {}

        def count(owner, name):
            calls[name] = seen = []
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                seen.append(args)
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(selector, "select_block")
        count(selector, "select")
        count(GuardedSelector, "explain")
        count(RandomForestClassifier, "predict_batch")
        block = SelectionService(GuardedSelector(selector),
                                 ri_spec).select_block(ri_stream)

        keys = {(q.nodes, q.ppn, quantize_msg_size(q.msg_size))
                for q in ri_stream}
        assert len(keys) == 32
        assert [len(args[-1]) for args in calls["select_block"]] == [32]
        [(_, _, nodes, ppn, msg)] = calls["select_block"]
        assert sorted(zip(nodes.tolist(), ppn.tolist(), msg.tolist())) \
            == sorted(keys)
        assert len(calls["predict_batch"]) == 1
        assert calls["explain"] == [] and calls["select"] == []
        assert block.actions.tolist() == [ACTION_MODEL] * len(ri_stream)

    def test_per_query_cost_far_below_scalar(self, ri_spec, ri_stream,
                                             ri_allgather_selector):
        """One cold ``select_block`` over the stream against scalar
        ``explain`` on each quantized key of a 500-query prefix, timed
        interleaved, best of 3."""
        selector = ri_allgather_selector
        prefix = ri_stream[:500]
        machines = {(q.nodes, q.ppn): Machine(ri_spec, q.nodes, q.ppn)
                    for q in prefix}

        def scalar():
            guard = GuardedSelector(selector)
            for q in prefix:
                guard.explain(q.collective, machines[q.nodes, q.ppn],
                              quantize_msg_size(q.msg_size))

        def block():
            SelectionService(GuardedSelector(selector),
                             ri_spec).select_block(ri_stream)

        scalar_s, block_s = best_interleaved([scalar, block], repeats=3)
        speedup = (scalar_s / len(prefix)) / (block_s / len(ri_stream))
        assert speedup >= MIN_SPEEDUP_VS_SCALAR, (
            f"block path {speedup:.1f}x below scalar explain per query "
            f"(floor {MIN_SPEEDUP_VS_SCALAR}x)")


class _CountingFallback(MvapichDefaultSelector):
    """The MVAPICH fallback, recording its block calls' rows and
    counting its scalar calls."""

    def __init__(self):
        self.block_rows = []
        self.scalar_calls = 0

    def select(self, collective, machine, msg_size):
        self.scalar_calls += 1
        return super().select(collective, machine, msg_size)

    def select_block(self, spec, collectives, nodes, ppn, msg_size):
        self.block_rows.append(list(zip(
            collectives.tolist(), nodes.tolist(), ppn.tolist(),
            msg_size.tolist())))
        return super().select_block(spec, collectives, nodes, ppn,
                                    msg_size)


class TestFallbackPathCost:
    def test_open_breaker_block_is_one_fallback_call(
            self, ri_spec, ri_allgather_selector, monkeypatch):
        """With the breaker held open (tripped, frozen clock), a
        600-row block mixing OOD and in-envelope keys is answered by one
        fallback ``select_block`` call carrying every row, with no
        fallback ``select``, no ``Machine`` built, no
        ``validate_query`` and no inner call; its answers and counters
        equal an ``explain`` loop on a twin guard."""
        selector = ri_allgather_selector
        rng = np.random.default_rng(3)
        rows = [("allgather", int(rng.integers(1, 3)),
                 int(rng.integers(1, 17)), int(2 ** rng.integers(0, 31)))
                for _ in range(600)]

        def open_guard():
            breaker = CircuitBreaker(failure_threshold=1,
                                     recovery_timeout_s=5,
                                     clock=lambda: 0.0)
            breaker.record_failure()
            fallback = _CountingFallback()
            return GuardedSelector(selector, fallback=fallback,
                                   breaker=breaker), fallback

        loop, _ = open_guard()
        expected = []
        for c, n, p, m in rows:
            d = loop.explain(c, Machine(ri_spec, n, p), m)
            expected.append((d.algorithm, d.action, d.detail))

        guard, fallback = open_guard()
        calls = {}

        def count(owner, name):
            calls[name] = seen = []
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                seen.append(args)
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(selector, "select_block")
        count(selector, "select")
        count(Machine, "__init__")
        count(guard_module, "validate_query")
        count(heuristics, "validate_query")
        out = guard.explain_block(ri_spec, *block_args(rows))

        assert fallback.block_rows == [rows]
        assert fallback.scalar_calls == 0
        assert all(seen == [] for seen in calls.values()), \
            {name: len(seen) for name, seen in calls.items()}
        assert list(zip(*(a.tolist() for a in out))) == expected
        assert guard.counters == loop.counters
        assert guard.counters["ood_fallback"] > 0
        assert guard.counters["breaker_fallback"] > 0


# ---------------------------------------------------------------------------
# The query contract (answers never depend on memo history)
# ---------------------------------------------------------------------------

class TestQueryContract:
    @pytest.mark.parametrize("nodes", (True, 1.0))
    def test_non_int_twin_invalid_whether_or_not_cached(self, nodes):
        """Regression: a bool or float field used to share its integer
        twin's memo entry (``True == 1``, ``1.0 == 1``) in either
        direction, so both answers depended on memo history."""
        twin = SelectionQuery("allgather", 1, 4, 64)
        alias = SelectionQuery("allgather", nodes, 4, 64)
        svc = SelectionService(MvapichDefaultSelector(),
                               get_cluster("Ray"))
        cold = svc.select(alias)
        assert svc.select(twin).action == ACTION_MODEL
        warm = svc.select(alias)
        same_block = svc.select_batch([twin, alias, alias])
        for d in (cold, warm, *same_block[1:]):
            assert (d.algorithm, d.action, d.cached) == \
                (None, ACTION_INVALID, False)
            assert d.detail == \
                f"machine.nodes must be an integer, got {nodes!r}"
        assert same_block[0].cached is True

    @pytest.mark.parametrize("msg", (2**62 + 1, 2**70),
                             ids=("2**62+1", "2**70"))
    def test_oversized_msg_size_invalid(self, msg):
        svc = SelectionService(MvapichDefaultSelector(),
                               get_cluster("Ray"))
        d = svc.select(SelectionQuery("allgather", 1, 4, msg))
        assert (d.algorithm, d.action) == (None, ACTION_INVALID)
        assert d.detail == f"msg_size must be at most 2**62, got {msg}"
        assert svc.select(SelectionQuery(
            "allgather", 1, 4, MAX_MSG_SIZE)).action == ACTION_MODEL


# ---------------------------------------------------------------------------
# Columnar building blocks
# ---------------------------------------------------------------------------

class TestQuantizeBlock:
    def test_matches_scalar_exhaustively_near_boundaries(self):
        import math
        vals = [1, 2, 3, 5, 6, 7, 1023, 1024, 1025,
                398065729532861, 199032864766430,
                MAX_MSG_SIZE, MAX_MSG_SIZE - 1]
        vals += [(1 << e) + d for e in range(1, 63) for d in (-1, 0, 1)]
        vals += [math.isqrt(1 << (2 * e + 1)) + d
                 for e in range(62) for d in (-1, 0, 1, 2)]
        vals = [v for v in vals if 1 <= v <= MAX_MSG_SIZE]
        got = quantize_block(np.array(vals, dtype=np.int64))
        for v, g in zip(vals, got.tolist()):
            assert g == quantize_msg_size(v), v

    def test_random_values_match_scalar(self):
        rng = random.Random(0)
        vals = [rng.randrange(1, MAX_MSG_SIZE + 1)
                for _ in range(20_000)]
        got = quantize_block(np.array(vals, dtype=np.int64))
        for v, g in zip(vals, got.tolist()):
            assert g == quantize_msg_size(v), v


class TestQueryBlock:
    def test_row_classification(self):
        """Only known collectives with three int64-sized non-bool
        integer fields are ``columnar``; everything else is invalid."""
        blk = QueryBlock.from_queries([
            SelectionQuery("allgather", 2, 8, 64),
            SelectionQuery("allgather", np.int64(2), np.uint8(8), 64),
            SelectionQuery("allgather", True, 8, 64),
            SelectionQuery("allgather", 2, np.bool_(True), 64),
            SelectionQuery("bogus", 2, 8, 64),
            SelectionQuery("allgather", 2.0, 8, 64),
            SelectionQuery("allgather", 2, 8, 10**25),
            SelectionQuery("allgather", 2, 8, np.uint64(2**64 - 1)),
        ])
        assert blk.columnar.tolist() == [True, True] + [False] * 6
        assert blk.nodes64[:2].tolist() == [2, 2]
        assert blk.ppn64[:2].tolist() == [8, 8]


class TestDecisionBlock:
    def test_to_dicts_matches_to_decisions(self, ri_spec):
        svc = SelectionService(MvapichDefaultSelector(), ri_spec,
                               cache_size=64)
        batch = [SelectionQuery("allgather", 2, 8, 4096),
                 SelectionQuery("bogus", 1, 1, 1)]
        block = svc.select_block(batch)
        assert isinstance(block, DecisionBlock)
        assert block.to_dicts() == [d.to_dict()
                                    for d in block.to_decisions()]
        assert block.n == 2
