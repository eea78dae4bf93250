"""Unit tests for the serving layer: LRU memo, quantization, the
batched SelectionService, JSONL I/O, and the guard/selector block
paths it is built on."""

import itertools
import random

import numpy as np
import pytest

from repro.core.framework import offline_train
from repro.core.resilience import CircuitBreaker
from repro.hwmodel import get_cluster
from repro.obs.live import FlightRecorder, get_recorder, use_recorder
from repro.serve import (
    ACTION_INVALID,
    LRUCache,
    SelectionDecision,
    SelectionQuery,
    SelectionService,
    decisions_to_jsonl,
    queries_from_jsonl,
    quantize_msg_size,
)
from repro.simcluster.machine import Machine
from repro.smpi.guard import (
    ACTION_ERROR,
    ACTION_MODEL,
    GuardedSelector,
    extract_envelopes,
)
from repro.smpi.heuristics import (
    ALL_COLLECTIVES,
    AlgorithmSelector,
    FixedSelector,
    MvapichDefaultSelector,
    OpenMpiDefaultSelector,
)

from .serve_oracle import KeyedAdversary, block_args, held_breaker


class TestLRUCache:
    def test_basic_get_put(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b", "missing") == "missing"
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # a becomes most recent
        cache.put("c", 3)       # evicts b
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_refresh_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # refresh, not insert
        assert len(cache) == 2 and cache.evictions == 0
        assert cache.get("a") == 10

    @pytest.mark.parametrize("bad", (0, -1, True, 2.5, "4"))
    def test_bad_capacity_rejected(self, bad):
        with pytest.raises(ValueError):
            LRUCache(bad)


class TestQuantize:
    @pytest.mark.parametrize("msg,expected", (
        (1, 1), (2, 2), (3, 4), (1000, 1024), (1024, 1024),
        (1536, 2048), (1100, 1024), (5, 4), (6, 8),
    ))
    def test_snaps_to_nearest_power_of_two(self, msg, expected):
        assert quantize_msg_size(msg) == expected

    @pytest.mark.parametrize("junk", (0, -8, True, False, 2.5, "64",
                                      None))
    def test_junk_passes_through(self, junk):
        assert quantize_msg_size(junk) is junk

    def test_numpy_integers_quantize_like_plain_ints(self):
        """Regression: np.integer message sizes used to fall through
        the junk-passthrough and bypass the memo-key quantization."""
        for msg in (3, 1000, 1536, 2**40 + 7):
            out = quantize_msg_size(np.int64(msg))
            assert out == quantize_msg_size(msg)
            assert type(out) is int

    @pytest.mark.parametrize("msg,expected", (
        # float log2(msg) is exactly *.5 for these, so a float
        # midpoint test (or banker's rounding) snaps them down; the
        # exact integer rule rounds half up.
        (398065729532861, 2**49),
        (199032864766430, 2**47),
        # true geometric midpoints: isqrt(2^(2e+1)) sits below the
        # midpoint, its successor at-or-above.
        (181, 128), (182, 256),
        (46340, 32768), (46341, 65536),
    ))
    def test_midpoints_round_half_up_exactly(self, msg, expected):
        assert quantize_msg_size(msg) == expected


@pytest.fixture(scope="module")
def ray_spec():
    return get_cluster("Ray")


@pytest.fixture()
def service(ray_spec):
    return SelectionService(MvapichDefaultSelector(), ray_spec,
                            cache_size=64)


class TestSelectionService:
    def test_decisions_match_direct_guard(self, ray_spec, service):
        queries = [SelectionQuery("allgather", 2, 4, 4096),
                   SelectionQuery("bcast", 2, 8, 65536),
                   SelectionQuery("alltoall", 1, 8, 128)]
        decisions = service.select_batch(queries)
        guard = GuardedSelector(MvapichDefaultSelector())
        for q, d in zip(queries, decisions):
            machine = Machine(ray_spec, q.nodes, q.ppn)
            expected = guard.select(q.collective, machine,
                                    quantize_msg_size(q.msg_size))
            assert d.algorithm == expected
            assert d.action == ACTION_MODEL
            assert (d.collective, d.nodes, d.ppn, d.msg_size) == \
                (q.collective, q.nodes, q.ppn, q.msg_size)

    def test_memo_hit_on_second_batch(self, service):
        q = SelectionQuery("allgather", 2, 4, 4096)
        first = service.select_batch([q])[0]
        second = service.select_batch([q])[0]
        assert not first.cached and second.cached
        assert second.algorithm == first.algorithm
        assert service.counters["cache_hits"] == 1

    def test_quantized_sizes_share_one_entry(self, service):
        a, b = service.select_batch(
            [SelectionQuery("allgather", 2, 4, 1000),
             SelectionQuery("allgather", 2, 4, 1100)])
        assert not a.cached and b.cached
        assert a.msg_size == 1000 and b.msg_size == 1100
        assert service.counters["deduped"] == 1

    def test_invalid_queries_never_raise(self, service):
        decisions = service.select_batch(
            [SelectionQuery("nope", 2, 4, 64),
             SelectionQuery("bcast", 0, 4, 64),
             SelectionQuery("bcast", 10**9, 4, 64),
             SelectionQuery("bcast", 2, 4, -1),
             SelectionQuery("bcast", 2, 4, "big")])
        assert all(d.action == ACTION_INVALID for d in decisions)
        assert all(d.algorithm is None for d in decisions)
        assert service.counters["invalid"] == 5

    def test_empty_batch(self, service):
        assert service.select_batch([]) == []
        assert service.counters["queries"] == 0

    def test_eviction_counter_mirrors_cache(self, ray_spec):
        service = SelectionService(MvapichDefaultSelector(), ray_spec,
                                   cache_size=2)
        service.select_batch([SelectionQuery("allgather", 2, 4, m)
                              for m in (64, 128, 256, 512)])
        assert service.counters["evictions"] == 2
        assert service.counters["evictions"] == service.cache.evictions

    def test_single_query_wrapper(self, service):
        decision = service.select(SelectionQuery("bcast", 2, 4, 512))
        assert decision.action == ACTION_MODEL

    def test_wraps_plain_selector_in_guard(self, ray_spec):
        service = SelectionService(MvapichDefaultSelector(), ray_spec)
        assert isinstance(service.guard, GuardedSelector)
        guard = GuardedSelector(OpenMpiDefaultSelector())
        assert SelectionService(guard, ray_spec).guard is guard

    def test_wrapped_guard_counts_into_service_registry(self, ray_spec):
        """A plain selector's guard shares the service's registry, so a
        traced run records guard.* beside serve.*."""
        service = SelectionService(MvapichDefaultSelector(), ray_spec)
        service.select(SelectionQuery("allgather", 2, 4, 64))
        assert service.guard.registry is service.registry
        assert service.registry.counter("guard.queries").value == 1


class TestFlightRecorderHook:
    """The recorder costs one event per block, not one per row."""

    @staticmethod
    def _queries(rows):
        return [SelectionQuery("allgather", 2, 4, 64 + i)
                for i in range(rows)]

    @pytest.mark.parametrize("rows", (1, 64, 10_000))
    def test_one_request_event_per_block(self, ray_spec, rows):
        service = SelectionService(MvapichDefaultSelector(), ray_spec)
        with use_recorder(FlightRecorder(capacity=256)) as recorder:
            service.select_block(self._queries(rows))
        [event] = recorder.tail()
        assert event["kind"] == "request"
        assert event["queries"] == rows

    def test_default_recorder_records_nothing(self, ray_spec):
        recorder = get_recorder()
        assert not recorder.enabled
        service = SelectionService(MvapichDefaultSelector(), ray_spec)
        service.select_block(self._queries(64))
        assert recorder.total == 0 and len(recorder) == 0


class TestJsonl:
    def test_round_trip(self):
        text = ('{"collective":"bcast","nodes":2,"ppn":4,"msg_size":64}\n'
                "\n"
                '{"collective":"allgather","nodes":1,"ppn":8,'
                '"msg_size":1024}\n')
        queries = queries_from_jsonl(text)
        assert queries == [SelectionQuery("bcast", 2, 4, 64),
                           SelectionQuery("allgather", 1, 8, 1024)]

    @pytest.mark.parametrize("bad,excerpt", (
        ("not json", "not valid JSON"),
        ("[1,2]", "expected a JSON object"),
        ('{"collective":"bcast","nodes":2}', "missing key"),
    ))
    def test_broken_lines_raise_with_line_number(self, bad, excerpt):
        good = '{"collective":"bcast","nodes":2,"ppn":4,"msg_size":64}'
        with pytest.raises(ValueError, match=f"line 2.*{excerpt}"):
            queries_from_jsonl(f"{good}\n{bad}\n")

    def test_decisions_jsonl_deterministic(self):
        decisions = [SelectionDecision("bcast", 2, 4, 64, "binomial",
                                       ACTION_MODEL),
                     SelectionDecision("nope", 2, 4, 64, None,
                                       ACTION_INVALID, "unknown")]
        once = decisions_to_jsonl(decisions)
        assert once == decisions_to_jsonl(list(decisions))
        assert once.endswith("\n") and once.count("\n") == 2
        assert '"algorithm":null' in once


class _ExplodingBlockSelector(MvapichDefaultSelector):
    """Scalar path works; the block path always raises — forces the
    guard's per-row replay."""

    def select_block(self, *args):
        raise RuntimeError("vectorized path down")


class _CountingSelector(MvapichDefaultSelector):
    def __init__(self):
        self.block_calls = 0
        self.scalar_calls = 0

    def select(self, collective, machine, msg_size):
        self.scalar_calls += 1
        return super().select(collective, machine, msg_size)

    def select_block(self, *args):
        self.block_calls += 1
        return super().select_block(*args)


def _explain_rows(guard, spec, rows):
    """``explain_block`` as a list of ``(algorithm, action, detail)``."""
    out = guard.explain_block(spec, *block_args(rows))
    return list(zip(*(a.tolist() for a in out)))


def _explain_loop(guard, spec, rows):
    """The scalar ladder, one ``explain`` per row."""
    out = []
    for c, n, p, m in rows:
        d = guard.explain(c, Machine(spec, n, p), m)
        out.append((d.algorithm, d.action, d.detail))
    return out


class TestGuardBatch:
    def _rows(self, n=12):
        rng = np.random.default_rng(0)
        return [("allgather", int(rng.integers(1, 3)),
                 int(2 ** rng.integers(1, 4)), int(2 ** rng.integers(4, 20)))
                for _ in range(n)]

    def test_batch_matches_scalar_loop(self, ray_spec, trained_guard):
        """``explain_block`` equals ``[explain(r) for r in rows]`` in
        (algorithm, action, detail) and in every guard.* counter, for
        trained, heuristic and adversarial inners over seeded
        prevalidated rows mixing in-envelope, OOD, infeasible
        (p = 3, 6, 12) and missing-model rows — once with the breaker
        held closed, once held open."""
        _, trained = trained_guard
        env = extract_envelopes(trained)
        rng = random.Random(7)
        shapes = [(1, 2), (1, 3), (2, 3), (1, 6), (2, 6), (1, 16),
                  (2, 16), (8, 160), (1, 1), (4, 12)]
        rows = []
        for _ in range(160):
            n, p = rng.choice(shapes)
            rows.append((rng.choice(ALL_COLLECTIVES), n, p,
                         rng.choice([1, 2 ** rng.randint(0, 34),
                                     rng.randint(1, 10**7)])))
        inners = {
            "trained": (trained, None),
            "mvapich": (MvapichDefaultSelector(), None),
            "fixed-rd": (FixedSelector("allgather", "recursive_doubling"),
                         None),
            "adversary": (KeyedAdversary(raises=False), env),
            "raising-adversary": (KeyedAdversary(raises=True), env),
        }
        actions = set()
        for state in ("closed", "open"):
            for name, (inner, envelopes) in inners.items():
                block = GuardedSelector(inner, envelopes=envelopes,
                                        breaker=held_breaker(state))
                loop = GuardedSelector(inner, envelopes=envelopes,
                                       breaker=held_breaker(state))
                got = _explain_rows(block, ray_spec, rows)
                assert got == _explain_loop(loop, ray_spec, rows), \
                    (state, name)
                assert block.counters == loop.counters, (state, name)
                assert block.breaker.state == state
                actions.update(a for _, a, _ in got)
        assert actions == {"model", "remap", "ood-fallback",
                           "breaker-fallback", "error-fallback"}

    def test_batch_matches_scalar_loop_live_breaker(self, ray_spec,
                                                    trained_guard):
        """``explain_block`` equals ``[explain(r) for r in rows]`` on a
        twin guard while a live breaker trips, probes and recovers
        inside and across blocks: in (algorithm, action, detail), every
        guard.* counter and every breaker transition.  Each breaker's
        clock advances one tick per read, so the block path must also
        read it exactly as often as the scalar loop."""
        _, trained = trained_guard
        env = extract_envelopes(trained)
        inners = {
            "trained": (trained, None),
            "mvapich": (MvapichDefaultSelector(), None),
            "fixed-rd": (FixedSelector("allgather", "recursive_doubling"),
                         None),
            "adversary": (KeyedAdversary(raises=False), env),
            "raising-adversary": (KeyedAdversary(raises=True), env),
        }
        shapes = [(1, 2), (1, 3), (2, 3), (1, 6), (2, 6), (1, 16),
                  (2, 16), (8, 160), (4, 12)]
        transitions = set()
        for name, (inner, envelopes) in inners.items():
            block, loop = (GuardedSelector(
                inner, envelopes=envelopes, breaker=CircuitBreaker(
                    failure_threshold=2, recovery_timeout_s=5,
                    clock=itertools.count().__next__))
                for _ in range(2))
            rng = random.Random(name)
            for _ in range(8):
                rows = []
                for _ in range(rng.randint(1, 60)):
                    n, p = rng.choice(shapes)
                    rows.append((rng.choice(ALL_COLLECTIVES), n, p,
                                 rng.choice([1, 2 ** rng.randint(0, 34),
                                             rng.randint(1, 10**7)])))
                assert _explain_rows(block, ray_spec, rows) == \
                    _explain_loop(loop, ray_spec, rows), name
                assert block.counters == loop.counters, name
                assert block.breaker.transitions == \
                    loop.breaker.transitions, name
            transitions.update(block.breaker.transitions)
        assert transitions == {("closed", "open"), ("open", "half-open"),
                               ("half-open", "closed"),
                               ("half-open", "open")}

    def test_batch_matches_scalar_loop_fallbacks(self, ray_spec,
                                                 trained_guard):
        """As the live-breaker differential, varying the fallback: the
        heuristics, a fallback with no block call that raises for
        alltoall, and MVAPICH variants whose ``select_block`` raises,
        returns one row short, or answers an unknown name for some
        rows.  Equal in (algorithm, action, detail), every guard.*
        counter (``fallback_floored`` included) and every breaker
        transition."""
        _, trained = trained_guard
        env = extract_envelopes(trained)

        class RaisingBlock(MvapichDefaultSelector):
            def select_block(self, *args):
                raise RuntimeError("block path down")

        class ShortBlock(MvapichDefaultSelector):
            def select_block(self, *args):
                return super().select_block(*args)[:-1]

        class UnknownSome(MvapichDefaultSelector):
            """Answers an unknown name for every third message size,
            in ``select`` and ``select_block`` alike."""

            def select(self, collective, machine, msg_size):
                algo = super().select(collective, machine, msg_size)
                return "no_such_algorithm" if msg_size % 3 == 0 else algo

            def select_block(self, spec, collectives, nodes, ppn,
                             msg_size):
                out = super().select_block(spec, collectives, nodes, ppn,
                                           msg_size)
                out[msg_size % 3 == 0] = "no_such_algorithm"
                return out

        fallbacks = {
            "mvapich": MvapichDefaultSelector,
            "openmpi": OpenMpiDefaultSelector,
            "fixed-ring": lambda: FixedSelector("allgather", "ring"),
            "raising-block": RaisingBlock,
            "short-block": ShortBlock,
            "unknown-some": UnknownSome,
        }
        inners = {
            "fixed-rd": FixedSelector("allgather", "recursive_doubling"),
            "trained": trained,
        }
        shapes = [(1, 2), (1, 3), (2, 3), (1, 6), (2, 6), (1, 12),
                  (1, 16), (2, 16), (8, 160), (4, 12)]
        details = set()
        for (fname, make), (iname, inner) in itertools.product(
                fallbacks.items(), inners.items()):
            block, loop = (GuardedSelector(
                inner, fallback=make(), envelopes=env,
                breaker=CircuitBreaker(
                    failure_threshold=2, recovery_timeout_s=5,
                    clock=itertools.count().__next__))
                for _ in range(2))
            rng = random.Random(f"{fname}|{iname}")
            for _ in range(6):
                rows = []
                for _ in range(rng.randint(1, 60)):
                    n, p = rng.choice(shapes)
                    rows.append((rng.choice(("allgather", "alltoall")),
                                 n, p, rng.choice([
                                     2 ** rng.randint(0, 34),
                                     rng.randint(1, 10**7)])))
                got = _explain_rows(block, ray_spec, rows)
                assert got == _explain_loop(loop, ray_spec, rows), \
                    (fname, iname)
                assert block.counters == loop.counters, (fname, iname)
                assert block.breaker.transitions == \
                    loop.breaker.transitions, (fname, iname)
                details.update(d.split("; ", 1)[-1] for _, _, d in got
                               if "; " in d)
            assert block.counters["ood_fallback"] > 0, (fname, iname)
            assert block.counters["breaker_fallback"] > 0, (fname, iname)
            if fname in ("openmpi", "unknown-some"):
                assert block.counters["fallback_floored"] > 0, fname
        assert "fallback raised ValueError" in details
        assert "fallback chose infeasible 'recursive_doubling'" in details
        assert "fallback chose infeasible 'no_such_algorithm'" in details

    def test_nul_padded_names_judged_as_scalar(self, ray_spec):
        """A name that equals a label only after NumPy's fixed-width
        string copy (which drops trailing NULs) is unknown to
        ``explain``.  The block path judges it the same, as an inner
        prediction (remapped) and as a fallback answer (floored)."""
        class NulPadded(MvapichDefaultSelector):
            def _name(self, msg_size):
                return ("ring\x00", "ring", "bruck\x00\x00")[msg_size % 3]

            def select(self, collective, machine, msg_size):
                super().select(collective, machine, msg_size)
                return self._name(msg_size)

            def select_block(self, spec, collectives, nodes, ppn,
                             msg_size):
                return np.array([self._name(m) for m in msg_size.tolist()],
                                dtype=object)

        rows = [("allgather", 1, 8, m) for m in range(1000, 1012)]
        for state in ("closed", "open"):
            block, loop = (GuardedSelector(
                NulPadded(), fallback=NulPadded(),
                breaker=held_breaker(state)) for _ in range(2))
            got = _explain_rows(block, ray_spec, rows)
            assert got == _explain_loop(loop, ray_spec, rows), state
            assert block.counters == loop.counters, state
            assert not any("\x00" in a for a, _, _ in got), state
        assert block.counters["fallback_floored"] == 8

    def test_rows_after_a_trip_get_the_breaker_fallback(self, ray_spec):
        """A trip inside a block refuses the block's later rows, as in
        the scalar loop: 40 rows at p = 6 under a power-of-two-only
        inner remap until the default breaker opens, then get the
        fallback."""
        guard = GuardedSelector(
            FixedSelector("allgather", "recursive_doubling"))
        _explain_rows(guard, ray_spec, [("allgather", 1, 6, 4096)] * 40)
        assert guard.counters["remapped"] == 5
        assert guard.counters["breaker_fallback"] == 35

    def test_one_inner_batch_call(self, ray_spec):
        inner = _CountingSelector()
        _explain_rows(GuardedSelector(inner), ray_spec, self._rows())
        assert inner.block_calls == 1 and inner.scalar_calls == 0

    def test_counter_partition_holds(self, ray_spec):
        guard = GuardedSelector(MvapichDefaultSelector())
        _explain_rows(guard, ray_spec, self._rows())
        c = guard.counters
        assert c["queries"] == (c["invalid"] + c["served_model"]
                                + c["remapped"] + c["ood_fallback"]
                                + c["breaker_fallback"]
                                + c["error_fallback"])

    def test_failed_batch_replays_scalar(self, ray_spec):
        rows = self._rows()
        got = _explain_rows(GuardedSelector(_ExplodingBlockSelector()),
                            ray_spec, rows)
        reference = _explain_loop(GuardedSelector(
            MvapichDefaultSelector()), ray_spec, rows)
        assert got == reference
        assert all(action == ACTION_MODEL for _, action, _ in got)

    def test_wrong_length_batch_result_replays(self, ray_spec):
        class ShortBlock(MvapichDefaultSelector):
            def select_block(self, *args):
                return ["ring"]  # wrong length

        got = _explain_rows(GuardedSelector(ShortBlock()), ray_spec,
                            self._rows(n=4))
        assert len(got) == 4
        assert all(action == ACTION_MODEL for _, action, _ in got)


@pytest.fixture(scope="module")
def trained_guard(mini_dataset):
    selector = offline_train(mini_dataset, family="rf",
                             collectives=("allgather", "alltoall"))
    return GuardedSelector(selector), selector


class TestPretrainedBatch:
    def test_batch_matches_scalar(self, trained_guard):
        _, selector = trained_guard
        spec = get_cluster("Ray")
        rng = np.random.default_rng(1)
        rows = [(("allgather", "alltoall")[int(rng.integers(2))],
                 int(rng.integers(1, 3)), int(2 ** rng.integers(1, 4)),
                 int(2 ** rng.integers(4, 18))) for _ in range(20)]
        assert selector.select_block(spec, *block_args(rows)).tolist() \
            == [selector.select(c, Machine(spec, n, p), m)
                for c, n, p, m in rows]

    def test_missing_model_raises(self, trained_guard):
        _, selector = trained_guard
        with pytest.raises(KeyError, match="bcast"):
            selector.select_block(get_cluster("Ray"),
                                  *block_args([("bcast", 2, 4, 64)]))

    def test_service_over_trained_guard(self, trained_guard):
        guard, _ = trained_guard
        service = SelectionService(guard, get_cluster("Ray"))
        decisions = service.select_batch(
            [SelectionQuery("allgather", 2, 4, 4096),
             SelectionQuery("alltoall", 1, 8, 1 << 20)])
        assert all(d.algorithm is not None for d in decisions)

    def test_guard_error_fallback_still_feasible(self, ray_spec):
        class Exploding(AlgorithmSelector):
            def select(self, collective, machine, msg_size):
                raise RuntimeError("model file corrupt")

        service = SelectionService(Exploding(), ray_spec)
        decision = service.select(SelectionQuery("allgather", 2, 4, 64))
        assert decision.action == ACTION_ERROR
        assert decision.algorithm is not None
