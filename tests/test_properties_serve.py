"""Property-based fuzzing of the serving stack (stdlib ``random``,
fixed seeds — no external fuzzing dependency).

Three families of invariants:

* **TuningTable determinism** — a table built from any permutation of
  the same (unique-keyed) entries answers every lookup identically.
* **Counter partitions** — the LRU memo's hits + misses equals its
  gets, and the service's ``queries == cache_hits + deduped +
  cache_misses`` partition survives arbitrary mixes of valid,
  duplicate, and malformed queries.
* **Guard feasibility** — every decision ``explain_block`` returns for
  a (prevalidated) row names an algorithm feasible on that row's
  communicator shape, whatever garbage the inner selector emits.
"""

import random

import pytest

from repro.hwmodel import get_cluster
from repro.serve import (
    ACTION_INVALID,
    LRUCache,
    SelectionQuery,
    SelectionService,
)
from repro.smpi.collectives import base
from repro.smpi.guard import GuardedSelector
from repro.smpi.heuristics import (
    ALL_COLLECTIVES,
    AlgorithmSelector,
    MvapichDefaultSelector,
    validate_query,
)
from repro.smpi.tuning import TuningTable

from .serve_oracle import block_args

SEEDS = (0, 1, 2)


# -- TuningTable permutation determinism ------------------------------------

def _random_entries(rng, n=60):
    """Unique-keyed random (collective, nodes, ppn, msg, algo) entries
    (a repeated key naming two algorithms would be a conflicting
    duplicate, which construction rejects)."""
    entries = {}
    while len(entries) < n:
        collective = rng.choice(ALL_COLLECTIVES)
        key = (collective, 2 ** rng.randint(0, 5),
               2 ** rng.randint(0, 5), 2 ** rng.randint(3, 22))
        algos = base.algorithm_names(collective)
        entries[key] = rng.choice(sorted(algos))
    return [(c, n_, p, m, a) for (c, n_, p, m), a in entries.items()]


def _build_table(entries):
    """Construct through the constructor, inserting in *entries* order
    at every level (collective, config, breakpoint)."""
    store: dict = {}
    for collective, nodes, ppn, msg, algo in entries:
        store.setdefault(collective, {}).setdefault(
            (nodes, ppn), []).append((msg, algo))
    return TuningTable("fuzz", store)


@pytest.mark.parametrize("seed", SEEDS)
def test_tuning_table_lookup_permutation_invariant(seed):
    rng = random.Random(seed)
    entries = _random_entries(rng)
    probes = [(rng.choice(ALL_COLLECTIVES), rng.randint(1, 40),
               rng.randint(1, 40), rng.randint(1, 2 ** 24))
              for _ in range(200)]
    reference = _build_table(entries)
    expected = [reference.lookup(*p) for p in probes]
    for _ in range(4):
        shuffled = list(entries)
        rng.shuffle(shuffled)
        table = _build_table(shuffled)
        assert [table.lookup(*p) for p in probes] == expected


# -- LRU memo counter partition ---------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_lru_counters_partition_and_model_agreement(seed):
    rng = random.Random(seed)
    capacity = rng.randint(1, 16)
    cache = LRUCache(capacity)
    model = {}  # insertion-ordered reference model of the live keys
    gets = evictions = 0
    for _ in range(800):
        key = rng.randint(0, 30)
        if rng.random() < 0.5:
            gets += 1
            expected = model.get(key)
            assert cache.get(key) == expected
            if expected is not None:  # LRU refresh in the model too
                model.pop(key)
                model[key] = expected
        else:
            if key in model:
                model.pop(key)
            model[key] = key * 7
            cache.put(key, key * 7)
            if len(model) > capacity:
                oldest = next(iter(model))
                model.pop(oldest)
                evictions += 1
    assert cache.hits + cache.misses == gets
    assert len(cache) == len(model) <= capacity
    assert cache.evictions == evictions
    assert list(cache.keys()) == list(model)


# -- Service counter partition under adversarial batches --------------------

def _random_queries(rng, n):
    queries = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.15:  # malformed in some way
            queries.append(SelectionQuery(
                rng.choice([rng.choice(ALL_COLLECTIVES), "nope"]),
                rng.choice([0, -1, 2, "two"]),
                rng.choice([0, 4, 2.5]),
                rng.choice([-8, 0, 64, True, "big"])))
        else:
            queries.append(SelectionQuery(
                rng.choice(ALL_COLLECTIVES), rng.randint(1, 2),
                2 ** rng.randint(1, 4), 2 ** rng.randint(3, 20)))
    return queries


@pytest.mark.parametrize("seed", SEEDS)
def test_service_counter_partition(seed):
    rng = random.Random(seed)
    service = SelectionService(MvapichDefaultSelector(),
                               get_cluster("Ray"),
                               cache_size=rng.randint(4, 64))
    total = 0
    for _ in range(10):
        batch = _random_queries(rng, rng.randint(0, 60))
        total += len(batch)
        decisions = service.select_batch(batch)
        assert len(decisions) == len(batch)
        c = service.counters
        assert c["queries"] == total
        assert c["queries"] == (c["cache_hits"] + c["deduped"]
                                + c["cache_misses"])
        assert c["invalid"] <= c["cache_misses"]
        assert c["evictions"] == service.cache.evictions


# -- Guard feasibility invariant --------------------------------------------

class _AdversarialSelector(AlgorithmSelector):
    """Emits unknown labels, infeasible choices, junk types, and
    exceptions at seeded random — block and scalar alike."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def _one(self, collective):
        roll = self.rng.random()
        if roll < 0.2:
            raise RuntimeError("flaky model")
        if roll < 0.4:
            return "no_such_algorithm"
        if roll < 0.5:
            return 12345  # junk type
        return self.rng.choice(sorted(
            base.algorithm_names(collective)))  # maybe infeasible

    def select(self, collective, machine, msg_size):
        validate_query(collective, machine, msg_size)
        return self._one(collective)

    def select_block(self, spec, collectives, nodes, ppn, msg_size):
        if self.rng.random() < 0.3:
            raise RuntimeError("vectorized path down")
        return [self._one(c) for c in collectives]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_batch_decision_is_feasible(seed):
    rng = random.Random(seed)
    spec = get_cluster("Ray")
    guard = GuardedSelector(_AdversarialSelector(seed))
    for _ in range(6):
        rows = []
        for _ in range(rng.randint(1, 40)):
            nodes, ppn = rng.randint(1, 2), 2 ** rng.randint(0, 4)
            if nodes * ppn < 2:
                nodes, ppn = 2, 2
            rows.append((rng.choice(ALL_COLLECTIVES), nodes, ppn,
                         2 ** rng.randint(3, 20)))
        algorithms, actions, _ = guard.explain_block(
            spec, *block_args(rows))
        for (collective, n, p, _), algorithm, action in zip(
                rows, algorithms, actions):
            assert base.is_feasible(collective, algorithm, n * p), \
                (collective, algorithm, action, n, p)
        c = guard.counters
        assert c["queries"] == (c["invalid"] + c["served_model"]
                                + c["remapped"] + c["ood_fallback"]
                                + c["breaker_fallback"]
                                + c["error_fallback"])
