"""Tests for default heuristics, tuning tables, and selectors."""

import json

import numpy as np
import pytest

from repro.hwmodel import get_cluster
from repro.simcluster import Machine
from repro.smpi import (
    FixedSelector,
    MvapichDefaultSelector,
    OpenMpiDefaultSelector,
    OracleSelector,
    RandomSelector,
    TableSelector,
    TuningTable,
    algorithm_names,
    measured_time,
)

from .timing import best_interleaved


@pytest.fixture(scope="module")
def machine():
    return Machine(get_cluster("Frontera"), 2, 8)


@pytest.fixture(scope="module")
def machine_odd():
    return Machine(get_cluster("Frontera"), 3, 5)


class TestMvapichDefaults:
    def test_allgather_thresholds(self, machine):
        sel = MvapichDefaultSelector()
        # p=16 (power of two), total < 512K -> recursive doubling.
        assert sel.select("allgather", machine, 1024) == \
            "recursive_doubling"
        # Large total -> ring.
        assert sel.select("allgather", machine, 1 << 20) == "ring"

    def test_allgather_non_pow2_short_uses_bruck(self, machine_odd):
        sel = MvapichDefaultSelector()
        assert sel.select("allgather", machine_odd, 64) == "bruck"

    def test_alltoall_three_regimes(self, machine):
        sel = MvapichDefaultSelector()
        assert sel.select("alltoall", machine, 64) == "bruck"
        assert sel.select("alltoall", machine, 4096) == "scatter_dest"
        assert sel.select("alltoall", machine, 1 << 20) == "pairwise"

    def test_alltoall_small_comm_skips_bruck(self):
        m = Machine(get_cluster("Frontera"), 2, 2)  # p=4 < 8
        assert MvapichDefaultSelector().select("alltoall", m, 64) == \
            "scatter_dest"

    def test_unknown_collective(self, machine):
        with pytest.raises(ValueError):
            MvapichDefaultSelector().select("gatherv", machine, 8)

    def test_hardware_oblivious(self, machine):
        """Defaults must pick the same algorithm on any cluster with the
        same job shape — the failure mode the paper exploits."""
        sel = MvapichDefaultSelector()
        other = Machine(get_cluster("MRI"), 2, 8)
        for msg in (16, 4096, 1 << 19):
            for coll in ("allgather", "alltoall"):
                assert sel.select(coll, machine, msg) == \
                    sel.select(coll, other, msg)


class TestOpenMpiDefaults:
    def test_differs_from_mvapich_somewhere(self, machine):
        mv, om = MvapichDefaultSelector(), OpenMpiDefaultSelector()
        diffs = 0
        for coll in ("allgather", "alltoall"):
            for msg in (1, 64, 512, 4096, 1 << 15, 1 << 20):
                if mv.select(coll, machine, msg) != \
                        om.select(coll, machine, msg):
                    diffs += 1
        assert diffs > 0

    def test_valid_names(self, machine):
        sel = OpenMpiDefaultSelector()
        for coll in ("allgather", "alltoall"):
            for msg in (1, 100, 10_000, 1 << 20):
                assert sel.select(coll, machine, msg) in \
                    algorithm_names(coll)


class TestRandomAndFixed:
    def test_random_deterministic_per_config(self, machine):
        a = RandomSelector(0).select("alltoall", machine, 64)
        b = RandomSelector(0).select("alltoall", machine, 64)
        assert a == b

    def test_random_varies_across_configs(self, machine):
        sel = RandomSelector(0)
        picks = {sel.select("alltoall", machine, 2**k)
                 for k in range(12)}
        assert len(picks) > 1

    def test_random_seed_changes_choices(self, machine):
        p1 = [RandomSelector(1).select("allgather", machine, 2**k)
              for k in range(10)]
        p2 = [RandomSelector(2).select("allgather", machine, 2**k)
              for k in range(10)]
        assert p1 != p2

    def test_fixed_selector(self, machine):
        sel = FixedSelector("allgather", "ring")
        assert sel.select("allgather", machine, 5) == "ring"
        with pytest.raises(ValueError):
            sel.select("alltoall", machine, 5)

    def test_fixed_validates_name(self):
        with pytest.raises(KeyError):
            FixedSelector("allgather", "nope")


class TestOracle:
    def test_oracle_is_argmin(self, machine):
        sel = OracleSelector()
        for msg in (16, 16384):
            pick = sel.select("alltoall", machine, msg)
            times = {n: measured_time(machine, "alltoall", n, msg)
                     for n in algorithm_names("alltoall")}
            assert pick == min(times, key=times.__getitem__)

    def test_measured_time_noise_properties(self, machine):
        base = measured_time(machine, "allgather", "ring", 1024,
                             noise=False)
        noisy = measured_time(machine, "allgather", "ring", 1024)
        assert noisy != base
        assert abs(noisy / base - 1.0) < 0.1
        # Determinism.
        assert noisy == measured_time(machine, "allgather", "ring", 1024)


class TestTuningTable:
    def test_breakpoint_lookup(self):
        table = TuningTable("X", {"allgather": {(2, 8): [
            (1024, "recursive_doubling"), (1 << 20, "ring")]}})
        assert table.lookup("allgather", 2, 8, 100) == \
            "recursive_doubling"
        assert table.lookup("allgather", 2, 8, 4096) == "ring"
        # Beyond the last breakpoint -> last entry.
        assert table.lookup("allgather", 2, 8, 1 << 22) == "ring"

    def test_nearest_config_fallback(self):
        table = TuningTable("X", {"alltoall": {
            (2, 8): [(1 << 20, "pairwise")],
            (16, 64): [(1 << 20, "bruck")]}})
        assert table.lookup("alltoall", 2, 4, 10) == "pairwise"
        assert table.lookup("alltoall", 8, 64, 10) == "bruck"

    def test_missing_collective_raises(self):
        table = TuningTable("X", {"alltoall": {(2, 8): [(64, "bruck")]}})
        with pytest.raises(KeyError, match="no allgather entries"):
            table.lookup("allgather", 2, 8, 10)

    def test_invalid_algorithm_rejected(self):
        from repro.core.resilience import CorruptArtifactError

        with pytest.raises(CorruptArtifactError,
                           match="unknown allgather algorithm 'quantum'"):
            TuningTable("X", {"allgather": {(2, 8): [(10, "quantum")]}})

    def test_json_roundtrip(self, tmp_path):
        table = TuningTable("Y", {"allgather": {(4, 16): [(512, "bruck")]},
                                  "alltoall": {(4, 16): [(512, "pairwise")]}})
        path = table.save(tmp_path / "t.json")
        loaded = TuningTable.load(path)
        assert loaded == table
        assert loaded.cluster == "Y"
        assert loaded.lookup("allgather", 4, 16, 100) == "bruck"
        payload = json.loads(path.read_text())
        assert "collectives" in payload

    def test_table_selector_cluster_check(self):
        table = TuningTable("Frontera",
                            {"allgather": {(2, 8): [(1 << 21, "ring")]}})
        sel = TableSelector(table)
        wrong = Machine(get_cluster("MRI"), 2, 8)
        with pytest.raises(ValueError, match="built for"):
            sel.select("allgather", wrong, 64)


def _synthetic_table(n_nodes: int, n_ppn: int,
                     n_breakpoints: int) -> TuningTable:
    """A table with ``n_nodes * n_ppn`` configs of *n_breakpoints*
    breakpoints each, cycling through real algorithm names."""
    algos = sorted(algorithm_names("allgather"))
    configs = {
        (2 ** i, 2 ** j): [(2 ** (k + 3), algos[(i + j + k) % len(algos)])
                           for k in range(n_breakpoints)]
        for i in range(n_nodes) for j in range(n_ppn)}
    return TuningTable("bench", {"allgather": configs})


class TestTuningTableHotPath:
    """The O(log b) lookup: dedup, tie-breaks, sorted store."""

    def test_lookup_does_not_scale_with_table_size(self):
        """A 64x bigger table must not cost ~64x per lookup; the dict
        probe + bisect design keeps the ratio near 1 (allow slack for
        timer noise at tiny lookup counts)."""
        small = _synthetic_table(2, 2, 8)        # 4 configs
        large = _synthetic_table(16, 16, 32)     # 256 configs
        # Exact hits, nearest-config misses, and a spread of message
        # sizes (including past the last breakpoint).
        rng = np.random.default_rng(0)
        queries = [(int(2 ** rng.integers(0, 6)),
                    int(2 ** rng.integers(0, 6)),
                    int(2 ** rng.integers(0, 40))) for _ in range(512)]

        def lookups(table):
            for i in range(2000):
                nodes, ppn, msg = queries[i % len(queries)]
                table.lookup("allgather", nodes, ppn, msg)

        small_s, large_s = best_interleaved(
            [lambda: lookups(small), lambda: lookups(large)], repeats=3)
        ratio = large_s / small_s
        configs_ratio = (sum(map(len, large.entries.values()))
                         / sum(map(len, small.entries.values())))
        assert configs_ratio >= 32
        assert ratio < configs_ratio / 4

    def test_validate_rejects_conflicting_duplicates(self):
        from repro.core.resilience import CorruptArtifactError

        with pytest.raises(CorruptArtifactError,
                           match="conflicting duplicate"):
            TuningTable("X", {"allgather": {
                (2, 8): [(1024, "ring"), (1024, "bruck")]}})

    def test_from_json_rejects_conflicting_duplicates(self):
        from repro.core.resilience import CorruptArtifactError

        payload = {
            "cluster": "X",
            "collectives": {
                "allgather": {
                    "2x8": [[1024, "ring"], [1024, "bruck"]],
                },
            },
        }
        with pytest.raises(CorruptArtifactError,
                           match="conflicting duplicate"):
            TuningTable.from_json(json.dumps(payload))

    def test_from_json_rejects_aliased_config_keys(self):
        """``"2x8"`` and ``"02x8"`` name one job shape; merging them
        would let one silently override the other."""
        from repro.core.resilience import CorruptArtifactError, \
            checksum_payload

        collectives = {"allgather": {"2x8": [[1024, "ring"]],
                                     "02x8": [[1024, "bruck"]]}}
        payload = {"format": "pml-mpi/tuning-table", "version": 1,
                   "cluster": "X",
                   "crc32": checksum_payload(collectives),
                   "collectives": collectives}
        with pytest.raises(CorruptArtifactError, match="'02x8' repeats"):
            TuningTable.from_json(json.dumps(payload))

    def test_from_json_accepts_agreeing_duplicates(self):
        payload = {
            "cluster": "X",
            "collectives": {
                "allgather": {
                    "2x8": [[1024, "ring"], [1024, "ring"]],
                },
            },
        }
        table = TuningTable.from_json(json.dumps(payload))
        assert table.lookup("allgather", 2, 8, 100) == "ring"

    def test_nearest_config_tie_break_is_smallest(self):
        """(4, 4) is log-equidistant from (2, 8) and (8, 2); the
        smallest (nodes, ppn) must win regardless of insert order."""
        for order in [((2, 8, "ring"), (8, 2, "bruck")),
                      ((8, 2, "bruck"), (2, 8, "ring"))]:
            table = TuningTable("X", {"allgather": {
                (nodes, ppn): [(1 << 20, algo)]
                for nodes, ppn, algo in order}})
            assert table.lookup("allgather", 4, 4, 10) == "ring"

    def test_to_json_sorted_and_deduped(self):
        table = TuningTable("X", {"allgather": {
            (8, 2): [(64, "bruck")],
            (2, 8): [(1 << 20, "ring"), (64, "bruck"), (64.0, "bruck")]}})
        payload = json.loads(table.to_json())
        configs = payload["collectives"]["allgather"]
        assert list(configs) == ["2x8", "8x2"]
        assert configs["2x8"] == [[64, "bruck"], [1 << 20, "ring"]]

    def test_lookup_matches_reference_scan(self):
        """Bisect lookup agrees with a brute-force first->=size scan
        over a table built from unsorted breakpoints."""
        rng = np.random.default_rng(7)
        algos = sorted(algorithm_names("allgather"))
        sizes = [int(s) for s in rng.permutation([2**k for k in range(1, 17)])]
        expect = {size: algos[size % len(algos)] for size in sizes}
        table = TuningTable("X", {"allgather": {
            (2, 8): list(expect.items())}})
        ordered = sorted(expect)
        for query in [1, 3, 16, 100, 4097, 1 << 16, 1 << 20]:
            matching = [s for s in ordered if s >= query]
            want = expect[matching[0]] if matching else expect[ordered[-1]]
            assert table.lookup("allgather", 2, 8, query) == want


class TestMeasurementCache:
    def test_cache_hit_is_identical(self, machine):
        from repro.smpi import clear_measurement_cache

        clear_measurement_cache()
        first = measured_time(machine, "allgather", "ring", 4096)
        again = measured_time(machine, "allgather", "ring", 4096)
        assert first == again
        clear_measurement_cache()
        recomputed = measured_time(machine, "allgather", "ring", 4096)
        assert first == recomputed  # memo never changes the value

    def test_degraded_machine_not_conflated(self, machine):
        """Same spec/nodes/ppn but different NetParams must not share
        cache entries (regression: conditions were invisible to the
        memo key)."""
        from repro.simcluster.conditions import (
            NetworkConditions,
            machine_with_conditions,
        )

        clean = measured_time(machine, "alltoall", "pairwise", 1 << 20)
        worse = machine_with_conditions(
            machine, NetworkConditions(background_load=0.9))
        degraded = measured_time(worse, "alltoall", "pairwise", 1 << 20)
        assert degraded > clean


class TestSelectorQualityOrdering:
    def test_oracle_beats_random_overall(self):
        """Summed over a sweep, oracle <= heuristic <= random is the
        expected quality ordering (random can fluke single sizes)."""
        machine = Machine(get_cluster("Frontera"), 2, 16)
        sizes = [2**k for k in range(0, 21, 2)]
        sels = {"oracle": OracleSelector(),
                "mvapich": MvapichDefaultSelector(),
                "random": RandomSelector(0)}
        totals = {}
        for name, sel in sels.items():
            t = 0.0
            for msg in sizes:
                algo = sel.select("alltoall", machine, msg)
                t += measured_time(machine, "alltoall", algo, msg)
            totals[name] = t
        assert totals["oracle"] <= totals["mvapich"] <= totals["random"]
