"""Tests for the benchmark harness (`repro.core.bench`)."""

import json

import pytest

from repro.cli import main
from repro.core.bench import (
    run_benchmarks,
    validate_bench_file,
    validate_bench_results,
    write_bench_results,
)

REQUIRED = {"forest_fit_serial", "forest_fit_parallel",
            "forest_predict_batch", "table_generation", "table_lookup",
            "serve_batch_columnar", "flight_recorder_overhead"}


@pytest.fixture(scope="module")
def results():
    """One tiny harness run shared by every schema/content test."""
    return run_benchmarks(quick=True, jobs=2, repeats=1, lookups=2000)


class TestRunBenchmarks:
    def test_covers_all_hot_paths(self, results):
        assert REQUIRED <= set(results)

    def test_schema_valid(self, results):
        validate_bench_results(results)
        for entry in results.values():
            assert entry["wall_s"] >= 0

    def test_parallel_fit_bit_identical(self, results):
        cfg = results["forest_fit_parallel"]["config"]
        assert cfg["bit_identical_to_serial"] is True
        assert cfg["n_jobs"] == 2

    def test_lookup_does_not_scale_with_table_size(self, results):
        """A 64x bigger table must not cost ~64x per lookup; the bisect
        + memoized-nearest design keeps the ratio near 1 (allow slack
        for timer noise at tiny lookup counts)."""
        cfg = results["table_lookup"]["config"]
        configs_ratio = cfg["stored_configs"] / cfg["small_table_configs"]
        assert configs_ratio >= 32
        assert cfg["per_lookup_ratio_large_vs_small"] < configs_ratio / 4

    def test_serve_batch_identical_and_faster(self, results):
        """The service's block path must agree with the scalar guard
        ladder (algorithm, action and detail on each quantized key),
        and its per-query cost must beat the scalar ladder (the CI gate
        holds the committed figure to 50x; assert a bare win here to
        stay robust to container noise)."""
        cfg = results["serve_batch_columnar"]["config"]
        assert cfg["identical_to_scalar"] is True
        assert cfg["n_queries"] >= cfg["scalar_queries"] > 0
        assert cfg["speedup_vs_scalar"] > 1.0

    def test_write_and_reload(self, results, tmp_path):
        path = write_bench_results(results, tmp_path / "b.json")
        loaded = validate_bench_file(path)
        assert set(loaded) == set(results)


class TestSchemaValidation:
    @pytest.mark.parametrize("payload", [
        [],                                          # not an object
        {},                                          # empty
        {"x": []},                                   # entry not an object
        {"x": {"wall_s": 1.0}},                      # missing config
        {"x": {"config": {}}},                       # missing wall_s
        {"x": {"wall_s": 1.0, "config": {}, "z": 1}},  # extra key
        {"x": {"wall_s": -0.1, "config": {}}},       # negative time
        {"x": {"wall_s": "fast", "config": {}}},     # non-numeric time
        {"x": {"wall_s": True, "config": {}}},       # bool is not a time
        {"x": {"wall_s": 1.0, "config": []}},        # config not object
    ])
    def test_rejects_invalid(self, payload):
        with pytest.raises(ValueError):
            validate_bench_results(payload)

    def test_rejects_invalid_json_file(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            validate_bench_file(path)

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(ValueError):
            write_bench_results({"x": {"wall_s": -1, "config": {}}},
                                tmp_path / "b.json")


class TestBenchCli:
    def test_quick_run_writes_valid_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_results.json"
        rc = main(["bench", "--quick", "--quiet", "--jobs", "2",
                   "--lookups", "2000", "--output", str(out)])
        assert rc == 0
        results = validate_bench_file(out)
        assert REQUIRED <= set(results)
        stdout = capsys.readouterr().out
        assert "table_lookup" in stdout
        # Pretty-printed JSON, trailing newline (artifact hygiene).
        assert out.read_text().endswith("\n")
        json.loads(out.read_text())
