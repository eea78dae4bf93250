"""Tests for the pml-mpi command-line interface (driven in-process)."""

import pytest

from repro import cli
from repro.cli import main


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A small trained bundle (RI-only training for speed)."""
    path = tmp_path_factory.mktemp("bundle") / "pml.json"
    rc = main(["train", str(path), "--clusters", "RI", "Ray"])
    assert rc == 0
    return path


class TestInfo:
    def test_lists_all_clusters(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Frontera" in out and "MRI" in out
        assert out.count("\n") >= 18

    def test_single_cluster_features(self, capsys):
        assert main(["info", "Sierra"]) == 0
        out = capsys.readouterr().out
        assert "link_speed_gbps" in out
        assert "IBM POWER9" in out


class TestCollect:
    def test_collect_and_save(self, tmp_path, capsys):
        out_path = tmp_path / "ds.jsonl.gz"
        rc = main(["collect", "--clusters", "RI", "--quiet",
                   "--output", str(out_path)])
        assert rc == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "collected 84 records" in out

    def test_collect_extension_collectives(self, capsys):
        rc = main(["collect", "--clusters", "RI", "--quiet",
                   "--collectives", "bcast"])
        assert rc == 0
        assert "binomial" in capsys.readouterr().out


class TestTrainSelectTune:
    def test_bundle_written(self, bundle):
        assert bundle.exists()

    def test_select_prints_algorithm(self, bundle, capsys):
        rc = main(["select", "Frontera", "allgather", "2", "8", "1024",
                   "--bundle", str(bundle)])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out in ("recursive_doubling", "ring", "bruck",
                       "rd_communication")

    def test_tune_writes_table(self, bundle, tmp_path, capsys):
        rc = main(["tune", "RI", "--bundle", str(bundle),
                   "--table-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "RI.tuning.json").exists()
        assert "generated" in capsys.readouterr().out

    def test_tune_reuses_table(self, bundle, tmp_path, capsys):
        main(["tune", "RI", "--bundle", str(bundle),
              "--table-dir", str(tmp_path)])
        capsys.readouterr()
        main(["tune", "RI", "--bundle", str(bundle),
              "--table-dir", str(tmp_path)])
        assert "reused" in capsys.readouterr().out


class TestSelectBatch:
    QUERY = '{"collective":"allgather","nodes":2,"ppn":4,"msg_size":%d}'

    def _query_file(self, tmp_path, msgs=(64, 1024, 1024, 4096)):
        path = tmp_path / "queries.jsonl"
        path.write_text("".join(self.QUERY % m + "\n" for m in msgs))
        return path

    def test_writes_decisions_jsonl(self, bundle, tmp_path, capsys):
        import json

        queries = self._query_file(tmp_path)
        out_path = tmp_path / "decisions.jsonl"
        rc = main(["select-batch", "RI", "--bundle", str(bundle),
                   "--input", str(queries), "--output", str(out_path)])
        assert rc == 0
        assert "answered 4 queries" in capsys.readouterr().out
        lines = out_path.read_text().splitlines()
        assert len(lines) == 4
        records = [json.loads(line) for line in lines]
        assert all(r["algorithm"] for r in records)
        # Exact duplicate within the batch is answered from dedup.
        assert records[2]["cached"] is True

    def test_stdout_without_output_flag(self, bundle, tmp_path, capsys):
        queries = self._query_file(tmp_path, msgs=(64,))
        rc = main(["select-batch", "RI", "--bundle", str(bundle),
                   "--input", str(queries)])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"collective":"allgather"' in out

    def test_agrees_with_single_select(self, bundle, tmp_path, capsys):
        import json

        queries = self._query_file(tmp_path, msgs=(1024,))
        main(["select-batch", "RI", "--bundle", str(bundle),
              "--input", str(queries)])
        batch_algo = json.loads(
            capsys.readouterr().out.splitlines()[0])["algorithm"]
        main(["select", "RI", "allgather", "2", "4", "1024",
              "--bundle", str(bundle)])
        assert batch_algo == capsys.readouterr().out.strip()

    def test_trace_records_guard_counters(self, bundle, tmp_path,
                                          capsys):
        """The service's guard counts into the traced registry: one
        guard query per distinct valid key, partition intact."""
        from repro.obs.trace_io import load_trace
        from repro.smpi.guard import COUNTER_KEYS

        queries = self._query_file(tmp_path,
                                   msgs=(64, 1000, 1024, 4096, -1))
        trace_path = tmp_path / "t.jsonl"
        rc = main(["select-batch", "RI", "--bundle", str(bundle),
                   "--input", str(queries), "--output",
                   str(tmp_path / "d.jsonl"), "--trace", str(trace_path)])
        assert rc == 0
        capsys.readouterr()
        counters = load_trace(trace_path).counters()
        assert counters["serve.queries"] == 5
        assert counters["serve.invalid"] == 1
        assert counters["guard.queries"] == 3  # 64, 1024 (x2), 4096
        assert counters["guard.queries"] == sum(
            counters.get(f"guard.{k}", 0) for k in COUNTER_KEYS[1:7])

    def test_invalid_query_becomes_invalid_decision(self, bundle,
                                                    tmp_path, capsys):
        import json

        path = tmp_path / "queries.jsonl"
        path.write_text(
            '{"collective":"nope","nodes":2,"ppn":4,"msg_size":64}\n')
        rc = main(["select-batch", "RI", "--bundle", str(bundle),
                   "--input", str(path)])
        assert rc == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["action"] == "invalid"
        assert record["algorithm"] is None

    def test_broken_file_is_an_error(self, bundle, tmp_path, capsys):
        path = tmp_path / "queries.jsonl"
        path.write_text("this is not json\n")
        rc = main(["select-batch", "RI", "--bundle", str(bundle),
                   "--input", str(path)])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_input_file(self, bundle, tmp_path, capsys):
        rc = main(["select-batch", "RI", "--bundle", str(bundle),
                   "--input", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err


class TestSelectGuarded:
    """``select`` answers through the same guarded service as
    ``select-batch``."""

    KEYS = [(c, n, p, m)
            for c in ("allgather", "alltoall")
            for n, p in ((1, 3), (1, 6), (2, 3))
            for m in (1, 64, 4096, 1 << 16, 1 << 20)]

    def test_feasible_and_equal_to_explain(self, bundle, tmp_path,
                                           capsys):
        """``select`` prints a fresh guard's ``explain`` on its key, a
        feasible algorithm (regression: it used to print the raw model
        choice, e.g. recursive_doubling at p = 3).  ``select-batch``
        answers one guard's ``explain`` loop over the file, so rows
        after a breaker trip get the fallback, as in that loop."""
        import json

        from repro.core.bundle import load_selector
        from repro.hwmodel import get_cluster
        from repro.simcluster.machine import Machine
        from repro.smpi.collectives import base
        from repro.smpi.guard import GuardedSelector

        path = tmp_path / "queries.jsonl"
        path.write_text("".join(
            json.dumps({"collective": c, "nodes": n, "ppn": p,
                        "msg_size": m}) + "\n"
            for c, n, p, m in self.KEYS))
        assert main(["select-batch", "RI", "--bundle", str(bundle),
                     "--input", str(path)]) == 0
        batch = [json.loads(line)["algorithm"]
                 for line in capsys.readouterr().out.splitlines()]
        assert len(batch) == len(self.KEYS)
        selector = load_selector(bundle)
        spec = get_cluster("RI")
        loop = GuardedSelector(selector)
        for (c, n, p, m), expected in zip(self.KEYS, batch):
            machine = Machine(spec, n, p)
            assert expected == loop.explain(c, machine, m).algorithm, \
                (c, n, p, m)
            assert main(["select", "RI", c, str(n), str(p), str(m),
                         "--bundle", str(bundle)]) == 0
            algo = capsys.readouterr().out.strip()
            assert base.is_feasible(c, algo, n * p), (c, n, p, m, algo)
            assert algo == GuardedSelector(selector).explain(
                c, machine, m).algorithm, (c, n, p, m)

    @pytest.mark.parametrize("argv,detail", (
        (["allgather", "1", "4", "0"], "msg_size must be positive"),
        (["allgather", "3", "4", "64"], "bad job shape"),
    ))
    def test_invalid_query_exits_2(self, bundle, capsys, argv, detail):
        assert main(["select", "RI", *argv, "--bundle", str(bundle)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert detail in captured.err


class TestSweep:
    def test_oracle_sweep(self, capsys):
        rc = main(["sweep", "RI", "alltoall", "2", "4",
                   "--selector", "oracle"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg_time_us" in out
        assert out.count("\n") > 20  # 21 sizes + header

    def test_pml_sweep_requires_bundle(self, capsys):
        rc = main(["sweep", "RI", "alltoall", "2", "4",
                   "--selector", "pml"])
        assert rc == 2
        assert "--bundle is required" in capsys.readouterr().err

    def test_pml_sweep_with_bundle(self, bundle, capsys):
        rc = main(["sweep", "RI", "allgather", "2", "4",
                   "--selector", "pml", "--bundle", str(bundle)])
        assert rc == 0


class TestUnloadableBundle:
    """Every command that loads a bundle exits 2 with one message."""

    @pytest.mark.parametrize("state", ["missing", "corrupt", "overlong"])
    @pytest.mark.parametrize("command", ["tune", "select", "select-batch",
                                         "sweep"])
    def test_exits_2_with_message(self, command, state, tmp_path,
                                  capsys):
        bundle = tmp_path / "pml.json"
        if state == "corrupt":
            bundle.write_text('{"broken')
        if state == "overlong":
            # Past the interpreter's integer-string limit, json.loads
            # raises a plain ValueError, not a JSONDecodeError.
            bundle.write_text('{"bundle_version": ' + "9" * 5000
                              + ', "models": {}}')
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"collective": "allgather", "nodes": 2, '
                           '"ppn": 8, "msg_size": 1024}\n')
        argv = {
            "tune": ["tune", "RI", "--table-dir", str(tmp_path)],
            "select": ["select", "RI", "allgather", "2", "8", "1024"],
            "select-batch": ["select-batch", "RI", "--input",
                             str(queries)],
            "sweep": ["sweep", "RI", "allgather", "2", "4",
                      "--selector", "pml"],
        }[command]
        assert main([*argv, "--bundle", str(bundle)]) == 2
        captured = capsys.readouterr()
        assert f"cannot load bundle {bundle}: " in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestDoctor:
    def test_clean_directory(self, bundle, tmp_path, capsys):
        main(["tune", "RI", "--bundle", str(bundle),
              "--table-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(["doctor", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok" in out and "0 problem(s)" in out

    def test_flags_corrupt_and_quarantined(self, tmp_path, capsys):
        (tmp_path / "bad.tuning.json").write_text("{nope")
        (tmp_path / "old.tuning.json.corrupt").write_text("x")
        rc = main(["doctor", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert "quarantined" in out

    def test_empty_directory(self, tmp_path, capsys):
        rc = main(["doctor", str(tmp_path)])
        assert rc == 0
        assert "no artifacts" in capsys.readouterr().out

    def test_missing_directory(self, tmp_path, capsys):
        rc = main(["doctor", str(tmp_path / "nope")])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err


class TestDoctorCrossCheck:
    def test_bundle_cross_check_clean(self, bundle, tmp_path, capsys):
        main(["tune", "RI", "--bundle", str(bundle),
              "--table-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(["doctor", str(tmp_path), "--bundle", str(bundle)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cross-check" in out

    def test_bundle_cross_check_misfiled_table(self, bundle, tmp_path,
                                               capsys):
        main(["tune", "RI", "--bundle", str(bundle),
              "--table-dir", str(tmp_path)])
        capsys.readouterr()
        misfiled = tmp_path / "Haswell.tuning.json"
        misfiled.write_text((tmp_path / "RI.tuning.json").read_text())
        rc = main(["doctor", str(tmp_path), "--bundle", str(bundle)])
        assert rc == 1
        assert "belongs to cluster" in capsys.readouterr().out


class TestChaos:
    def test_short_run_passes(self, capsys):
        rc = main(["chaos", "--queries", "600", "--seed", "0",
                   "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CHAOS OK" in out
        assert "unguarded exceptions: 0" in out


class TestFaultInjectionFlags:
    def test_tune_with_faults_still_succeeds(self, bundle, tmp_path,
                                             capsys):
        rc = main(["tune", "RI", "--bundle", str(bundle),
                   "--table-dir", str(tmp_path),
                   "--fault-rate", "0.2", "--retries", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served via:" in out
        assert (tmp_path / "RI.tuning.json").exists()

    def test_collect_with_faults(self, tmp_path, capsys,
                                 monkeypatch):
        monkeypatch.setenv("PML_MPI_CACHE", str(tmp_path))
        rc = main(["collect", "--clusters", "RI", "--quiet",
                   "--collectives", "allgather",
                   "--fault-rate", "0.2", "--retries", "8"])
        assert rc == 0
        assert "collected 42 records" in capsys.readouterr().out


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_cluster_rejected(self):
        with pytest.raises(SystemExit):
            main(["info", "Atlantis"])


class TestWorkerCounts:
    """``collect --workers``, ``train --jobs`` and ``adapt --jobs``
    take a positive int or -1 (all cores), checked before any work."""

    @pytest.mark.parametrize("argv", [
        ["train", "bundle.json", "--jobs", "0"],
        ["train", "bundle.json", "--jobs", "-2"],
        ["collect", "--workers", "0"],
        ["collect", "--workers", "two"],
        ["adapt", "RI", "--bundle", "bundle.json",
         "--feedback", "feedback.jsonl", "--jobs", "0"],
    ])
    def test_bad_count_exits_2_before_any_work(self, argv, tmp_path,
                                               monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the count check")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "collect_dataset", no_work)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer or -1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,dest", [
        (["collect", "--workers", "-1"], "workers"),
        (["train", "bundle.json", "--jobs", "-1"], "jobs"),
        (["adapt", "RI", "--bundle", "b", "--feedback", "f",
          "--jobs", "3"], "jobs"),
    ])
    def test_all_cores_and_positive_counts_parse(self, argv, dest):
        args = cli.build_parser().parse_args(argv)
        assert getattr(args, dest) == int(argv[-1])


class TestTraceAndReport:
    def test_trace_flag_writes_valid_trace(self, tmp_path, capsys):
        from repro.obs.trace_io import load_trace

        trace_path = tmp_path / "t.jsonl"
        assert main(["info", "RI", "--trace", str(trace_path)]) == 0
        assert "trace written" in capsys.readouterr().err
        trace = load_trace(trace_path)
        assert trace.root_spans()[0]["name"] == "info"

    def test_traced_tune_then_report_shows_stages(self, bundle,
                                                  tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        rc = main(["tune", "RI", "--bundle", str(bundle),
                   "--table-dir", str(tmp_path / "tables"),
                   "--trace", str(trace_path)])
        assert rc == 0
        capsys.readouterr()
        assert main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "per-stage wall clock" in out
        assert "tune" in out
        assert "tune.rung.regenerated" in out

    def test_trace_accumulates_across_commands(self, tmp_path, capsys):
        from repro.obs.trace_io import load_trace

        trace_path = tmp_path / "t.jsonl"
        assert main(["info", "RI", "--trace", str(trace_path)]) == 0
        assert main(["info", "Ray", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        roots = load_trace(trace_path).root_spans()
        assert [s["name"] for s in roots] == ["info", "info"]

    def test_report_missing_file_rc_2(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "no such trace" in capsys.readouterr().err

    def test_report_corrupt_file_rc_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("garbage\n")
        assert main(["report", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_trace_onto_corrupt_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("garbage\n")
        rc = main(["info", "RI", "--trace", str(bad)])
        assert rc == 2
        assert "cannot extend trace" in capsys.readouterr().err
        assert bad.read_text() == "garbage\n"

    def test_verbose_flag_accepted_after_subcommand(self, capsys):
        assert main(["info", "RI", "-vv"]) == 0

    def test_report_metrics_only_trace_says_no_spans(self, tmp_path,
                                                     capsys):
        # Regression: a trace holding metrics but zero spans (e.g. a
        # traced command whose spans were all filtered) must render a
        # clean report, not crash or print an empty stage table.
        from repro.obs.telemetry import MetricsRegistry, Tracer
        from repro.obs.trace_io import export_trace

        path = tmp_path / "metrics_only.jsonl"
        registry = MetricsRegistry()
        registry.counter("serve.queries").inc(5)
        registry.histogram("serve.batch_s").observe(0.25)
        export_trace(path, Tracer(enabled=False), registry,
                     append=False)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "(no spans recorded)" in out
        assert "serve.queries" in out
        assert "slowest spans" not in out

    def test_report_renders_slo_compliance_for_daemon_traces(
            self, tmp_path, capsys):
        from repro.obs.telemetry import MetricsRegistry, Tracer
        from repro.obs.trace_io import export_trace

        path = tmp_path / "daemon.jsonl"
        registry = MetricsRegistry()
        registry.counter("serve.daemon.requests").inc(100)
        registry.counter("serve.daemon.internal").inc(10)
        export_trace(path, Tracer(enabled=False), registry,
                     append=False)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SLO compliance" in out
        assert "daemon-availability" in out
        assert "VIOLATED" in out  # 10% internal vs 95% objective


class TestLoggingIdempotent:
    @pytest.fixture(autouse=True)
    def _clean_repro_logger(self):
        import logging

        logger = logging.getLogger("repro")
        yield logger
        for handler in list(logger.handlers):
            if getattr(handler, "_pml_cli", False):
                logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)

    def test_repeated_verbose_runs_keep_one_handler(
            self, _clean_repro_logger, capsys):
        # Regression: repeated in-process `-v` invocations (a REPL, a
        # test harness, the daemon respawning the CLI) must not stack
        # handlers — each stacked handler multiplies every log line.
        import sys as real_sys

        logger = _clean_repro_logger
        for _ in range(3):
            assert main(["info", "RI", "-v"]) == 0
        handlers = [h for h in logger.handlers
                    if getattr(h, "_pml_cli", False)]
        assert len(handlers) == 1
        # Re-bound to the *current* stderr (pytest swaps it per test).
        assert handlers[0].stream is real_sys.stderr

    def test_stray_duplicate_handlers_are_swept(
            self, _clean_repro_logger, capsys):
        import logging

        logger = _clean_repro_logger
        for _ in range(2):
            stray = logging.StreamHandler()
            stray._pml_cli = True
            logger.addHandler(stray)
        assert main(["info", "RI", "-v"]) == 0
        handlers = [h for h in logger.handlers
                    if getattr(h, "_pml_cli", False)]
        assert len(handlers) == 1


class TestTopCommand:
    def test_unreachable_socket_is_a_clean_error(self, tmp_path,
                                                 capsys):
        rc = main(["top", "--socket", str(tmp_path / "none.sock"),
                   "--once"])
        assert rc == 1
        assert "top:" in capsys.readouterr().err


class TestServeFlags:
    """The daemon's counts and durations are argparse types, so a bad
    value exits 2 before anything (state dir, lock, boot sentinel) is
    touched."""

    @pytest.mark.parametrize("argv", [
        ["serve", "RI", "--max-inflight", "0"],
        ["serve", "RI", "--max-batch", "-1"],
        ["serve", "RI", "--cache-size", "0"],
        ["serve", "RI", "--cache-size", "many"],
        ["serve", "RI", "--recorder-capacity", "0"],
        ["serve", "RI", "--deadline-ms", "0"],
        ["serve", "RI", "--deadline-ms", "nan"],
        ["serve", "RI", "--reload-poll-s", "0"],
        ["serve", "RI", "--reload-poll-s", "inf"],
        ["serve", "RI", "--drain-timeout-s", "-1"],
        ["serve", "RI", "--drain-timeout-s", "nan"],
        ["select-batch", "RI", "--bundle", "b.json", "--input", "q.jsonl",
         "--cache-size", "0"],
    ], ids=lambda argv: " ".join([argv[0], *argv[-2:]]))
    def test_bad_value_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "expected a" in capsys.readouterr().err

    def test_zero_drain_timeout_parses(self):
        args = cli.build_parser().parse_args(
            ["serve", "RI", "--drain-timeout-s", "0"])
        assert args.drain_timeout_s == 0.0

    def test_rejected_boot_leaves_the_bundle_servable(self, bundle,
                                                      tmp_path):
        """A ``--cache-size 0`` that died after writing its boot
        sentinel made the next, correct boot quarantine the bundle."""
        from repro.hwmodel import get_cluster
        from repro.serve import DaemonConfig, SelectionDaemon

        served = tmp_path / "bundle.json"
        served.write_bytes(bundle.read_bytes())
        state = tmp_path / "state"
        with pytest.raises(SystemExit):
            main(["serve", "RI", "--bundle", str(served),
                  "--state-dir", str(state), "--cache-size", "0"])
        assert not state.exists()
        daemon = SelectionDaemon(DaemonConfig(
            spec=get_cluster("RI"), socket_path=state / "daemon.sock",
            state_dir=state, bundle=served))
        daemon.boot()
        try:
            assert daemon.store.current().source == "bundle"
            assert daemon.counters["quarantined_boot"] == 0
            assert not list(tmp_path.glob("*.corrupt"))
        finally:
            daemon._cleanup()


class TestServeSloFlag:
    def test_invalid_slo_config_refuses_to_start(self, tmp_path,
                                                 capsys):
        bad = tmp_path / "slo.json"
        bad.write_text("[]")
        rc = main(["serve", "RI", "--state-dir",
                   str(tmp_path / "state"), "--slo", str(bad)])
        assert rc == 1
        assert "cannot start" in capsys.readouterr().err
