"""The serving daemon: wire protocol, snapshot hot-reload, crash-safe
boot, and the socket loop end-to-end (in-process, against a real
Unix socket)."""

import json
import subprocess
import sys
import threading
import time

import pytest

from repro.core.bundle import save_selector
from repro.core.inference import PretrainedSelector
from repro.core.resilience import FileLock, atomic_write_text
from repro.core.training import train_model
from repro.hwmodel import get_cluster
from repro.obs.telemetry import MetricsRegistry, set_registry
from repro.serve import (
    DaemonClient,
    DaemonConfig,
    DaemonError,
    ProtocolError,
    QueryBlock,
    SelectionDaemon,
    SnapshotStore,
    file_crc32,
    quantize_msg_size,
)
from repro.serve.daemon import DAEMON_COUNTER_KEYS
from repro.serve.protocol import (
    encode,
    error_response,
    ok_response,
    parse_request,
)
from repro.simcluster.machine import Machine
from repro.smpi.guard import GuardedSelector
from repro.smpi.heuristics import MvapichDefaultSelector

CHAOS_COLLECTIVES = ("allgather", "alltoall")


@pytest.fixture(autouse=True)
def fresh_registry():
    """The daemon records into the ambient registry; give every test
    its own so counter equality assertions are exact."""
    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


@pytest.fixture(scope="module")
def ri_spec():
    return get_cluster("RI")


@pytest.fixture(scope="module")
def tiny_selector(mini_dataset):
    models = {coll: train_model(mini_dataset, coll, seed=0,
                                params={"n_estimators": 4})
              for coll in CHAOS_COLLECTIVES}
    return PretrainedSelector(models)


@pytest.fixture(scope="module")
def tiny_bundle(tiny_selector, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "tiny.json"
    save_selector(tiny_selector, path)
    return path


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_parse_select(self):
        req = parse_request(json.dumps({
            "id": 7, "op": "select", "deadline_ms": 50,
            "queries": [{"collective": "allgather", "nodes": 2,
                         "ppn": 8, "msg_size": 4096}]}))
        assert req.id == 7 and req.op == "select"
        assert req.deadline_ms == 50.0
        assert isinstance(req.block, QueryBlock) and req.block.n == 1
        assert len(req.queries) == 1
        assert req.queries[0].collective == "allgather"

    @pytest.mark.parametrize("op", ("ping", "stats", "reload",
                                    "shutdown", "metrics", "tail",
                                    "health"))
    def test_parse_control_ops(self, op):
        req = parse_request(json.dumps({"id": "a", "op": op}))
        assert req.op == op and req.queries == ()

    def test_parse_tail_n(self):
        req = parse_request(json.dumps({"id": 1, "op": "tail",
                                        "n": 5}))
        assert req.n == 5
        assert parse_request(
            json.dumps({"id": 1, "op": "tail"})).n is None

    @pytest.mark.parametrize("n", (0, -1, 513, True, "five", 2.5))
    def test_tail_n_out_of_bounds_rejected(self, n):
        with pytest.raises(ProtocolError, match="n must be"):
            parse_request(json.dumps({"id": 1, "op": "tail", "n": n}))

    def test_bytes_input_accepted(self):
        req = parse_request(b'{"id": 1, "op": "ping"}')
        assert req.op == "ping"

    @pytest.mark.parametrize("line, match", (
        ("nonsense", "not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
        ('{"id": 1, "op": "teleport"}', "unknown op"),
        ('{"id": null, "op": "ping"}', "id must be"),
        ('{"id": true, "op": "ping"}', "id must be"),
        ('{"id": 1, "op": "select"}', "non-empty queries"),
        ('{"id": 1, "op": "select", "queries": []}',
         "non-empty queries"),
        ('{"id": 1, "op": "select", "queries": [5]}',
         "must be a JSON object"),
        ('{"id": 1, "op": "select", "queries": [{"nodes": 2}]}',
         "missing key"),
        # The column pass trips on row 3 first; the error still names
        # the first bad row in row order.
        ('{"id": 1, "op": "select", "queries": ['
         '{"collective": "allgather", "nodes": 2, "msg_size": 64}, '
         + ", ".join(['{"collective": "allgather", "nodes": 2, '
                      '"ppn": 8, "msg_size": 64}'] * 2)
         + ', [1, 2]]}', r"^queries\[0\] missing key\(s\): ppn$"),
        ('{"id": 1, "op": "select", "queries": ['
         '{"collective": "allgather", "nodes": 2, "ppn": 8, '
         '"msg_size": 64}, "row", {"nodes": 2}]}',
         r"^queries\[1\] must be a JSON object, got str$"),
        ('{"id": 1, "op": "ping", "deadline_ms": 0}',
         "deadline_ms"),
        ('{"id": 1, "op": "ping", "deadline_ms": -3}',
         "deadline_ms"),
        ('{"id": 1, "op": "ping", "deadline_ms": true}',
         "deadline_ms"),
    ))
    def test_malformed_requests_rejected(self, line, match):
        with pytest.raises(ProtocolError, match=match):
            parse_request(line)

    @pytest.mark.parametrize("token, match", [
        ("NaN", "finite positive"),
        ("Infinity", "finite positive"),
        ("1e400", "finite positive"),  # overflows to infinity
        ("1" + "0" * 400, "finite positive"),  # an int past float range
        ("1" * 5000, "not valid JSON"),  # past the int digit limit
    ], ids=["NaN", "Infinity", "1e400", "400-digit-int", "5000-digit-int"])
    def test_non_finite_deadline_rejected(self, token, match):
        """``json.loads`` parses the first three to non-finite floats,
        and a select carrying one ran with no deadline at all."""
        line = ('{"id": 1, "op": "select", "deadline_ms": %s, "queries": '
                '[{"collective": "allgather", "nodes": 2, "ppn": 8, '
                '"msg_size": 64}]}' % token)
        with pytest.raises(ProtocolError, match=match):
            parse_request(line)

    def test_batch_cap_enforced(self):
        queries = [{"collective": "allgather", "nodes": 2, "ppn": 8,
                    "msg_size": 1}] * 3
        line = json.dumps({"id": 1, "op": "select",
                           "queries": queries})
        assert len(parse_request(line, max_batch=3).queries) == 3
        with pytest.raises(ProtocolError, match="exceeds max_batch"):
            parse_request(line, max_batch=2)

    def test_oversized_line_rejected(self):
        line = '{"id": 1, "op": "ping", "pad": "' \
            + "x" * (1 << 20) + '"}'
        with pytest.raises(ProtocolError, match="exceeds"):
            parse_request(line)

    def test_semantic_junk_passes_parsing(self):
        # Junk *values* are the service's problem (invalid decisions),
        # not the protocol's.
        req = parse_request(json.dumps({
            "id": 1, "op": "select",
            "queries": [{"collective": "nope", "nodes": -2,
                         "ppn": "eight", "msg_size": None}]}))
        assert req.queries[0].nodes == -2

    def test_encode_is_deterministic_jsonl(self):
        payload = ok_response(3, b="2", a=1)
        assert encode(payload) == encode(dict(reversed(
            list(payload.items()))))
        assert encode(payload).endswith(b"\n")

    def test_error_response_shape(self):
        resp = error_response(9, "overloaded", "busy")
        assert resp["ok"] is False
        assert resp["error"] == {"code": "overloaded",
                                 "detail": "busy"}
        with pytest.raises(ValueError, match="unknown error code"):
            error_response(9, "weird", "x")


# ---------------------------------------------------------------------------
# SnapshotStore (hot-reload)
# ---------------------------------------------------------------------------

class TestSnapshotStore:
    def test_boot_from_bundle(self, ri_spec, tiny_bundle):
        store = SnapshotStore(ri_spec, tiny_bundle)
        snapshot, error = store.boot()
        assert error is None
        assert snapshot.source == "bundle"
        assert snapshot.version == 1
        assert snapshot.checksum == file_crc32(tiny_bundle)
        assert store.current() is snapshot

    def test_boot_fallback_on_missing_bundle(self, ri_spec, tmp_path):
        store = SnapshotStore(ri_spec, tmp_path / "nope.json")
        snapshot, error = store.boot()
        assert error is not None and "FileNotFoundError" in error
        assert snapshot.source == "heuristic-floor"

    def test_boot_fallback_on_corrupt_bundle(self, ri_spec, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"broken')
        store = SnapshotStore(ri_spec, bad)
        snapshot, error = store.boot()
        assert error is not None and "Corrupt" in error
        assert snapshot.source == "heuristic-floor"

    def test_poll_unchanged_is_noop(self, ri_spec, tiny_bundle):
        store = SnapshotStore(ri_spec, tiny_bundle)
        first, _ = store.boot()
        result = store.poll()
        assert result.status == "unchanged"
        assert store.current() is first

    def test_poll_swaps_on_changed_checksum(self, ri_spec,
                                            tiny_selector, tmp_path,
                                            mini_dataset):
        bundle = tmp_path / "b.json"
        save_selector(tiny_selector, bundle)
        store = SnapshotStore(ri_spec, bundle)
        first, _ = store.boot()
        other = PretrainedSelector({
            coll: train_model(mini_dataset, coll, seed=1,
                              params={"n_estimators": 4})
            for coll in CHAOS_COLLECTIVES})
        save_selector(other, bundle)
        result = store.poll()
        assert result.status == "reloaded"
        current = store.current()
        assert current is not first
        assert current.version == first.version + 1
        assert current.checksum == file_crc32(bundle)
        # In-flight holders of the old snapshot still work: nothing in
        # it was mutated.
        assert first.service.select_batch([]) == []

    def test_reload_rejects_corrupt_and_rolls_back(self, ri_spec,
                                                   tiny_selector,
                                                   tmp_path):
        bundle = tmp_path / "b.json"
        save_selector(tiny_selector, bundle)
        store = SnapshotStore(ri_spec, bundle)
        first, _ = store.boot()
        atomic_write_text(bundle, '{"broken')
        result = store.reload()
        assert result.status == "rejected"
        assert "Corrupt" in result.detail
        assert store.current() is first  # rollback: old keeps serving
        # And a later valid write recovers.  (The re-write is
        # byte-identical to the *serving* snapshot, so poll() treats
        # it as unchanged — correct: the content reverted.  An
        # explicit reload still swaps.)
        save_selector(tiny_selector, bundle)
        assert store.poll().status == "unchanged"
        assert store.reload().status == "reloaded"

    def test_counters_accumulate_across_swaps(self, ri_spec,
                                              tiny_selector, tmp_path):
        from repro.serve import SelectionQuery

        bundle = tmp_path / "b.json"
        save_selector(tiny_selector, bundle)
        store = SnapshotStore(ri_spec, bundle)
        store.boot()
        query = SelectionQuery("allgather", 2, 8, 4096)
        store.current().service.select_batch([query])
        save_selector(tiny_selector, bundle)  # same content, new file
        store.reload()
        store.current().service.select_batch([query])
        assert store.registry.counters()["serve.queries"] == 2


# ---------------------------------------------------------------------------
# Daemon boot: locks, sentinels, quarantine
# ---------------------------------------------------------------------------

def _config(ri_spec, tmp_path, bundle, **overrides):
    defaults = dict(
        spec=ri_spec,
        socket_path=tmp_path / "d.sock",
        state_dir=tmp_path / "state",
        bundle=bundle,
        ready_file=tmp_path / "ready.json",
        reload_poll_s=0.05,
        drain_timeout_s=2.0,
    )
    defaults.update(overrides)
    return DaemonConfig(**defaults)


class TestDaemonBoot:
    def test_recovers_stale_lock_of_dead_pid(self, ri_spec, tmp_path,
                                             tiny_bundle):
        state = tmp_path / "state"
        state.mkdir()
        # A plausible-but-dead PID: our own PID is live, so take a
        # PID from a child that has already been reaped.
        dead_pid = _reaped_child_pid()
        (state / "daemon.lock").write_text(json.dumps(
            {"pid": dead_pid, "acquired_at": 0.0}))
        daemon = SelectionDaemon(_config(ri_spec, tmp_path,
                                         tiny_bundle))
        daemon.boot()
        try:
            assert daemon.counters["crash_recovered"] == 1
            assert daemon.counters["quarantined_boot"] == 0
            assert daemon.store.current().source == "bundle"
        finally:
            daemon._cleanup()

    def test_live_owner_blocks_second_boot(self, ri_spec, tmp_path,
                                           tiny_bundle):
        from repro.core.resilience import LockTimeoutError

        first = SelectionDaemon(_config(ri_spec, tmp_path,
                                        tiny_bundle))
        first.boot()
        try:
            second = SelectionDaemon(_config(
                ri_spec, tmp_path, tiny_bundle, lock_timeout_s=0.2))
            with pytest.raises(LockTimeoutError):
                second.boot()
        finally:
            first._cleanup()

    def test_corrupt_bundle_quarantined_at_boot(self, ri_spec,
                                                tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"broken')
        daemon = SelectionDaemon(_config(ri_spec, tmp_path, bad))
        daemon.boot()
        try:
            assert daemon.store.current().source == "heuristic-floor"
            assert daemon.counters["boot_fallback"] == 1
            assert daemon.counters["quarantined_boot"] == 1
            assert not bad.exists()
            assert (tmp_path / "bad.json.corrupt").exists()
        finally:
            daemon._cleanup()

    def test_boot_sentinel_quarantines_killer_bundle(
            self, ri_spec, tiny_selector, tmp_path):
        # Simulate a daemon that died *during* boot on this exact
        # bundle: the sentinel survives, so the next boot quarantines
        # the artifact instead of crash-looping on it.
        bundle = tmp_path / "b.json"
        save_selector(tiny_selector, bundle)
        state = tmp_path / "state"
        state.mkdir()
        (state / "boot.json").write_text(json.dumps({
            "pid": 999999, "bundle": str(bundle),
            "checksum": file_crc32(bundle)}))
        daemon = SelectionDaemon(_config(ri_spec, tmp_path, bundle))
        daemon.boot()
        try:
            assert daemon.counters["quarantined_boot"] == 1
            assert not bundle.exists()
            assert daemon.store.current().source == "heuristic-floor"
            # Sentinel consumed; no stale state left for next boot.
            assert not (state / "boot.json").exists()
        finally:
            daemon._cleanup()

    def test_boot_sentinel_ignored_when_bundle_changed(
            self, ri_spec, tiny_selector, tmp_path):
        bundle = tmp_path / "b.json"
        save_selector(tiny_selector, bundle)
        state = tmp_path / "state"
        state.mkdir()
        (state / "boot.json").write_text(json.dumps({
            "pid": 999999, "bundle": str(bundle),
            "checksum": "crc32:deadbeef"}))  # a different artifact
        daemon = SelectionDaemon(_config(ri_spec, tmp_path, bundle))
        daemon.boot()
        try:
            assert daemon.counters["quarantined_boot"] == 0
            assert daemon.store.current().source == "bundle"
        finally:
            daemon._cleanup()


def _reaped_child_pid() -> int:
    """A PID that existed moments ago and is guaranteed dead now."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


# ---------------------------------------------------------------------------
# End-to-end over a real Unix socket (in-process daemon thread)
# ---------------------------------------------------------------------------

@pytest.fixture()
def running_daemon(fresh_registry, ri_spec, tmp_path, tiny_bundle):
    daemon = SelectionDaemon(_config(ri_spec, tmp_path, tiny_bundle))
    daemon.boot()
    thread = threading.Thread(target=daemon.run, name="daemon")
    thread.start()
    deadline = time.monotonic() + 30.0
    while not daemon.config.ready_file.exists():
        assert thread.is_alive(), "daemon died before ready"
        assert time.monotonic() < deadline, "daemon never ready"
        time.sleep(0.01)
    yield daemon
    if thread.is_alive():
        try:
            with DaemonClient(daemon.config.socket_path) as client:
                client.shutdown()
        except OSError:
            pass
        thread.join(timeout=30.0)
    assert not thread.is_alive()


VALID = [{"collective": "allgather", "nodes": 2, "ppn": 8,
          "msg_size": 4096},
         {"collective": "alltoall", "nodes": 2, "ppn": 4,
          "msg_size": 512}]


class TestDaemonEndToEnd:
    def test_ping_stats_select_roundtrip(self, running_daemon):
        with DaemonClient(running_daemon.config.socket_path) as client:
            pong = client.ping()
            assert pong["protocol"] == 2 and not pong["draining"]

            response = client.select(VALID)
            decisions = response["decisions"]
            assert len(decisions) == 2
            for d in decisions:
                assert d["action"] != "invalid"
                assert isinstance(d["algorithm"], str)
            assert response["snapshot"] == 1
            assert "degraded" not in response

            stats = client.stats()
            counters = stats["counters"]
            assert stats["snapshot"]["source"] == "bundle"
            assert counters["serve.daemon.ok"] >= 2
            # Partition invariant holds at every observation.
            partition = sum(
                counters[f"serve.daemon.{k}"]
                for k in DAEMON_COUNTER_KEYS if k != "requests")
            assert partition == counters["serve.daemon.requests"]

    def test_metrics_scrape_is_partition_consistent(
            self, running_daemon):
        from repro.obs.expo import parse_prometheus

        with DaemonClient(running_daemon.config.socket_path) as client:
            client.select(VALID)
            client.ping()
            scrape = client.metrics()
            assert scrape["format"] == "prometheus/0.0.4"
            samples = parse_prometheus(scrape["body"])
        requests = samples["pml_serve_daemon_requests_total"]
        assert requests >= 2
        terminals = sum(
            samples[f"pml_serve_daemon_{k}_total"]
            for k in DAEMON_COUNTER_KEYS if k != "requests")
        # The exposition renders before the scrape's own accounting,
        # so the partition reconciles inside the scrape itself.
        assert terminals == requests
        assert 'pml_serve_daemon_request_s_bucket{le="+Inf"}' \
            in samples

    def test_tail_returns_bounded_recent_events(self, running_daemon):
        from repro.obs.live import EVENT_KINDS

        with DaemonClient(running_daemon.config.socket_path) as client:
            client.select(VALID)
            client.select(VALID)
            tail = client.tail()
            assert tail["capacity"] \
                == running_daemon.config.recorder_capacity
            events = tail["events"]
            assert 0 < len(events) <= 32
            assert tail["total"] >= len(events)
            # Far under capacity, so nothing has been evicted yet.
            assert tail["dropped"] == 0
            for event in events:
                assert event["kind"] in EVENT_KINDS
                assert isinstance(event["tick"], int)
            # Boot marker first, then the served requests.
            assert events[0]["kind"] == "lifecycle"
            assert any(e["kind"] == "request"
                       and e["op"] == "select" for e in events)
            assert len(client.tail(1)["events"]) == 1

    def test_tail_n_rejected_over_the_wire(self, running_daemon):
        with DaemonClient(running_daemon.config.socket_path) as client:
            with pytest.raises(DaemonError) as err:
                client.tail(0)
            assert err.value.code == "bad-request"
            client.ping()  # connection survives

    def test_health_reports_verdict_and_percentiles(
            self, running_daemon):
        with DaemonClient(running_daemon.config.socket_path) as client:
            client.select(VALID)
            health = client.health()
        assert health["verdict"] == "ok"
        assert health["snapshot"] == 1
        assert health["draining"] is False
        assert health["breaker"] == "closed"
        names = [slo["name"] for slo in health["slos"]]
        assert names == ["daemon-request-latency",
                         "daemon-availability"]
        for slo in health["slos"]:
            assert slo["verdict"] in ("ok", "warn", "page")
            assert slo["windows"]
        request_s = health["request_s"]
        assert request_s["count"] >= 1
        assert 0.0 <= request_s["p50"] <= request_s["p95"] \
            <= request_s["p99"]

    def test_introspection_answered_while_draining(
            self, running_daemon):
        with DaemonClient(running_daemon.config.socket_path) as client:
            client.select(VALID)
            running_daemon._draining = True
            try:
                assert "body" in client.metrics()
                assert client.tail()["events"]
                health = client.health()
                assert health["draining"] is True
                with pytest.raises(DaemonError) as err:
                    client.select(VALID)
                assert err.value.code == "draining"
            finally:
                running_daemon._draining = False

    def test_top_once_renders_live_frame(self, running_daemon):
        import io

        from repro.serve.top import poll_once, render_panel, run_top

        with DaemonClient(running_daemon.config.socket_path) as client:
            client.select(VALID)
        out = io.StringIO()
        assert run_top(str(running_daemon.config.socket_path),
                       once=True, out=out) == 0
        frame = out.getvalue()
        assert "pml-mpi top — serving" in frame
        assert "health: OK" in frame
        assert "flight recorder:" in frame
        assert "daemon-availability" in frame
        # A second observation gives the renderer a request rate.
        first = poll_once(str(running_daemon.config.socket_path))
        with DaemonClient(running_daemon.config.socket_path) as client:
            client.select(VALID)
        second = poll_once(str(running_daemon.config.socket_path))
        panel = render_panel(second, previous=first, elapsed_s=2.0)
        assert "/s" in panel and "n/a" not in panel

    def test_semantic_junk_becomes_invalid_decisions(
            self, running_daemon):
        with DaemonClient(running_daemon.config.socket_path) as client:
            response = client.select([
                {"collective": "allgather", "nodes": 2, "ppn": 8,
                 "msg_size": -5},
                {"collective": "no_such", "nodes": 2, "ppn": 8,
                 "msg_size": 64},
                VALID[0]])
            actions = [d["action"] for d in response["decisions"]]
            assert actions[0] == "invalid" and actions[1] == "invalid"
            assert actions[2] != "invalid"
            assert response["decisions"][0]["algorithm"] is None

    def test_junk_echo_reply_is_canonical_json(self, running_daemon):
        """The reply is written from the decision columns; through the
        socket it is still exactly the canonical ``json.dumps`` of
        itself, junk echoes included."""
        queries = [
            {"collective": "allgäther", "nodes": 2, "ppn": 8,
             "msg_size": 64},
            {"collective": "allgather", "nodes": 2.5, "ppn": 8,
             "msg_size": 64},
            {"collective": "allgather", "nodes": 2, "ppn": 8,
             "msg_size": {"z": 1, "a": [0.5, None]}},
            {"collective": "allgather", "nodes": 2, "ppn": 8,
             "msg_size": 10 ** 29},
            VALID[0]]
        with DaemonClient(running_daemon.config.socket_path) as client:
            client._file.write(json.dumps(
                {"id": "j", "op": "select", "queries": queries},
                ensure_ascii=False).encode("utf-8") + b"\n")
            client._file.flush()
            line = client._file.readline()
        reply = json.loads(line)
        assert line.decode("utf-8") == json.dumps(
            reply, sort_keys=True, separators=(",", ":")) + "\n"
        assert [d["action"] for d in reply["decisions"]][:4] == \
            ["invalid"] * 4
        assert [d["msg_size"] for d in reply["decisions"]] == \
            [q["msg_size"] for q in queries]

    def test_protocol_garbage_answered_not_fatal(self, running_daemon):
        with DaemonClient(running_daemon.config.socket_path) as client:
            client._file.write(b'{"id": 1, "op": "warp"}\n')
            client._file.flush()
            answer = json.loads(client._file.readline())
            assert answer["ok"] is False
            assert answer["error"]["code"] == "bad-request"

    def test_deadline_degrades_to_floor(self, running_daemon):
        # Make the model path deterministically slower than the
        # deadline; the floor must answer instead, within the same
        # snapshot, and the response says so.
        service = running_daemon.store.current().service
        original = service.select_block

        def slow_select_block(records):
            time.sleep(0.3)
            return original(records)

        service.select_block = slow_select_block
        try:
            with DaemonClient(
                    running_daemon.config.socket_path) as client:
                response = client.select(VALID, deadline_ms=30)
                assert response["degraded"] == "deadline-floor"
                assert len(response["decisions"]) == 2
                for d in response["decisions"]:
                    assert isinstance(d["algorithm"], str)
        finally:
            service.select_block = original
        assert running_daemon.counters["deadline_floor"] >= 1
        # Each floor answer is the MVAPICH ladder on the quantized key.
        floor = GuardedSelector(MvapichDefaultSelector())
        for q, d in zip(VALID, response["decisions"]):
            want = floor.explain(
                q["collective"],
                Machine(running_daemon.config.spec, q["nodes"], q["ppn"]),
                quantize_msg_size(q["msg_size"]))
            assert (d["algorithm"], d["action"], d["detail"]) == \
                (want.algorithm, want.action, want.detail), q

    def test_deadline_misses_never_shed(self, running_daemon):
        """Consecutive deadline misses each degrade to the floor; none
        sheds a later request (the in-flight cap is the one overload
        control)."""
        service = running_daemon.store.current().service
        original = service.select_block

        def slow_select_block(records):
            time.sleep(0.3)
            return original(records)

        service.select_block = slow_select_block
        try:
            with DaemonClient(
                    running_daemon.config.socket_path) as client:
                degraded = [client.select(VALID, deadline_ms=30)
                            .get("degraded") for _ in range(10)]
        finally:
            service.select_block = original
        assert degraded == ["deadline-floor"] * 10
        assert running_daemon.counters["overloaded"] == 0

    def test_breaker_field_is_the_serving_guards(self, running_daemon):
        breaker = running_daemon.store.current().service.guard.breaker
        with DaemonClient(running_daemon.config.socket_path) as client:
            assert client.health()["breaker"] == "closed"
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            assert client.health()["breaker"] == "open"
            assert client.stats()["breaker"] == "open"

    def test_overload_sheds_with_typed_error(self, ri_spec, tmp_path,
                                             tiny_bundle):
        daemon = SelectionDaemon(_config(
            ri_spec, tmp_path, tiny_bundle, max_inflight=0))
        daemon.boot()
        thread = threading.Thread(target=daemon.run)
        thread.start()
        try:
            while not daemon.config.ready_file.exists():
                time.sleep(0.01)
            with DaemonClient(daemon.config.socket_path) as client:
                with pytest.raises(DaemonError) as err:
                    client.select(VALID)
                assert err.value.code == "overloaded"
                client.ping()  # control ops still answered
            assert daemon.counters["overloaded"] == 1
        finally:
            with DaemonClient(daemon.config.socket_path) as client:
                client.shutdown()
            thread.join(timeout=30.0)

    def test_hot_reload_via_op_and_drain(self, ri_spec, tmp_path,
                                         tiny_selector, mini_dataset):
        bundle = tmp_path / "b.json"
        save_selector(tiny_selector, bundle)
        daemon = SelectionDaemon(_config(
            ri_spec, tmp_path, bundle,
            reload_poll_s=3600.0))  # poller quiet: test the op
        daemon.boot()
        thread = threading.Thread(target=daemon.run)
        thread.start()
        try:
            while not daemon.config.ready_file.exists():
                time.sleep(0.01)
            other = PretrainedSelector({
                coll: train_model(mini_dataset, coll, seed=2,
                                  params={"n_estimators": 4})
                for coll in CHAOS_COLLECTIVES})
            save_selector(other, bundle)
            with DaemonClient(daemon.config.socket_path) as client:
                result = client.reload()
                assert result["status"] == "reloaded"
                assert client.ping()["snapshot"] == 2

                # Corrupt swap: rejected, old snapshot keeps serving.
                atomic_write_text(bundle, '{"broken')
                result = client.reload()
                assert result["status"] == "rejected"
                assert client.ping()["snapshot"] == 2
                assert client.select(VALID)["snapshot"] == 2

                # Requests that arrive while draining get the typed
                # error.  (Flip the flag without the drain event so
                # the socket stays up for the assertion; after a real
                # shutdown the connection is torn down too fast to
                # observe the response deterministically.)
                daemon._draining = True
                try:
                    with pytest.raises(DaemonError) as err:
                        client.select(VALID)
                    assert err.value.code == "draining"
                    with pytest.raises(DaemonError) as err:
                        client.reload()
                    assert err.value.code == "draining"
                finally:
                    daemon._draining = False

                shutdown = client.shutdown()
                assert shutdown["draining"] is True
        finally:
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert not daemon.config.socket_path.exists()
        assert not daemon.config.ready_file.exists()
        assert not daemon.lock_path.exists()
