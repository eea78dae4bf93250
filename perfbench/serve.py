"""The ``serve_sweep`` and ``serve_reload`` workloads.

Both drive a real ``pml-mpi serve Ray --bundle ...`` daemon with its
shipped defaults, from outside, over its Unix socket.  The load
generator is this single process: at most two threads and two
connections.  Request streams are generated from the seed and
serialized before any timing; replies are kept raw while timing and
verified afterwards against the scalar guard ladder.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import random
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    ACCOUNTING_TOLERANCE,
    WORK,
    GateError,
    ROOT,
    child_env,
    clock,
    cpu_seconds,
    median,
    peak_rss_mb,
    rel,
    source_digest,
    stop_process,
    tail,
)
from spans import intervals, self_times

HERE = Path(__file__).resolve().parent
CLUSTER = "Ray"
COLLECTIVES = ("allgather", "alltoall")
#: Daemon boots per run: one serves the traffic, the rest only add
#: set-up samples.
BOOTS = 5

# -- serve_sweep: build-farm traffic, closed loop -------------------------
SWEEP_CONNECTIONS = 2
SWEEP_QUERIES = 512
#: Distinct requests in the pre-built stream; each connection walks its
#: half in order and wraps around.  262k queries per pass keep the
#: reuse distance of a key far beyond the daemon's 4096-key memo.
SWEEP_POOL = 512
SWEEP_OOD = 0.05
SWEEP_INVALID = 0.01
#: Warm-up lasts at least this long, and until no reply was degraded
#: or failed for a second (the first model batch is slow), but ends in
#: time for the window to close this long before the guard breaker,
#: opened during the first batches, may recover (see METRICS.md).
SWEEP_WARMUP_S = 3.0
BREAKER_MARGIN_S = 2.0
#: Distinct keys needing the model-path oracle are verified on this
#: fixed hash sample (1 in N); every other row is verified in full.
SWEEP_ORACLE_SAMPLE = 8

# -- serve_reload: MPI jobs beside model promotion, open loop -------------
RELOAD_RATE = 200.0
RELOAD_QUERIES = 16
RELOAD_EVERY_S = 5.0
RELOAD_WARMUP_S = 2.0
RELOAD_MAX_K = 20

TAIL_BYTES = 160
INVALID_COLLECTIVES = ("allgatherx", "no_such_collective")


# ---------------------------------------------------------------------------
# Untimed preparation: the dataset and bundles A/B
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    bundle_a: Path
    bundle_b: Path
    #: (collective, nodes, ppn, msg) -> {algorithm: seconds}
    times: dict


def prepare() -> Prepared:
    """Collect RI+Ray (allgather, alltoall) and train bundle A (seed 0)
    and bundle B (seed 1) on the random split's 70 % part.  Cached in
    the checkout, keyed by the program's source digest."""
    from repro.core.bundle import save_selector
    from repro.core.dataset import collect_dataset
    from repro.core.framework import offline_train
    from repro.core.splits import split_dataset
    from repro.hwmodel import get_cluster

    prep = WORK / f"prep-{source_digest()}"
    prep.mkdir(parents=True, exist_ok=True)
    bundles = [prep / "bundle_A.json", prep / "bundle_B.json"]
    ds = collect_dataset([get_cluster("RI"), get_cluster(CLUSTER)],
                         collectives=COLLECTIVES, cache_dir=prep)
    if not all(b.exists() for b in bundles):
        train, _ = split_dataset(ds, "random", seed=0)
        for seed, path in enumerate(bundles):
            tmp = path.with_suffix(".partial")
            save_selector(offline_train(train, collectives=COLLECTIVES,
                                        seed=seed), tmp)
            os.replace(tmp, path)
    times = {(r.collective, r.nodes, r.ppn, r.msg_size): dict(r.times)
             for r in ds.records if r.cluster == CLUSTER}
    return Prepared(bundles[0], bundles[1], times)


# ---------------------------------------------------------------------------
# Request streams (built and serialized before timing)
# ---------------------------------------------------------------------------

def _query(c: str, n: int, p: int, m: int) -> str:
    return (f'{{"collective":"{c}","msg_size":{m},"nodes":{n},'
            f'"ppn":{p}}}')


def _request(req_id: int, queries: list[str]) -> bytes:
    return (f'{{"id":{req_id},"op":"select","queries":['
            + ",".join(queries) + "]}\n").encode()


def sweep_stream(seed: int) -> list[bytes]:
    """Uniform in-envelope keys (nodes 1-8, ppn 2-32, msg 2^e+U[0,2^e),
    e in 0..21, both collectives), ~5 % out of envelope (ppn 33-160)
    and ~1 % invalid under any wire contract."""
    rng = random.Random(seed)
    pool = []
    for i in range(SWEEP_POOL):
        qs = []
        for _ in range(SWEEP_QUERIES):
            c = COLLECTIVES[rng.getrandbits(1)]
            e = rng.randint(0, 21)
            m = (1 << e) + rng.randrange(1 << e)
            n = rng.randint(1, 8)
            u = rng.random()
            if u < SWEEP_INVALID:
                kind = rng.randrange(6)
                if kind == 0:
                    n = rng.choice((0, -rng.randint(1, 9)))
                elif kind == 1:
                    n = rng.randint(9, 64)
                elif kind == 2:
                    p = rng.choice((0, -rng.randint(1, 9)))
                    qs.append(_query(c, n, p, m))
                    continue
                elif kind == 3:
                    qs.append(_query(c, n, rng.randint(161, 999), m))
                    continue
                elif kind == 4:
                    m = rng.choice((0, -rng.randint(1, 1 << 20)))
                else:
                    c = rng.choice(INVALID_COLLECTIVES)
                p = rng.randint(2, 32)
            elif u < SWEEP_INVALID + SWEEP_OOD:
                p = rng.randint(33, 160)
            else:
                p = rng.randint(2, 32)
            qs.append(_query(c, n, p, m))
        pool.append(_request(i, qs))
    return pool


def reload_stream(seed: int, count: int) -> list[bytes]:
    """Ray's 12 grid job shapes under Zipf weights (a seeded rank
    order), both collectives, msg 2^k plus an offset below 2^k/16
    (k in 0..20) — about 500 quantized keys."""
    from repro.hwmodel import get_cluster

    spec = get_cluster(CLUSTER)
    rng = random.Random(seed)
    shapes = [(n, p) for n in spec.node_counts for p in spec.ppn_values]
    rng.shuffle(shapes)
    weights = [1.0 / (rank + 1) for rank in range(len(shapes))]
    pool = []
    for i in range(count):
        qs = []
        for n, p in rng.choices(shapes, weights, k=RELOAD_QUERIES):
            k = rng.randint(0, RELOAD_MAX_K)
            m = (1 << k) + rng.randrange(max(1, (1 << k) >> 4))
            qs.append(_query(COLLECTIVES[rng.getrandbits(1)], n, p, m))
        pool.append(_request(i, qs))
    return pool


def digest(pool: list[bytes]) -> str:
    h = hashlib.sha256()
    for line in pool:
        h.update(line)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Daemon lifecycle
# ---------------------------------------------------------------------------

class Daemon:
    """One ``pml-mpi serve`` process in a fresh state dir, default
    flags only.  ``t_spawn`` .. ``t_ready`` is spawn -> ready file
    written (the set-up time)."""

    def __init__(self, work: Path, bundle: Path, tag: str,
                 spans_out: Path | None = None) -> None:
        self.state = work / f"state-{tag}"
        self.ready = work / f"ready-{tag}.json"
        self.socket = rel(self.state / "daemon.sock")
        self.log = work / f"daemon-{tag}.log"
        self.spans_out = spans_out
        argv = ["serve", CLUSTER, "--bundle", rel(bundle),
                "--state-dir", rel(self.state),
                "--ready-file", rel(self.ready)]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *argv]
        else:
            cmd = [sys.executable, rel(HERE / "launcher.py"),
                   rel(spans_out), *argv,
                   "--trace", rel(work / f"trace-{tag}.jsonl")]
        with open(self.log, "wb") as log:
            t0 = clock()
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                         stdout=log, stderr=log)
        while not self.ready.exists():
            if self.proc.poll() is not None:
                raise GateError(f"daemon exited {self.proc.returncode} "
                                f"during boot: {self._log_tail()}")
            if clock() - t0 > 60.0:
                self.kill()
                raise GateError("daemon not ready after 60 s")
            time.sleep(0.002)
        self.t_spawn, self.t_ready = t0, clock()
        self.version = json.loads(self.ready.read_text())["snapshot"]

    def _log_tail(self) -> str:
        try:
            return self.log.read_text()[-800:]
        except OSError:
            return ""

    def connect(self) -> socket.socket:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(30.0)
        s.connect(self.socket)
        return s

    def shutdown(self) -> None:
        """Graceful drain via SIGTERM; the exit code must be 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        stop_process(self.proc)
        if self.proc.returncode != 0:
            raise GateError(f"daemon exited {self.proc.returncode}: "
                            f"{self._log_tail()}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def rpc(sock: socket.socket, reader, obj: dict) -> tuple[dict, float]:
    """One control request; returns (response, round-trip seconds)."""
    t0 = clock()
    sock.sendall(json.dumps(obj).encode() + b"\n")
    line = reader.readline()
    t1 = clock()
    if not line:
        raise GateError(f"daemon closed the connection on {obj['op']}")
    return json.loads(line), t1 - t0


def final_stats(daemon: Daemon) -> tuple[dict, list[str]]:
    """Counters after the load stops, with the partition checks."""
    with daemon.connect() as s, s.makefile("rb") as reader:
        stats, _ = rpc(s, reader, {"id": "stats", "op": "stats"})
    counters = stats.get("counters", {})
    problems = []
    terms = ("ok", "deadline_floor", "bad_request", "overloaded",
             "draining", "internal")
    total = sum(counters.get(f"serve.daemon.{k}", 0) for k in terms)
    if counters.get("serve.daemon.requests") != total:
        problems.append(f"serve.daemon.requests "
                        f"{counters.get('serve.daemon.requests')} != sum "
                        f"of terminal counters {total}")
    parts = sum(counters.get(f"serve.{k}", 0)
                for k in ("cache_hits", "deduped", "cache_misses"))
    if counters.get("serve.queries") != parts:
        problems.append(f"serve.queries {counters.get('serve.queries')} "
                        f"!= hits + deduped + misses {parts}")
    if counters.get("serve.daemon.internal", 0):
        problems.append("serve.daemon.internal is nonzero")
    return counters, problems


# ---------------------------------------------------------------------------
# Load generators
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    idx: int            # request id (its index in the stream)
    due: float          # send time (closed loop) or due time (open loop)
    sent: float
    done: float | None  # None: no reply (transport error)
    reply: bytes        # the raw reply line (window requests only)
    window: bool
    failed: bool = False  # set by verify()


def _bad(reply: bytes) -> bool:
    """Error response or deadline-floor answer (from the line's tail:
    ``degraded``/``id``/``ok``/``snapshot`` sort after ``decisions``)."""
    tail_ = reply[-TAIL_BYTES:]
    return b'"degraded"' in tail_ or b'"ok":false' in tail_


@dataclass
class Window:
    start: float = float("inf")
    end: float = float("inf")
    cpu: list = field(default_factory=list)


def sweep_load(daemon: Daemon, pool: list[bytes], seconds: float
               ) -> tuple[list[Sample], Window, float]:
    """Closed loop: each connection sends its next request only after
    the previous reply has been read in full.  Returns every request
    (warm-up ones without their reply), the window and the warm-up's
    length."""
    from repro.core.resilience import CircuitBreaker

    win = Window()
    samples: list[Sample] = []
    last_bad = [clock()]
    stop = threading.Event()
    errors: list[str] = []

    def client(k: int) -> None:
        try:
            with daemon.connect() as s, s.makefile("rb") as reader:
                i = k
                while not stop.is_set():
                    idx = i % len(pool)
                    i += SWEEP_CONNECTIONS
                    t0 = clock()
                    if t0 >= win.end:
                        break
                    s.sendall(pool[idx])
                    line = reader.readline()
                    t1 = clock()
                    in_window = t0 >= win.start
                    if not line or not in_window and _bad(line):
                        last_bad[0] = t1
                    samples.append(Sample(
                        idx, t0, t0, t1 if line else None,
                        line if in_window else b"", in_window))
                    if not line:
                        break
        except OSError as exc:
            errors.append(f"connection {k}: {exc}")

    cap = max(SWEEP_WARMUP_S, CircuitBreaker().recovery_timeout_s
              - BREAKER_MARGIN_S - seconds)
    threads = [threading.Thread(target=client, args=(k,))
               for k in range(SWEEP_CONNECTIONS)]
    t_begin = clock()
    for t in threads:
        t.start()
    while True:
        time.sleep(0.05)
        now = clock()
        settled = now - t_begin >= SWEEP_WARMUP_S \
            and now - last_bad[0] >= 1.0
        if settled or now - t_begin >= cap \
                or not any(t.is_alive() for t in threads):
            break
    win.cpu.append(cpu_seconds(daemon.proc.pid))
    win.start = clock()
    time.sleep(seconds)
    win.end = clock()
    win.cpu.append(cpu_seconds(daemon.proc.pid))
    for t in threads:
        t.join(timeout=60.0)
    stop.set()
    if any(t.is_alive() for t in threads):
        raise GateError("load generator thread did not finish")
    if errors:
        samples.append(Sample(-1, win.start, win.start, None, b"", True))
    return samples, win, win.start - t_begin


def reload_load(daemon: Daemon, pool: list[bytes], seconds: float,
                serving: Path, bundles: tuple[bytes, bytes]
                ) -> tuple[list[Sample], Window, list[dict]]:
    """Open loop at RELOAD_RATE with fixed spacing on one connection;
    the second connection hot-reloads every RELOAD_EVERY_S, swapping
    the served bundle file between A and B.  Returns every request
    (warm-up ones without their reply), the window and the reload
    ops."""
    win = Window()
    t_base = clock() + 0.05
    win.start = t_base + RELOAD_WARMUP_S
    win.end = win.start + seconds
    n_total = min(len(pool), int((win.end - t_base) * RELOAD_RATE))
    samples: list[Sample] = []
    reloads: list[dict] = []
    errors: list[str] = []

    def reloader() -> None:
        try:
            with daemon.connect() as s, s.makefile("rb") as reader:
                j = 0
                while True:
                    at = win.start + RELOAD_EVERY_S * (j + 0.5)
                    if at >= win.end:
                        break
                    time.sleep(max(0.0, at - clock()))
                    which = (j + 1) % 2
                    tmp = serving.with_suffix(".next")
                    tmp.write_bytes(bundles[which])
                    os.replace(tmp, serving)
                    resp, rtt = rpc(s, reader,
                                    {"id": f"reload-{j}", "op": "reload"})
                    reloads.append({"bundle": which, "rtt": rtt,
                                    "done": clock(), "response": resp})
                    j += 1
        except OSError as exc:
            errors.append(f"reloader: {exc}")

    rt = threading.Thread(target=reloader)
    with daemon.connect() as s:
        s.setblocking(False)
        sel = selectors.DefaultSelector()
        sel.register(s, selectors.EVENT_READ)
        pending: list[tuple[int, float, float]] = []
        head = 0
        buf = bytearray()
        k = 0
        rt.start()
        win.cpu.append(None)
        deadline = win.end + 30.0
        try:
            while k < n_total or head < len(pending):
                now = clock()
                if win.cpu[0] is None and now >= win.start:
                    win.cpu[0] = cpu_seconds(daemon.proc.pid)
                if k < n_total and now >= t_base + k / RELOAD_RATE:
                    due = t_base + k / RELOAD_RATE
                    sent = clock()
                    s.setblocking(True)
                    s.sendall(pool[k])
                    s.setblocking(False)
                    pending.append((k, due, sent))
                    k += 1
                    continue
                if now > deadline:
                    break
                wait = (t_base + k / RELOAD_RATE - now) if k < n_total \
                    else 0.5
                if sel.select(max(0.0, wait)):
                    try:
                        chunk = s.recv(1 << 20)
                    except BlockingIOError:
                        continue
                    if not chunk:
                        break
                    t_recv = clock()
                    buf += chunk
                    while True:
                        nl = buf.find(b"\n")
                        if nl < 0:
                            break
                        line = bytes(buf[:nl + 1])
                        del buf[:nl + 1]
                        idx, due, sent = pending[head]
                        head += 1
                        in_window = due >= win.start
                        samples.append(Sample(idx, due, sent, t_recv,
                                              line if in_window else b"",
                                              in_window))
        except OSError as exc:
            errors.append(f"open loop: {exc}")
        finally:
            sel.close()
    if win.cpu[0] is None:
        raise GateError(f"open loop ended before the window: {errors}")
    win.cpu.append(cpu_seconds(daemon.proc.pid))
    rt.join(timeout=60.0)
    if rt.is_alive():
        raise GateError("reloader thread did not finish")
    for idx, due, sent in pending[head:]:
        samples.append(Sample(idx, due, sent, None, b"", due >= win.start))
    if errors:
        samples.append(Sample(-1, win.start, win.start, None, b"", True))
    return samples, win, reloads


# ---------------------------------------------------------------------------
# Verification against the scalar guard ladder
# ---------------------------------------------------------------------------

def quantize(m):
    """Nearest power of two by log2 distance, rounding up from the
    geometric midpoint; anything but a positive int passes through."""
    if isinstance(m, bool) or not isinstance(m, int) or m <= 0:
        return m
    e = m.bit_length() - 1
    return 1 << (e + 1) if m * m >= 1 << (2 * e + 1) else 1 << e


class Oracle:
    """Scalar ``GuardedSelector.explain`` on one selector, with the
    breaker held closed (never trips) or held open."""

    def __init__(self, selector) -> None:
        from repro.core.resilience import CircuitBreaker
        from repro.hwmodel import get_cluster
        from repro.smpi.guard import GuardedSelector

        self.spec = get_cluster(CLUSTER)
        self.closed = GuardedSelector(
            selector, breaker=CircuitBreaker(failure_threshold=1 << 30))
        opened = CircuitBreaker(failure_threshold=1,
                                recovery_timeout_s=1e12)
        opened.record_failure()
        self.open = GuardedSelector(selector, breaker=opened)
        self.memo: dict = {}

    def expect(self, c, n, p, m, breaker: bool) -> tuple:
        key = (c, n, p, m, breaker)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        from repro.simcluster.machine import Machine
        from repro.smpi.heuristics import InvalidQueryError

        try:
            machine = Machine(self.spec, n, p)
            d = (self.open if breaker else self.closed).explain(c, machine,
                                                                m)
            out = (d.algorithm, d.action)
        except (TypeError, ValueError, InvalidQueryError):
            out = (None, "invalid")
        self.memo[key] = out
        return out


def _sampled(key: tuple, rate: int) -> bool:
    return rate <= 1 or zlib.crc32(repr(key).encode()) % rate == 0


BREAKER_ACTION = "breaker-fallback"
MODEL_ACTIONS = ("model", "remap")


@dataclass
class Checked:
    #: Window replies whose decisions were checked.
    replies: int = 0
    rows: int = 0
    verified: int = 0
    #: (bundle, quantized key, algorithm) -> regret, one entry per
    #: distinct served answer on a key the dataset measured.
    regrets: dict = field(default_factory=dict)
    #: Rows the daemon computed for the reply (not memo hits, whose
    #: action dates from when they were cached) per guard action, over
    #: the replies that are not degraded.
    computed_actions: dict = field(default_factory=dict)
    #: (reply time, decisions answered from outside the memo) per reply.
    uncached: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def fail(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)


def verify(samples: list[Sample], pool: list[bytes], oracles: dict,
           version_bundle, prep: Prepared, sample_rate: int) -> Checked:
    """Check every window reply: one decision per query, in order, each
    echoing its query; (algorithm, action) equal to the scalar ladder
    of the bundle its snapshot names (the heuristic floor for
    deadline-floor answers; the open-breaker ladder for
    breaker-fallback rows).  A reply whose answers equal those of an
    already verified reply to the same request from the same ladder is
    verified by that equality.  Marks failed requests, collects the
    regret of each distinct served answer whose key the collected
    dataset measured, and drops each reply once it is checked."""
    out = Checked()
    requests: dict[int, list] = {}
    verified: dict[tuple, tuple[list, int]] = {}
    for smp in samples:
        if not smp.window:
            continue
        reply, smp.reply = smp.reply, b""
        if smp.done is None:
            smp.failed = True
            continue
        try:
            resp = json.loads(reply)
        except ValueError:
            smp.failed = True
            out.fail(f"request {smp.idx}: reply is not JSON")
            continue
        if resp.get("id") != smp.idx:
            smp.failed = True
            out.fail(f"request {smp.idx}: reply id {resp.get('id')!r}")
            continue
        degraded = bool(resp.get("degraded"))
        if not resp.get("ok") or degraded:
            smp.failed = True
        if not resp.get("ok"):
            continue  # counted as failed, nothing to verify
        queries = requests.get(smp.idx)
        if queries is None:
            queries = requests[smp.idx] = json.loads(pool[smp.idx])[
                "queries"]
        decisions = resp.get("decisions", [])
        if len(decisions) != len(queries):
            out.fail(f"request {smp.idx}: {len(decisions)} decisions for "
                     f"{len(queries)} queries")
            continue
        out.replies += 1
        out.rows += len(decisions)
        answers = [(d.get("collective"), d.get("nodes"), d.get("ppn"),
                    d.get("msg_size"), d.get("algorithm"), d.get("action"))
                   for d in decisions]
        computed = [a[5] for a, d in zip(answers, decisions)
                    if not d.get("cached", True)]
        out.uncached.append((smp.done, len(computed)))
        if not degraded:
            for action in computed:
                out.computed_actions[action] = \
                    out.computed_actions.get(action, 0) + 1
        which = "floor" if degraded \
            else version_bundle(resp.get("snapshot"))
        prior = verified.get((smp.idx, which))
        if prior is not None and prior[0] == answers:
            out.verified += prior[1]
            continue
        oracle = oracles[which]
        ok = True
        checked = 0
        for q, a in zip(queries, answers):
            c, n, p, m = q["collective"], q["nodes"], q["ppn"], \
                q["msg_size"]
            if a[:4] != (c, n, p, m):
                out.fail(f"request {smp.idx}: decision out of order or "
                         f"not echoing its query {q}")
                ok = False
                break
            qm = quantize(m)
            got = a[4:]
            if got[1] in MODEL_ACTIONS and \
                    not _sampled((c, n, p, qm), sample_rate):
                pass
            else:
                want = oracle.expect(c, n, p, qm, got[1] == BREAKER_ACTION)
                checked += 1
                if got != want:
                    out.fail(f"request {smp.idx}: {q} served {got}, "
                             f"scalar ladder says {want}")
                    ok = False
            times = prep.times.get((c, n, p, qm))
            if times is not None and got[0] in times:
                out.regrets[(which, c, n, p, qm, got[0])] = \
                    times[got[0]] / min(times.values()) - 1.0
        out.verified += checked
        if ok:
            verified[(smp.idx, which)] = (answers, checked)
    return out


def regime_problems(actions: dict) -> list[str]:
    """The guard breaker must hold one state through the window: rows
    computed by the open breaker beside rows computed by the model mean
    it opened or recovered inside the window, and the window measured
    two different paths."""
    opened = actions.get(BREAKER_ACTION, 0)
    model = sum(actions.get(a, 0) for a in MODEL_ACTIONS)
    if opened and model:
        return [f"the guard breaker changed state inside the window: "
                f"{opened} breaker-fallback rows beside {model} "
                f"model/remap rows"]
    return []


# ---------------------------------------------------------------------------
# Per-layer figures from a traced daemon
# ---------------------------------------------------------------------------

#: Spans under these outermost spans build snapshots, not answers.
REQUEST_PATH_EXCLUDED = ("serve.reload.reload", "core.bundle.load")
UNCOVERED = "(uncovered: loop, thread hop, transport, queueing)"


def _on_path(rec: tuple) -> bool:
    """A span on the select path: not inside a snapshot build, and not
    serving a control op (control ops carry string ids)."""
    root = rec[4] if rec[4] is not None else rec[0]
    return root not in REQUEST_PATH_EXCLUDED and not isinstance(rec[6],
                                                                str)


def attribute(records: list[tuple], samples: list[Sample]
              ) -> tuple[dict[int, list], list[tuple]]:
    """Assign each select-path span to the request it served: the
    request whose id is the span's tag and whose send..reply interval
    holds the span's start.  Returns ({sample position: spans}, the
    spans no request holds)."""
    by_id: dict = {}
    for k, smp in enumerate(samples):
        if smp.done is not None:
            by_id.setdefault(smp.idx, []).append((smp.sent, smp.done, k))
    for spans in by_id.values():
        spans.sort()
    starts = {i: [x[0] for x in v] for i, v in by_id.items()}
    owned: dict[int, list] = {}
    stray = []
    for rec in records:
        if not _on_path(rec):
            continue
        cands = by_id.get(rec[6])
        if cands:
            j = bisect.bisect_right(starts[rec[6]], rec[1]) - 1
            if j >= 0 and rec[1] <= cands[j][1]:
                owned.setdefault(cands[j][2], []).append(rec)
                continue
        stray.append(rec)
    return owned, stray


def _counter_delta(snapshots: list, lo: float, hi: float) -> dict:
    before = {}
    after = {}
    for t, counters in snapshots:
        if t <= lo:
            before = counters
        if t <= hi:
            after = counters
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


def traced_figures(trace: dict, samples: list[Sample], win: Window
                   ) -> tuple[dict[str, float], list, list[str]]:
    """Per-layer metrics, layer shares and accounting problems of one
    traced run.  Each window request's spans come from attribution;
    per request, its layers' self times plus the time none of its
    outermost spans covers must add up to its latency (checked in
    total, with select-path work no request holds counted as error)."""
    records = [tuple(r) for r in trace["records"]]
    owned, stray = attribute(records, samples)
    done = [s.done for s in samples if s.window and s.done is not None]
    hi = max(done) if done else win.end
    problems = []
    leaked = overlapped = 0
    e2e = covered = uncovered = error = 0.0
    path: list[tuple] = []
    n = 0
    for k, smp in enumerate(samples):
        if not smp.window or smp.done is None:
            continue
        n += 1
        recs = owned.get(k, [])
        path += recs
        rtt = smp.done - smp.due
        total, union = intervals(recs)
        gap = rtt - union
        e2e += rtt
        covered += total
        uncovered += gap
        error += abs(sum(r[3] for r in recs) + gap - rtt)
        if smp.failed:
            continue  # a deadline-floor answer abandons its batch
        if any(r[2] > smp.done for r in recs):
            leaked += 1
        if total > smp.done - smp.sent:
            overlapped += 1
    stray_s = sum(r[3] for r in stray if win.start <= r[1] <= hi)
    error += stray_s
    if leaked:
        problems.append(f"{leaked} requests have spans that end after "
                        f"their reply was read")
    if overlapped:
        problems.append(f"{overlapped} requests have outermost spans "
                        f"covering more than their round trip")
    if error > ACCOUNTING_TOLERANCE * e2e:
        problems.append(f"layer self times + uncovered time miss the "
                        f"traced request time by {100 * error / e2e:.3f} % "
                        f"({1e3 * stray_s:.1f} ms of select-path spans no "
                        f"request holds; tolerance "
                        f"{100 * ACCOUNTING_TOLERANCE:g} %)")
    agg = self_times(path)
    builds = self_times([r for r in records if win.start <= r[1] <= hi])
    n = max(1, n)

    def get(layer: str, key: str = "self_s", rows=agg) -> float:
        return rows.get(layer, {}).get(key, 0.0)

    dc = _counter_delta(trace["snapshots"], win.start, hi)
    queries = dc.get("serve.queries", 0)
    guard_q = dc.get("guard.queries", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "serve.protocol.parse_ms": 1e3 * get("serve.protocol.parse") / n,
        "serve.protocol.encode_ms": 1e3 * get("serve.protocol.encode") / n,
        "serve.protocol.bytes_in": get("serve.protocol.parse", "amount") / n,
        "serve.protocol.bytes_out":
            get("serve.protocol.encode", "amount") / n,
        "serve.service.self_ms": 1e3 * (get("serve.service.select_block")
                                        + get("serve.service.to_dicts")) / n,
        "serve.service.lock_wait_ms":
            1e3 * get("serve.service.lock_wait") / n,
        "serve.cache.hit_ratio": ratio(dc.get("serve.cache_hits", 0),
                                       queries),
        "serve.service.dedup_ratio": ratio(dc.get("serve.deduped", 0),
                                           queries),
        "serve.cache.evictions": dc.get("serve.evictions", 0),
        "serve.service.invalid_ratio": ratio(dc.get("serve.invalid", 0),
                                             queries),
        "smpi.guard.self_ms": 1e3 * get("smpi.guard.explain_block") / n,
        "smpi.guard.model_ratio": ratio(dc.get("guard.served_model", 0),
                                        guard_q),
        "smpi.guard.ood_ratio": ratio(dc.get("guard.ood_fallback", 0),
                                      guard_q),
        "smpi.guard.remap_ratio": ratio(dc.get("guard.remapped", 0),
                                        guard_q),
        "smpi.guard.breaker_ratio": ratio(
            dc.get("guard.breaker_fallback", 0), guard_q),
        "core.features.block_ms":
            1e3 * get("core.features.feature_block") / n,
        "ml.tree.predict_ms": 1e3 * get("ml.tree.predict") / n,
        "ml.tree.rows": get("ml.tree.predict", "amount") / n,
        "simcluster.rounds": get("simcluster.round", "calls") / n,
        "simcluster.self_s": (get("simcluster")
                              + get("simcluster.round")) / n,
        "smpi.collectives.schedules": get("smpi.collectives", "calls") / n,
        "smpi.collectives.self_s": get("smpi.collectives") / n,
        "obs.self_ms": 1e3 * get("obs.record_request") / n,
        "serve.daemon.overhead_ms": 1e3 * uncovered / n,
        "serve.daemon.cpu_ms_per_request":
            1e3 * (win.cpu[-1] - win.cpu[0]) / n,
        "serve.reload.build_ms": 1e3 * ratio(
            get("serve.reload.reload", "total_s", builds),
            get("serve.reload.reload", "calls", builds)),
        "serve.reload.count": get("serve.reload.reload", "calls", builds),
        "core.bundle.load_s": ratio(
            get("core.bundle.load", "total_s", builds),
            get("core.bundle.load", "calls", builds)),
        "trace.e2e_ms": 1e3 * e2e / n,
        "trace.covered_ms": 1e3 * covered / n,
        "trace.uncovered_ms": 1e3 * uncovered / n,
        "trace.accounting_error_pct": 100.0 * error / e2e if e2e else 0.0,
    }
    for k in ("ok", "deadline_floor", "overloaded", "bad_request",
              "draining", "internal"):
        m[f"serve.daemon.{k}"] = dc.get(f"serve.daemon.{k}", 0)
    rows = sorted(((k, v["self_s"]) for k, v in agg.items()),
                  key=lambda kv: -kv[1])
    rows.append((UNCOVERED, uncovered))
    shares = [(k, v / e2e) for k, v in rows] if e2e else []
    return m, shares, problems


# ---------------------------------------------------------------------------
# One run of a serve workload
# ---------------------------------------------------------------------------

def _version_map(boot_version: int, reloads: list[dict]):
    """Snapshot version -> bundle index (0 = A, 1 = B).  Versions up to
    the boot version are A; the versions after one reload op's answer
    up to the next one's belong to the bundle that op swapped in (a
    checksum-poll reload racing the op only adds a version)."""
    marks = [(boot_version, 0)] + [
        (r["response"].get("version", boot_version), r["bundle"])
        for r in reloads]

    def lookup(version) -> int:
        for v, bundle in marks:
            if isinstance(version, int) and version <= v:
                return bundle
        return marks[-1][1]

    return lookup


def _post_reload_misses(uncached: list, reloads: list[dict]) -> float:
    """Mean memo misses (decisions answered ``cached: false``) in the
    replies received within 1 s after each reload completed."""
    if not reloads:
        return 0.0
    total = sum(n for r in reloads for done, n in uncached
                if r["done"] <= done < r["done"] + 1.0)
    return total / len(reloads)


def run_serve(workload: str, seed: int, seconds: float,
              traced: bool) -> dict:
    """Boot, drive, verify and shut down; returns the run's figures."""
    import shutil

    from repro.core.bundle import load_selector
    from repro.smpi.heuristics import MvapichDefaultSelector

    from common import fresh_dir, remove_dir

    prep = prepare()
    sweep = workload == "serve_sweep"
    if sweep:
        pool = sweep_stream(seed)
    else:
        pool = reload_stream(seed, int(RELOAD_RATE * (
            RELOAD_WARMUP_S + seconds + 1.0)))
    work = fresh_dir("serve-")
    daemon = None
    try:
        serving = work / "serve_bundle.json"
        shutil.copyfile(prep.bundle_a, serving)
        bundles = (prep.bundle_a.read_bytes(), prep.bundle_b.read_bytes())
        setups = []
        for b in range(BOOTS - 1):
            extra = Daemon(work, serving, f"boot{b}")
            setups.append((extra.t_spawn, extra.t_ready))
            extra.shutdown()
        spans_out = work / "spans.json" if traced else None
        daemon = Daemon(work, serving, "main", spans_out)
        setups.append((daemon.t_spawn, daemon.t_ready))
        if sweep:
            samples, win, warmup_s = sweep_load(daemon, pool, seconds)
            reloads: list[dict] = []
        else:
            samples, win, reloads = reload_load(
                daemon, pool, seconds, serving, bundles)
            warmup_s = RELOAD_WARMUP_S
        rss = peak_rss_mb(daemon.proc.pid)
        counters, problems = final_stats(daemon)
        daemon.shutdown()
        trace = json.loads(spans_out.read_text()) if traced else None
    except BaseException:
        if daemon is not None:
            daemon.kill()
        raise
    finally:
        remove_dir(work)

    oracles = {0: Oracle(load_selector(prep.bundle_a)),
               1: Oracle(load_selector(prep.bundle_b)),
               "floor": Oracle(MvapichDefaultSelector())}
    checked = verify(samples, pool, oracles,
                     _version_map(daemon.version, reloads), prep,
                     SWEEP_ORACLE_SAMPLE if sweep else 1)
    problems += checked.problems + regime_problems(
        checked.computed_actions)
    window = [s for s in samples if s.window]
    failed = sum(s.failed for s in window)
    for r in reloads:
        if not r["response"].get("ok") \
                or r["response"].get("status") != "reloaded":
            failed += 1
            problems.append(f"reload op answered {r['response']}")
    if checked.verified == 0:
        problems.append("no decision was verified")
    rtts = [s.done - s.due for s in window if s.done is not None]
    if not rtts:
        raise GateError("no request completed in the window")
    last = max(s.done for s in window if s.done is not None)
    n_queries = SWEEP_QUERIES if sweep else RELOAD_QUERIES
    tail_label, tail_s = tail(rtts)
    out = {
        "workload": workload,
        "stream_digest": digest(pool),
        "requests": len(window),
        "replies_verified": checked.replies,
        "warmup_requests": len(samples) - len(window),
        "warmup_s": warmup_s,
        "setup_s": median([b - a for a, b in setups]),
        "setup_n": len(setups),
        "rtt_p50_ms": 1e3 * median(rtts),
        "rtt_tail": (tail_label, 1e3 * tail_s), "rtt_n": len(rtts),
        "queries_per_s": n_queries * len(rtts) / (last - win.start),
        "reload_ms": 1e3 * median([r["rtt"] for r in reloads])
        if reloads else None,
        "cpu_ms_per_request": 1e3 * (win.cpu[-1] - win.cpu[0])
        / len(rtts),
        "reload_n": len(reloads),
        "regret_pct": 100.0 * sum(checked.regrets.values())
        / len(checked.regrets) if checked.regrets else None,
        "regret_n": len(checked.regrets),
        "peak_rss_mb": rss,
        "attempted": len(window) + len(reloads),
        "failed": failed,
        "rows_checked": checked.rows, "rows_verified": checked.verified,
        "computed_actions": checked.computed_actions,
        "problems": problems,
        "late_tail_ms": 1e3 * tail([s.sent - s.due for s in window])[1],
        "post_reload_misses": _post_reload_misses(checked.uncached,
                                                  reloads),
        "final_counters": counters,
    }
    if traced:
        layers, out["shares"], trace_problems = traced_figures(
            trace, samples, win)
        problems += trace_problems
        layers["serve.reload.post_misses"] = out["post_reload_misses"]
        layers["loadgen.late_p99_ms"] = 0.0 if sweep \
            else out["late_tail_ms"]
        out["layers"] = layers
    return out
