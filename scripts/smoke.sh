#!/usr/bin/env bash
# Tier-2 smoke check: the full offline->online pipeline on two clusters
# WITH fault injection enabled, plus a doctor audit of the artifacts.
#
#   collect (20% transient failures, 5% rank stalls, retried)
#   -> collect --active (uncertainty-driven acquisition: seed ->
#              rank -> benchmark under a core-hour budget; same-seed
#              reruns must replay a byte-identical decision log)
#   -> train  (bundle written atomically, checksummed)
#   -> tune   (compile-time setup on both clusters, faults injected)
#   -> corrupt one table, re-tune (quarantine + regenerate rung)
#   -> doctor (must flag the quarantined file, pass everything else;
#              --bundle cross-check must pass on the healthy pair)
#   -> chaos  (seeded guard-layer soak: 10k adversarial queries, no
#              unguarded exceptions, breaker must cycle)
#   -> select-batch (JSONL queries through the batched service:
#              quantized memoization, invalid queries answered inline,
#              a bool or float twin of a cached query still invalid)
#   -> serve  (persistent daemon: boot from the bundle, socket
#              queries, hot-reload, counter partition, graceful drain;
#              the full lifecycle soak is scripts/daemon_smoke.sh)
#   -> adapt  (online adaptation on both clusters: drifted-fabric
#              feedback -> drift detected -> challenger promoted ->
#              probation confirmed -> mid-promotion crash rolled back;
#              the adversarial soak is scripts/adapt_smoke.sh)
#   -> telemetry (traced collect/train/tune/select accumulate one
#              trace; `pml-mpi report` renders every stage; a corrupted
#              trace must be rejected)
#
# Run from anywhere: scripts/smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
export PML_MPI_CACHE="$workdir/cache"

pml() { python -m repro.cli "$@"; }

echo "== collect (fault-injected) =="
pml collect --clusters RI Ray --collectives allgather alltoall \
    --fault-rate 0.2 --stall-rate 0.05 --retries 8 --quiet \
    --output "$workdir/dataset.jsonl.gz"

echo "== collect --active (uncertainty-driven, budgeted) =="
pml collect --active --clusters RI --collectives allgather \
    --batch-size 8 --quiet \
    --decision-log "$workdir/decisions_a.jsonl" \
    --output "$workdir/active.jsonl.gz" | tee "$workdir/active.out"
grep -q "active collection" "$workdir/active.out"
grep -Eq "stop: (plateau|budget|exhausted|max_rounds)" "$workdir/active.out"
# Same config again: served from cache, decision log byte-identical.
pml collect --active --clusters RI --collectives allgather \
    --batch-size 8 --quiet \
    --decision-log "$workdir/decisions_b.jsonl" \
    --output "$workdir/active2.jsonl.gz" | tee "$workdir/active_b.out"
grep -q "(cached)" "$workdir/active_b.out"
cmp "$workdir/decisions_a.jsonl" "$workdir/decisions_b.jsonl" \
    || { echo "active decision log not deterministic" >&2; exit 1; }

echo "== train =="
pml train "$workdir/bundle.json" --clusters RI Ray

echo "== tune (both clusters, fault-injected) =="
for cluster in RI Ray; do
    pml tune "$cluster" --bundle "$workdir/bundle.json" \
        --table-dir "$workdir/tables" --fault-rate 0.2 --retries 8
done

echo "== corrupt a cached table, re-tune =="
echo '{"cluster": "RI", "collectives": {}}' > "$workdir/tables/RI.tuning.json"
pml tune RI --bundle "$workdir/bundle.json" --table-dir "$workdir/tables" \
    --fault-rate 0.2 --retries 8 | tee "$workdir/retune.out"
grep -q "served via:  regenerated" "$workdir/retune.out"
grep -q "quarantined:" "$workdir/retune.out"

echo "== doctor =="
pml doctor "$workdir/tables" | tee "$workdir/doctor.out"
grep -q "quarantined" "$workdir/doctor.out"
pml doctor "$workdir" >/dev/null   # bundle + dataset also validate

echo "== doctor cross-check (bundle vs tables) =="
pml doctor "$workdir/tables" --bundle "$workdir/bundle.json" \
    | tee "$workdir/crosscheck.out"
grep -q "cross-check" "$workdir/crosscheck.out"
# A table filed under the wrong cluster must fail the cross-check.
cp "$workdir/tables/RI.tuning.json" "$workdir/RI.tuning.json.orig"
cp "$workdir/tables/Ray.tuning.json" "$workdir/tables/RI.tuning.json"
if pml doctor "$workdir/tables" --bundle "$workdir/bundle.json" \
    > "$workdir/crosscheck_bad.out" 2>&1; then
    echo "cross-check missed a mismatched table" >&2; exit 1
fi
grep -q "belongs to cluster" "$workdir/crosscheck_bad.out"
mv "$workdir/RI.tuning.json.orig" "$workdir/tables/RI.tuning.json"

echo "== chaos (seeded guard-layer soak) =="
pml chaos --queries 10000 --seed 0 --quiet | tee "$workdir/chaos.out"
grep -q "CHAOS OK" "$workdir/chaos.out"
grep -q "unguarded exceptions: 0" "$workdir/chaos.out"

echo "== select-batch (JSONL in -> guarded decisions out) =="
cat > "$workdir/queries.jsonl" <<'JSONL'
{"collective":"allgather","nodes":2,"ppn":4,"msg_size":1000}
{"collective":"allgather","nodes":2,"ppn":4,"msg_size":1024}
{"collective":"alltoall","nodes":1,"ppn":8,"msg_size":65536}
{"collective":"nope","nodes":2,"ppn":4,"msg_size":64}
{"collective":"alltoall","nodes":true,"ppn":8,"msg_size":65536}
{"collective":"allgather","nodes":2,"ppn":4,"msg_size":1024.0}
JSONL
pml select-batch RI --bundle "$workdir/bundle.json" \
    --input "$workdir/queries.jsonl" --output "$workdir/decisions.jsonl" \
    | tee "$workdir/select_batch.out"
grep -q "answered 6 queries" "$workdir/select_batch.out"
python - "$workdir/decisions.jsonl" <<'EOF'
import json
import sys

lines = open(sys.argv[1]).read().splitlines()
assert len(lines) == 6, f"expected 6 decisions, got {len(lines)}"
records = [json.loads(line) for line in lines]
# 1000 and 1024 share one quantized memo entry; the second is cached.
assert records[1]["cached"] is True
assert records[0]["algorithm"] == records[1]["algorithm"]
# Malformed queries are answered, not dropped, and name no algorithm —
# including a bool or float twin of an integer query served above.
for r in records[3:]:
    assert r["action"] == "invalid", r
    assert r["algorithm"] is None, r
assert all(r["algorithm"] for r in records[:3])
print("select-batch OK")
EOF

echo "== serve daemon (boot -> queries -> hot-reload -> drain) =="
pml serve RI --bundle "$workdir/bundle.json" \
    --state-dir "$workdir/serve_state" \
    --ready-file "$workdir/ready.json" --reload-poll-s 0.2 \
    > "$workdir/serve.out" 2>&1 &
serve_pid=$!
for _ in $(seq 1 300); do
    [ -f "$workdir/ready.json" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$workdir/serve.out" >&2; exit 1; }
    sleep 0.1
done
[ -f "$workdir/ready.json" ] || { echo "daemon never ready" >&2; exit 1; }
python - "$workdir/serve_state/daemon.sock" "$workdir/bundle.json" <<'EOF'
import json
import socket
import sys
from repro.serve import PROTOCOL_VERSION, DaemonClient

socket_path, bundle = sys.argv[1], sys.argv[2]
with DaemonClient(socket_path) as client:
    assert client.ping()["protocol"] == PROTOCOL_VERSION
    response = client.select([
        {"collective": "allgather", "nodes": 2, "ppn": 8,
         "msg_size": 4096},
        {"collective": "allgather", "nodes": 2, "ppn": 8,
         "msg_size": -1},
    ], deadline_ms=5000)
    actions = [d["action"] for d in response["decisions"]]
    assert actions[0] != "invalid" and actions[1] == "invalid", actions
    # Replies are written from the decision columns: one whose invalid
    # rows echo junk must still be canonical JSON, byte for byte.
    junk = [{"collective": "allg\u00e4ther", "nodes": 2, "ppn": 8,
             "msg_size": 64},
            {"collective": "allgather", "nodes": 2.5, "ppn": 8,
             "msg_size": 64},
            {"collective": "allgather", "nodes": 2, "ppn": 8,
             "msg_size": {"z": 1, "a": [0.5, None]}},
            {"collective": "allgather", "nodes": 2, "ppn": 8,
             "msg_size": 10 ** 29},
            {"collective": "allgather", "nodes": 2, "ppn": 8,
             "msg_size": 4096}]
    request = {"id": "junk", "op": "select", "queries": junk}
    with socket.socket(socket.AF_UNIX) as sock:
        sock.connect(socket_path)
        with sock.makefile("rwb") as wire:
            wire.write(json.dumps(request, ensure_ascii=False)
                       .encode("utf-8") + b"\n")
            wire.flush()
            line = wire.readline()
    reply = json.loads(line)
    canonical = json.dumps(reply, sort_keys=True,
                           separators=(",", ":")) + "\n"
    assert line.decode("utf-8") == canonical, line
    assert [d["action"] for d in reply["decisions"]][:4] \
        == ["invalid"] * 4, reply
    assert reply["decisions"][0]["collective"] == "allg\u00e4ther"
    # Touch the bundle (same bytes, fresh file): explicit reload swaps.
    assert client.reload()["status"] in ("reloaded", "unchanged")
    counters = client.stats()["counters"]
    assert counters["serve.daemon.internal"] == 0
    assert counters["serve.daemon.requests"] == (
        counters["serve.daemon.ok"]
        + counters["serve.daemon.deadline_floor"]
        + counters["serve.daemon.bad_request"]
        + counters["serve.daemon.overloaded"]
        + counters["serve.daemon.draining"]
        + counters["serve.daemon.internal"])
    client.shutdown()
print("daemon stage OK")
EOF
# Bound the drain: a daemon that never exits must fail the stage, not
# wedge the whole build on an unbounded `wait`.
( sleep 30; kill -9 "$serve_pid" 2>/dev/null ) &
drain_watchdog=$!
drain_rc=0
wait "$serve_pid" || drain_rc=$?
kill "$drain_watchdog" 2>/dev/null || true
[ "$drain_rc" -eq 0 ] || { echo "daemon did not drain cleanly (rc=$drain_rc)" >&2; exit 1; }
[ ! -S "$workdir/serve_state/daemon.sock" ] || { echo "socket left behind" >&2; exit 1; }
[ ! -f "$workdir/serve_state/daemon.lock" ] || { echo "lock left behind" >&2; exit 1; }
grep -q "drained" "$workdir/serve.out"

echo "== adapt (drift -> promote -> confirm -> crash rollback, both clusters) =="
# One feedback-synthesis helper: replay the serving selector on a
# badly degraded fabric so its choices are measurably wrong, and append
# the measurements to the pml-mpi/feedback log.  Prints the next tick.
# The degradation is harsher than the soak's DRIFT_CONDITIONS_KW: it
# must flip the argmin on a well-trained two-cluster bundle for BOTH
# clusters, not just RI.
synth_feedback() { # cluster bundle feedback_log tick0
    python - "$1" "$2" "$3" "$4" <<'EOF'
import sys
from pathlib import Path

from repro.adapt import FeedbackLog
from repro.core.bundle import load_selector
from repro.core.chaos import synthesize_feedback
from repro.hwmodel import get_cluster
from repro.simcluster.conditions import NetworkConditions

cluster, bundle, fb, tick0 = (sys.argv[1], sys.argv[2],
                              Path(sys.argv[3]), int(sys.argv[4]))
fb.parent.mkdir(parents=True, exist_ok=True)
records, next_tick = synthesize_feedback(
    get_cluster(cluster), load_selector(bundle),
    conditions=NetworkConditions(background_load=0.9, latency_jitter=4.0,
                                 link_width_factor=0.125),
    tick0=tick0, repeat=3)
FeedbackLog(fb).append(records)
print(next_tick)
EOF
}
for cluster in RI Ray; do
    adir="$workdir/adapt_$cluster"
    mkdir -p "$adir"
    cp "$workdir/bundle.json" "$adir/bundle.json"
    champion_crc="$(cksum "$adir/bundle.json")"

    # Drifted fabric -> the loop must detect drift, train a challenger,
    # and promote it behind the gate.
    tick="$(synth_feedback "$cluster" "$adir/bundle.json" "$adir/feedback.jsonl" 0)"
    pml adapt "$cluster" --bundle "$adir/bundle.json" \
        --feedback "$adir/feedback.jsonl" --state-dir "$adir/state" \
        --window 600 | tee "$adir/adapt1.out"
    grep -q "adapt: promoted" "$adir/adapt1.out"
    [ -f "$adir/state/champion.backup.json" ] \
        || { echo "no champion backup after promotion ($cluster)" >&2; exit 1; }
    [ "$(cksum "$adir/bundle.json")" != "$champion_crc" ] \
        || { echo "promotion left serving bundle unchanged ($cluster)" >&2; exit 1; }

    # Probation: the challenger was trained on this fabric, so fresh
    # feedback confirms it.
    synth_feedback "$cluster" "$adir/bundle.json" "$adir/feedback.jsonl" "$tick" > /dev/null
    pml adapt "$cluster" --bundle "$adir/bundle.json" \
        --feedback "$adir/feedback.jsonl" --state-dir "$adir/state" \
        --window 600 | tee "$adir/adapt2.out"
    grep -q "adapt: confirmed" "$adir/adapt2.out"

    # Crash mid-promotion: torn sentinel + half-written serving bundle.
    # The next pass must roll back to the backed-up champion.
    backup_crc="$(cksum "$adir/state/champion.backup.json" | cut -d' ' -f1-2)"
    echo '{ "torn": ' > "$adir/bundle.json"
    echo '{ "torn": ' > "$adir/state/promotion.json"
    pml adapt "$cluster" --bundle "$adir/bundle.json" \
        --feedback "$adir/feedback.jsonl" --state-dir "$adir/state" \
        --window 600 | tee "$adir/adapt3.out"
    grep -q "adapt: recovered" "$adir/adapt3.out"
    [ "$(cksum "$adir/bundle.json" | cut -d' ' -f1-2)" = "$backup_crc" ] \
        || { echo "rollback did not restore the champion ($cluster)" >&2; exit 1; }
    ls "$adir"/*.corrupt* >/dev/null 2>&1 \
        || { echo "crashed promotion not quarantined ($cluster)" >&2; exit 1; }
done

echo "== telemetry (traced run + report) =="
trace="$workdir/trace.jsonl"
pml collect --clusters RI --collectives allgather --quiet --trace "$trace"
pml train "$workdir/tele_bundle.json" --clusters RI \
    --collectives allgather --trace "$trace" > /dev/null
pml tune RI --bundle "$workdir/tele_bundle.json" \
    --table-dir "$workdir/tele_tables" --force --trace "$trace" > /dev/null
pml select RI allgather 2 8 4096 --bundle "$workdir/tele_bundle.json" \
    --trace "$trace" > /dev/null
pml report "$trace" | tee "$workdir/report.out"
for stage in collect train tune select; do
    grep -q "^$stage " "$workdir/report.out" \
        || { echo "report missing stage: $stage" >&2; exit 1; }
done
grep -q "tune.rung" "$workdir/report.out"
python - "$trace" <<'EOF'
import sys
from repro.obs.trace_io import load_trace

trace = load_trace(sys.argv[1])
stages = {s["name"] for s in trace.root_spans()}
assert {"collect", "train", "tune", "select"} <= stages, stages
assert trace.counters(), "trace exported no counters"
print(f"trace OK: {len(trace.spans)} spans, {len(trace.metrics)} metrics")
EOF
# A tampered trace must be rejected by the validator and the CLI.
sed 's/"collect"/"b0rked!"/' "$trace" > "$workdir/trace_bad.jsonl"
if pml report "$workdir/trace_bad.jsonl" > /dev/null 2>&1; then
    echo "report accepted a corrupted trace" >&2; exit 1
fi

echo "SMOKE OK"
