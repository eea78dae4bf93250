#!/usr/bin/env bash
# Daemon smoke stage: boot a real `pml-mpi serve` daemon and soak it
# end-to-end under a hard wall-clock timeout.
#
# The soak (core/chaos.py::run_daemon_chaos) covers the full lifecycle:
#   start      -> boot from a freshly trained bundle, ready-file wait
#   storm      -> concurrent client threads: pings, stats, malformed
#                 queries, sub-ms deadlines, valid batches
#   hot-reload -> mid-storm atomic bundle swap (snapshot version bump),
#                 then a corrupt swap that must be REJECTED while the
#                 old snapshot keeps serving
#   crash      -> SIGKILL + restart in the same state dir: stale lock
#                 recovered, killer bundle quarantined, floor serving
#   drain      -> graceful shutdown, exit 0, socket removed
#
# Invariants: zero raised client exceptions, internal == 0, and the
# daemon/serve/guard counter partitions hold.  Exit 1 on any violation.
# The soak also drives the live introspection plane: a mid-storm
# scrape loop (protocol-v2 `metrics`/`tail`/`health`) whose Prometheus
# partition must reconcile inside every scrape.
#
# A second stage then boots a daemon directly and exercises the
# observability surface the way an operator would: `pml-mpi top
# --once` against the live socket, plus a raw `metrics` scrape checked
# for the exposition-format markers CI dashboards depend on.
#
# Run from anywhere: scripts/daemon_smoke.sh
# HARD_TIMEOUT_S (default 600) bounds the whole stage; a hung daemon
# fails the build instead of wedging it.

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

HARD_TIMEOUT_S="${HARD_TIMEOUT_S:-600}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
export PML_MPI_CACHE="$workdir/cache"

echo "== daemon chaos soak (hard timeout ${HARD_TIMEOUT_S}s) =="
timeout --kill-after=30 "$HARD_TIMEOUT_S" \
    python -m repro.cli chaos --daemon --seed 0 \
    --clients 3 --requests-per-client 25 \
    | tee "$workdir/daemon_chaos.out"

grep -q "DAEMON CHAOS OK" "$workdir/daemon_chaos.out"
if grep -q "VIOLATION:" "$workdir/daemon_chaos.out"; then
    echo "daemon soak recorded violations" >&2
    exit 1
fi
# The soak must have answered introspection scrapes mid-storm (a
# missing or reworded report line fails the stage too).
if ! grep -Eq "^scrapes answered: +[1-9]" "$workdir/daemon_chaos.out"; then
    echo "daemon soak reported no answered introspection scrapes" >&2
    exit 1
fi

echo "== observability stage: metrics scrape + top --once =="
bundle="$workdir/bundle.json"
socket="$workdir/daemon.sock"
python - "$bundle" <<'PY'
import sys
from repro.core.bundle import save_selector
from repro.core.chaos import train_chaos_selector
save_selector(train_chaos_selector(seed=0)[1], sys.argv[1])
PY
timeout --kill-after=30 "$HARD_TIMEOUT_S" \
    python -m repro.cli serve RI \
    --bundle "$bundle" \
    --state-dir "$workdir/state" \
    --socket "$socket" \
    --ready-file "$workdir/ready.json" \
    >"$workdir/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -f "$workdir/ready.json" ] && break
    sleep 0.2
done
[ -f "$workdir/ready.json" ] || {
    echo "daemon never became ready:" >&2
    cat "$workdir/serve.log" >&2
    exit 1
}

# One operator frame against the live socket (the CI-friendly mode).
python -m repro.cli top --socket "$socket" --once \
    | tee "$workdir/top.out"
grep -q "pml-mpi top — serving" "$workdir/top.out"
grep -q "health: " "$workdir/top.out"
grep -q "flight recorder: " "$workdir/top.out"

# A raw scrape must carry the exposition markers scrapers key on.
python - "$socket" <<'PY' | tee "$workdir/metrics.out"
import sys
from repro.serve.client import DaemonClient
with DaemonClient(sys.argv[1]) as client:
    body = client.metrics()["body"]
    health = client.health()
sys.stdout.write(body)
assert health["verdict"] in ("ok", "warn", "page"), health
PY
grep -q "# TYPE pml_serve_daemon_requests_total counter" \
    "$workdir/metrics.out"
grep -q 'le="+Inf"' "$workdir/metrics.out"

python - "$socket" <<'PY'
import sys
from repro.serve.client import DaemonClient
with DaemonClient(sys.argv[1]) as client:
    client.shutdown()
PY
wait "$serve_pid"

echo "DAEMON SMOKE OK"
