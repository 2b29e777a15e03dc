#!/usr/bin/env bash
set -euo pipefail

# Tier-1 verification gate plus static and race checks. CI and pre-commit
# entry point; `make check` delegates here.

cd "$(dirname "$0")/.."

# RACE_PKGS and VET_FLAGS live in checkdefs.sh, shared with the Makefile.
. ./scripts/checkdefs.sh

echo "check: gofmt"
unformatted=$(gofmt -l .)
if [[ -n "${unformatted}" ]]; then
  echo "check: FAIL (gofmt needed on: ${unformatted})"
  exit 1
fi

echo "check: go build ./..."
go build ./...

echo "check: go vet ${VET_FLAGS} ./..."
go vet ${VET_FLAGS} ./...

echo "check: reprolint (directive-driven invariant analyzers + manifest pin)"
go run ./cmd/reprolint ./...

echo "check: escapecheck (compiler escape analysis over //repro:noalloc functions)"
go run ./scripts/escapecheck

echo "check: go test ./..."
go test ./...

# The race list and its rationale live in scripts/checkdefs.sh.
echo "check: go test -race ${RACE_PKGS}"
go test -race ${RACE_PKGS}

echo "check: bounded-queue throughput smoke (admission backpressure end to end)"
go run ./cmd/throughput -clients 8 -max-pending 2 -max-inject 8 -duration 300ms \
  -sizes 65536 -dists random -algos mmpar,fork > /dev/null

echo "check: chaos smoke (fault injection + cancel storm, invariants checked per round)"
go run ./cmd/stress -p 4 -rounds 8 -tasks 120 -chaos -seed 1 > /dev/null

echo "check: abandon-mix smoke (deadline-abandoned batches vs interactive sorts)"
go run ./cmd/throughput -mix abandon -clients 6 -duration 400ms -abandon-after 3ms \
  -sizes 16384,262144 -dists random -algos mmpar,msort -max-inject 32 > /dev/null

# Both metrics smokes share one scratch directory and one metricscheck build;
# the EXIT trap stops a throughput run left behind by a failing check.
smokedir=$(mktemp -d)
smoke_pid=""
cleanup_smoke() {
  [[ -n "${smoke_pid}" ]] && kill "${smoke_pid}" 2>/dev/null || true
  rm -rf "${smokedir}"
}
trap cleanup_smoke EXIT
go build -o "${smokedir}/metricscheck" ./scripts/metricscheck
go build -o "${smokedir}/tracecheck" ./scripts/tracecheck

# metrics_smoke LABEL METRICSCHECK-FLAGS... -- THROUGHPUT-FLAGS...
# Starts cmd/throughput in the background with -metrics-addr 127.0.0.1:0,
# waits for it to advertise the address, scrapes /metrics mid-run with
# metricscheck, and waits for the run to exit successfully. The run's report
# is left in ${smokedir}/tp.json.
metrics_smoke() {
  local label=$1
  shift
  local checkflags=()
  while [[ $1 != -- ]]; do
    checkflags+=("$1")
    shift
  done
  shift
  go run ./cmd/throughput "$@" -metrics-addr 127.0.0.1:0 \
    > "${smokedir}/tp.json" 2> "${smokedir}/tp.err" &
  smoke_pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^throughput: metrics listening on //p' "${smokedir}/tp.err" | head -n1)
    [[ -n "${addr}" ]] && break
    if ! kill -0 "${smoke_pid}" 2>/dev/null; then
      echo "check: FAIL (${label} throughput exited before advertising its metrics address)"
      cat "${smokedir}/tp.err"
      exit 1
    fi
    sleep 0.1
  done
  if [[ -z "${addr}" ]]; then
    echo "check: FAIL (no metrics address advertised by the ${label} run)"
    cat "${smokedir}/tp.err"
    exit 1
  fi
  "${smokedir}/metricscheck" "${checkflags[@]}" "http://${addr}/metrics"
  wait "${smoke_pid}"
  smoke_pid=""
}

echo "check: metrics exposition smoke (/metrics scraped mid-run)"
metrics_smoke sort -retry 5s -monotonic 1s \
  -require repro_sched_steals_total,repro_sched_inject_takes_total,repro_sched_quiesce_scans_total,repro_admission_injected_total,repro_admission_wait_seconds_count,repro_uptime_seconds,repro_worker_state_samples_total,repro_trace_events_total,repro_group_pending_sorts,repro_sort_latency_seconds_bucket,repro_canceled_total,repro_revoked_total,repro_spawn_timeouts_total \
  -- -clients 4 -sizes 65536 -dists random -algos mmpar,fork -duration 3s -profile-hz 199

echo "check: trace export smoke (-trace-out validated by tracecheck)"
go run ./cmd/throughput -clients 4 -sizes 65536 -dists random -algos mmpar,fork \
  -duration 300ms -trace-out "${smokedir}/trace.json" -profile-hz 199 > /dev/null
"${smokedir}/tracecheck" -min-events 100 "${smokedir}/trace.json"

echo "check: analytics-mix smoke (query operators end to end, /metrics + trace mid-mix)"
metrics_smoke analytics -retry 5s \
  -require repro_queries_total,repro_query_latency_seconds_bucket,repro_group_pending_queries,repro_sched_steals_total \
  -- -mix analytics -clients 4 -sizes 65536 -dists random,randdup -duration 3s \
  -trace-out "${smokedir}/trace.json"
"${smokedir}/tracecheck" -min-events 100 "${smokedir}/trace.json"
if ! grep -q '"mix": *"analytics"' "${smokedir}/tp.json"; then
  echo "check: FAIL (analytics report does not record its mix)"
  cat "${smokedir}/tp.json"
  exit 1
fi

echo "check: bench-smoke (one tiny repetition of each trajectory benchmark)"
BENCHTIME=1x OUTDIR="$(mktemp -d)" ./scripts/bench.sh

echo "check: PASS"
