#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload sort-large --seed 1 --seconds 20 --trace 0
#
# Run it from anywhere; it works in the checkout root that holds it. All
# build state (binary, Go build cache, temporary files) stays under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout; run reports go to
# .bench_out. The last line of standard output is the result JSON.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
