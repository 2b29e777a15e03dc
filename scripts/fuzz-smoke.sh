#!/usr/bin/env bash
set -euo pipefail

# Bounded fuzzing pass for panic/crash detection.
#
# This verifier is intentionally short-running (FUZZTIME per target, 10s by
# default); it exists to catch generator panics and registry regressions in
# CI, not to replace long-running fuzz campaigns. It is expected to grow
# targeted fuzz functions over time.

cd "$(dirname "$0")/.."

FUZZTIME=${FUZZTIME:-10s}
failures=0

fuzzRegex='^func[[:space:]]+Fuzz[A-Za-z0-9_]+'
missing=()

# internal/core carries FuzzGroup (per-group quiescence), FuzzAdmission
# (bounded inject queues: fairness + bound invariants under random floods)
# and FuzzCancel (random spawn/cancel/deadline/reset schedules: WaitErr
# agrees with the canceled state, inflight reconciles, counters balance);
# internal/stats carries FuzzPercentile (nearest-rank vs brute-force oracle);
# internal/query carries FuzzFilter/FuzzGroupBy/FuzzMergeJoin/FuzzPlan
# (analytics operators and random plans vs their sequential oracles);
# internal/qsort carries FuzzPartition (HoarePartition and the team
# partition at lengths that reach the block loop: split bounds and
# multiset conservation).
fuzzDirs=(internal/core internal/dist internal/par internal/qsort internal/query internal/stats)

for dir in "${fuzzDirs[@]}"; do
  if ! grep -rEn --include='*_test.go' "${fuzzRegex}" "${dir}" >/dev/null 2>&1; then
    missing+=("${dir}")
  fi
done

if [[ "${#missing[@]}" -ne 0 ]]; then
  echo "fuzz-smoke: FAIL (no fuzz targets found in: ${missing[*]})"
  echo "Add at least one 'func FuzzXxx(f *testing.F)' in each package group."
  exit 1
fi

echo "fuzz-smoke: running bounded fuzz pass (${FUZZTIME} per target)"

# The go toolchain fuzzes one target per invocation; enumerate them.
for dir in "${fuzzDirs[@]}"; do
  for t in $(go test -list 'Fuzz.*' "./${dir}" | grep -E '^Fuzz'); do
    echo "fuzz-smoke: ${dir}/${t}"
    go test "./${dir}" -run '^$' -fuzz "^${t}\$" -fuzztime="${FUZZTIME}" || failures=$((failures + 1))
  done
done

if [[ "${failures}" -ne 0 ]]; then
  echo "fuzz-smoke: FAIL (${failures} fuzz target(s) failed)"
  exit 1
fi

echo "fuzz-smoke: PASS"
