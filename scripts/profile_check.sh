#!/usr/bin/env bash
# Profiler smoke gate (DESIGN.md §15): runs the Fig-2 cooperative-search
# artifact and the bench_search halving races with --profile-folded, then
# validates each export — it must be non-empty, every line must be
# well-formed folded-stack text ("frame;frame;... <self_ns>"), and the
# known frames must appear: eval.run, eval.candidate, the darr.client ops
# and the client0 node frame for the cooperative search (the folded export
# is where a per-client profile lives); eval.run, eval.candidate and
# eval.fold, and no eval.search.run / eval.search.unit, for the halving
# races.
# Finally re-runs the pinned reset test to assert that obs::prof::reset()
# leaves the profiler empty.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench/bench_fig2_darr_cooperation"
SEARCH_BENCH="$BUILD_DIR/bench/bench_search"
TESTBIN="$BUILD_DIR/tests/test_profiler"
for bin in "$BENCH" "$SEARCH_BENCH"; do
  if [[ ! -x "$bin" ]]; then
    echo "profile_check: missing $bin (build first)" >&2
    exit 1
  fi
done

OUT="$(mktemp /tmp/coda_profile_XXXXXX.folded)"
HALVING_OUT="$(mktemp /tmp/coda_profile_halving_XXXXXX.folded)"
trap 'rm -f "$OUT" "$HALVING_OUT"' EXIT

# check_folded <file> <label> <required regions> [<forbidden regions>]:
# the export must be non-empty well-formed folded-stack text containing
# every required region and none of the forbidden ones (space-separated
# region names).
check_folded() {
  if [[ ! -s "$1" ]]; then
    echo "profile check: $2 folded export is empty" >&2
    exit 1
  fi
  python3 - "$1" "$2" "$3" "${4:-}" <<'PYEOF'
import re
import sys

path, label, required, forbidden = sys.argv[1:5]
with open(path) as f:
    lines = [line.rstrip("\n") for line in f if line.strip()]

assert lines, f"{label}: no folded stacks in export"

well_formed = re.compile(r"^[^ ;]+(;[^ ;]+)* \d+$")
for line in lines:
    assert well_formed.match(line), f"{label}: malformed folded line: {line!r}"

roots = {line.split(" ")[0].split(";")[0] for line in lines}
frames = set()
for line in lines:
    frames.update(line.rsplit(" ", 1)[0].split(";"))

# A required name ending in "." is a region family prefix.
for needle in required.split():
    assert any(f == needle or (needle.endswith(".") and f.startswith(needle))
               for f in frames), \
        f"{label}: expected region '{needle}' in folded stacks"
for name in forbidden.split():
    assert name not in frames, f"{label}: unexpected region '{name}' in folded stacks"

print(f"profile check: {label}: {len(lines)} folded stacks, {len(roots)} "
      f"root frame(s), known regions present")
PYEOF
}

echo "== profile check: $BENCH --profile-folded=$OUT =="
"$BENCH" --profile-folded="$OUT" --benchmark_filter=__none__ >/dev/null
# A cooperative search must profile the evaluation root and the DARR
# client ops somewhere in the stack set, and keep each client's stacks
# under its node frame (nodes prefix client stacks).
check_folded "$OUT" "fig2" "eval.run eval.candidate darr.client. client0"

# Exhaustive and halving searches run through the same engine loop, so a
# halving run profiles under the same region names.
echo "== profile check: $SEARCH_BENCH --profile-folded=$HALVING_OUT =="
"$SEARCH_BENCH" --profile-folded="$HALVING_OUT" --benchmark_filter='^$' \
    >/dev/null
check_folded "$HALVING_OUT" "halving" "eval.run eval.candidate eval.fold" \
    "eval.search.run eval.search.unit"

# Reset contract: obs::prof::reset() must leave the profiler empty (no
# paths, empty folded export) and keep regions usable afterwards.
if [[ -x "$TESTBIN" ]]; then
  "$TESTBIN" --gtest_filter='Profiler.ResetLeavesProfilerEmpty' \
      --gtest_brief=1 >/dev/null
  echo "profile check: reset leaves profiler empty"
else
  echo "profile check: missing $TESTBIN (build first)" >&2
  exit 1
fi

echo "profile check OK"
