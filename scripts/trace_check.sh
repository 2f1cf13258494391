#!/usr/bin/env bash
# Trace-export gate (DESIGN.md §10): runs the Fig-2 cooperative-search
# artifact with --trace-json, then validates the export twice over —
# it must parse as JSON (python3 -m json.tool), and the span tree must be
# causally sound: every span's parent resolves inside its own trace, each
# complete trace has exactly one root, the export names one process per
# simulated node (>= 2 pids), and the network track is populated. Spans of
# profiled sites carry their profile region's name (obs::Region): every
# trace root is `eval.run`, and none of the span names retired when the
# spans took those names may appear.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench/bench_fig2_darr_cooperation"
if [[ ! -x "$BENCH" ]]; then
  echo "trace_check: missing $BENCH (build first)" >&2
  exit 1
fi

OUT="$(mktemp /tmp/coda_trace_XXXXXX.json)"
trap 'rm -f "$OUT"' EXIT

echo "== trace check: $BENCH --trace-json=$OUT =="
"$BENCH" --trace-json="$OUT" --benchmark_filter=__none__ >/dev/null

python3 -m json.tool "$OUT" >/dev/null
echo "trace check: valid JSON ($(wc -c <"$OUT") bytes)"

python3 - "$OUT" <<'PYEOF'
import collections
import json
import sys

with open(sys.argv[1]) as f:
    trace = json.load(f)

events = trace["traceEvents"]
dropped = trace.get("otherData", {}).get("dropped", 0)

pids = set()
for e in events:
    if e.get("ph") == "M" and e.get("name") == "process_name":
        pids.add(e["pid"])
assert len(pids) >= 2, f"expected >= 2 processes (nodes), got {len(pids)}"

spans = [e for e in events if e.get("ph") == "X"]
assert spans, "no complete ('X') events in export"
assert any(e.get("cat") == "network" for e in spans), "no network spans"

retired = {"evaluator.evaluate", "evaluator.candidate", "evaluator.fold",
           "darr.client.lookup", "darr.client.lookup_many",
           "darr.client.try_claim", "darr.client.store", "darr.client.abandon"}
stale = sorted({e["name"] for e in spans} & retired)
assert not stale, f"retired span names in export: {stale}"
bad_roots = sorted({e["name"] for e in spans if e["args"]["parent"] == 0} -
                   {"eval.run"})
assert not bad_roots, f"trace roots other than eval.run: {bad_roots}"

by_trace = collections.defaultdict(dict)
for e in spans:
    args = e["args"]
    by_trace[args["trace"]][args["span"]] = args["parent"]

roots_per_trace = []
orphans = 0
for trace_id, members in by_trace.items():
    roots = [s for s, parent in members.items() if parent == 0]
    roots_per_trace.append((trace_id, len(roots)))
    orphans += sum(1 for parent in members.values()
                   if parent != 0 and parent not in members)

if dropped == 0:
    # Complete ring: the causal invariants must hold exactly.
    assert orphans == 0, f"{orphans} spans with unresolvable parents"
    bad = [(t, n) for t, n in roots_per_trace if n != 1]
    assert not bad, f"traces without exactly one root: {bad}"
    print(f"trace check: {len(spans)} spans in {len(by_trace)} traces, "
          f"every span parented into a single tree per trace, "
          f"{len(pids)} processes")
else:
    # Ring wrapped: old spans are gone, so only report.
    print(f"trace check: ring wrapped ({dropped} spans dropped), "
          f"skipping strict tree invariants; {len(spans)} spans retained "
          f"in {len(by_trace)} traces, {len(pids)} processes")
PYEOF

echo "trace check OK"
