#!/usr/bin/env bash
# Refreshes the BENCH_churn.json trajectory: runs bench_churn (which
# writes its part-2 repair-comparison results as a flat JSON map when
# SPARCLE_BENCH_JSON is set) and appends one labeled entry.
#
# Usage: tools/bench_churn.sh <label> [build-dir]
#   e.g. tools/bench_churn.sh pr7-after build
#
# After appending, the script gates the repair tail: over *active*
# repairs (working set non-empty — the all-events distribution is
# bimodal because most churn hits relays carrying nothing), incremental
# repair's p99 must stay within SPARCLE_CHURN_TAIL_RATIO (default 20) of
# its p50.  A fat tail means a repair class is falling off the
# incremental path (cold PF solves, rebalance fallbacks).
set -euo pipefail
cd "$(dirname "$0")/.."

source tools/bench_lib.sh
bench_setup tools/bench_churn.sh "$@"

bench_run bench_churn

python3 - "$SCRATCH" "$LABEL" "${SPARCLE_CHURN_TAIL_RATIO:-20}" <<'EOF'
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, "tools")
from bench_record import append_entry
raw = json.load(open(sys.argv[1]))
max_ratio = float(sys.argv[3])
doc, entry, prev = append_entry(
    "BENCH_churn.json", sys.argv[2], raw["benchmarks"], time_unit="us",
    indent=1,
    description="Churn replay: incremental repair() vs full "
                "rebalance() (bench_churn part 2; see docs/churn.md)")

P50 = "repair_active_p50_us/incremental"
P99 = "repair_active_p99_us/incremental"
p50, p99 = entry["benchmarks"][P50], entry["benchmarks"][P99]
ratio = p99 / max(p50, 1e-9)
print(f"active repair tail: p99 {p99:.1f}us = {ratio:.1f}x p50 {p50:.1f}us "
      f"(budget {max_ratio:.0f}x)")
if ratio > max_ratio:
    print(f"FAIL: active-repair p99 is {ratio:.1f}x p50 — over the "
          f"{max_ratio:.0f}x flat-tail budget", file=sys.stderr)
    sys.exit(1)
EOF
