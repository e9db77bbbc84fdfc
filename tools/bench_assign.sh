#!/usr/bin/env bash
# Refreshes the BENCH_assign.json trajectory: runs the assignment
# microbenchmarks (bench_micro_scaling with SPARCLE_BENCH_JSON set), pulls
# out the per-size means, and appends one labeled entry to the checked-in
# trajectory file.
#
# Usage: tools/bench_assign.sh <label> [build-dir]
#   e.g. tools/bench_assign.sh pr7-after build
#
# After appending, the script gates the assignment hot path: if the new
# BM_SparcleAssignNetworkSize/32 mean exceeds the previous trajectory
# entry's by more than 3% (the uninstalled-observability overhead budget,
# see docs/observability.md) it exits 1 — loudly.  Override the budget
# with SPARCLE_BENCH_TOLERANCE (a fraction, default 0.03).
set -euo pipefail
cd "$(dirname "$0")/.."

source tools/bench_lib.sh
bench_setup tools/bench_assign.sh "$@"

bench_run bench_micro_scaling \
  --benchmark_filter='BM_SparcleAssign|BM_WidestPath' \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true

python3 - "$SCRATCH" "$LABEL" "${SPARCLE_BENCH_TOLERANCE:-0.03}" <<'EOF'
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, "tools")
from bench_record import append_entry
raw = json.load(open(sys.argv[1]))
tolerance = float(sys.argv[3])
means = {b["run_name"]: round(b["real_time"], 1)
         for b in raw.get("benchmarks", [])
         if b.get("aggregate_name") == "mean"}
doc, entry, prev = append_entry(
    "BENCH_assign.json", sys.argv[2], means, time_unit="ns",
    description="Assignment hot-path trajectory "
                "(mean real time, ns; see docs/perf.md)")

GATE = "BM_SparcleAssignNetworkSize/32"
if prev and GATE in prev["benchmarks"] and GATE in entry["benchmarks"]:
    base, now = prev["benchmarks"][GATE], entry["benchmarks"][GATE]
    overhead = now / base - 1.0
    print(f"{GATE}: {base:.1f} ns ({prev['label']}) -> {now:.1f} ns "
          f"({overhead:+.2%}, budget {tolerance:.0%})")
    if overhead > tolerance:
        print(f"FAIL: {GATE} regressed {overhead:.2%} vs '{prev['label']}' "
              f"— over the {tolerance:.0%} budget (docs/observability.md)",
              file=sys.stderr)
        sys.exit(1)
EOF
