#!/usr/bin/env bash
# Refreshes the BENCH_federation.json trajectory: runs the federated
# placement scaling benchmark (bench_federation with SPARCLE_BENCH_JSON
# set) and appends one labeled entry to the checked-in trajectory file.
#
# Usage: tools/bench_federation.sh <label> [build-dir]
#   e.g. tools/bench_federation.sh pr7-after build
#
# bench_federation replays one deterministic arrival stream (locality
# 0.9, 10% guaranteed-rate) against a 2048-NCP 32-region soak site at
# shard counts 1 -> 16; shards=1 is the single-global-scheduler baseline.
# Every epoch ends with the per-shard invariant checker plus the
# federation conservation check, timer stopped.
#
# After appending, the script gates three things:
#   1. scaling: aggregate admission throughput at 8 shards must be at
#      least 5x the single-scheduler baseline (speedup/shards8).
#      Override the floor with SPARCLE_FEDERATION_MIN_SPEEDUP.
#   2. integrity: every sampled epoch on every axis must have passed its
#      conservation check (all_checks_clean == 1).  Not overridable — a
#      throughput number from a corrupted scheduler state is worthless.
#   3. regression: if the new admissions_per_s/shards8 falls more than
#      5% below the previous trajectory entry's, exit 1.  Override the
#      budget with SPARCLE_BENCH_TOLERANCE (a fraction, default 0.05).
set -euo pipefail
cd "$(dirname "$0")/.."

source tools/bench_lib.sh
bench_setup tools/bench_federation.sh "$@"

bench_run bench_federation

python3 - "$SCRATCH" "$LABEL" "${SPARCLE_FEDERATION_MIN_SPEEDUP:-5.0}" \
    "${SPARCLE_BENCH_TOLERANCE:-0.05}" <<'EOF'
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, "tools")
from bench_record import append_entry
raw = json.load(open(sys.argv[1]))
min_speedup = float(sys.argv[3])
tolerance = float(sys.argv[4])
doc, entry, prev = append_entry(
    "BENCH_federation.json", sys.argv[2], raw["benchmarks"],
    description="Federated placement scaling: aggregate admissions/sec "
                "on the 2048-NCP 32-region soak site vs regional shard "
                "count (bench_federation; see docs/federation.md). "
                "shards=1 is the single global scheduler; every epoch "
                "passes the per-shard invariant checker plus the "
                "federation conservation check with the timer stopped.")

bench = entry["benchmarks"]

SPEEDUP = "speedup/shards8"
speedup = bench.get(SPEEDUP, 0.0)
print(f"{SPEEDUP}: {speedup:.2f}x (floor {min_speedup:.1f}x)")
if speedup < min_speedup:
    print(f"FAIL: 8-shard federation only {speedup:.2f}x the single "
          f"global scheduler — below the {min_speedup:.1f}x floor",
          file=sys.stderr)
    sys.exit(1)

clean = bench.get("all_checks_clean", 0.0)
print(f"all_checks_clean: {clean:.0f}")
if clean != 1.0:
    print("FAIL: a sampled epoch failed the federation conservation "
          "check — throughput numbers from corrupted state are void",
          file=sys.stderr)
    sys.exit(1)

GATE = "admissions_per_s/shards8"
if prev and GATE in prev["benchmarks"] and GATE in bench:
    base, now = prev["benchmarks"][GATE], bench[GATE]
    drop = 1.0 - now / base
    print(f"{GATE}: {base:.0f}/s ({prev['label']}) -> {now:.0f}/s "
          f"({-drop:+.2%}, budget -{tolerance:.0%})")
    if drop > tolerance:
        print(f"FAIL: {GATE} regressed {drop:.2%} vs '{prev['label']}' "
              f"— over the {tolerance:.0%} budget", file=sys.stderr)
        sys.exit(1)
EOF
