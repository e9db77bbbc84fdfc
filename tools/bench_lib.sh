# Shared plumbing of the tools/bench_*.sh trajectory recorders.  Source it
# from the repo root, then:
#
#   bench_setup <script> "$@"   sets LABEL (argument 1, required) and BUILD
#                               (argument 2, default "build"), and SCRATCH,
#                               a temp file removed on any exit
#   bench_run <target> [args]   builds bench/<target> in BUILD and runs it
#                               with SPARCLE_BENCH_JSON=$SCRATCH
#
# The recorder's own Python then appends the entry with
# tools/bench_record.py and applies its gates.

bench_setup() {
  local script="$1"
  shift
  LABEL="${1:?usage: ${script} <label> [build-dir]}"
  BUILD="${2:-build}"
  SCRATCH="$(mktemp /tmp/sparcle-bench-XXXX.json)"
  # Clean up the scratch file on any exit; on SIGINT/SIGTERM re-raise after
  # cleanup so callers still observe a signal death, not a plain exit.
  trap 'rm -f "${SCRATCH}"' EXIT
  trap 'exit 130' INT
  trap 'exit 143' TERM
}

bench_run() {
  local target="$1"
  shift
  cmake --build "${BUILD}" -j "$(nproc 2>/dev/null || echo 2)" \
        --target "${target}" >/dev/null
  SPARCLE_BENCH_JSON="${SCRATCH}" "./${BUILD}/bench/${target}" "$@"
}
