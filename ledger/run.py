#!/usr/bin/env python3
"""Builds and runs the admission-ledger benchmark.

    python3 ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The benchmark is compiled from
ledger/ and src/ into $CARGO_TARGET_DIR/ledger (default .bench_build/ledger);
the first run configures and builds, later runs only check the build is
current.  Prints a host fingerprint line, one line per operation kind, and
last the result JSON.  A traced run (--trace 1) also writes a Chrome trace
into the build directory.  Extra arguments (--tiny, --ops <n>) are passed
to the benchmark binary unchanged.
"""

import argparse
import os
import platform
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("site_scale", "population", "service_mix")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"ledger: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "ledger")


def build(bdir):
    """Configures (once) and builds the benchmark; cmake output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "scheduler.cpp")):
        fail("the SPARCLE sources (src/) are not in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "ledger"), "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed", 1)
    cmd = ["cmake", "--build", bdir, "--target", "ledger", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed", 1)


def fingerprint(bdir):
    """CPU model, nproc, compiler, build type and source revision."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"(\w+):\w+=(.*)", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = os.path.basename(cache.get("CMAKE_CXX_COMPILER", "c++"))
    try:
        out = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"],
                             capture_output=True, text=True, timeout=10).stdout
        compiler = out.splitlines()[0].strip() if out else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    return (f"host cpu={cpu!r} nproc={os.cpu_count()} compiler={compiler!r} "
            f"build={cache.get('CMAKE_BUILD_TYPE', '?')} rev={rev}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = ap.parse_known_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    bdir = build_dir()
    build(bdir)
    cmd = [os.path.join(bdir, "ledger"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace] + extra
    if args.trace == "1":
        trace_file = os.path.join(
            bdir, f"trace-{args.workload}-{args.seed}.json")
        cmd += ["--trace-out", trace_file]
        print(f"ledger: Chrome trace -> {trace_file}", file=sys.stderr)
    print(fingerprint(bdir), flush=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S}s", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
