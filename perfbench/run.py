#!/usr/bin/env python3
"""Builds and runs the Debuglet benchmark.

    python3 perfbench/run.py --workload measure_loop|purchase_batch|probe_ring
                             --seed N [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the libraries under src/)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs only rebuild what changed. Build output goes to standard
error, so the last line of standard output is the run's JSON result. A
traced run (--trace 1) writes its spans next to the build, under spans/.

The command line is strict: an unknown workload or flag, a missing seed or
a malformed value exits 2 with the usage line before anything is built.
"""

import fcntl
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("measure_loop", "purchase_batch", "probe_ring")
USAGE = ("usage: run.py --workload measure_loop|purchase_batch|probe_ring "
         "--seed N [--seconds S] [--trace 0|1]")
RUN_TIMEOUT_S = 170


def usage_error(message):
    print(f"run.py: {message}\n{USAGE}", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    """Returns {flag: value}, exiting 2 on anything not exactly understood."""
    flags = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            usage_error(f"unknown argument '{flag}'")
        if flag in flags:
            usage_error(f"repeated flag {flag}")
        if i + 1 >= len(argv):
            usage_error(f"flag {flag} needs a value")
        flags[flag] = argv[i + 1]
        i += 2
    if flags.get("--workload") not in WORKLOADS:
        usage_error("--workload must be one of " + ", ".join(WORKLOADS))
    if not re.fullmatch(r"[0-9]{1,19}", flags.get("--seed", "")):
        usage_error("--seed N is required (a non-negative integer)")
    seconds = flags.setdefault("--seconds", "30")
    if not (re.fullmatch(r"[0-9]{1,4}", seconds)
            and 1 <= int(seconds) <= 3600):
        usage_error(f"bad --seconds '{seconds}' (1..3600)")
    if flags.setdefault("--trace", "0") not in ("0", "1"):
        usage_error(f"bad --trace '{flags['--trace']}'")
    return flags


def build(source_dir, build_dir):
    """Configures once and builds; returns the binary or exits 1."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(source_dir), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                # A half-configured tree would be reused by the next run.
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                sys.exit(1)
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", str(build_dir), "--target", "perfbench",
                "-j", jobs]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit(1)
    return build_dir / "perfbench"


def main():
    flags = parse(sys.argv[1:])
    source_dir = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (target / "perfbench").resolve()
    binary = build(source_dir, build_dir)

    command = [str(binary), "--workload", flags["--workload"],
               "--seed", flags["--seed"], "--seconds", flags["--seconds"],
               "--trace", flags["--trace"]]
    if flags["--trace"] == "1":
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans", str(
            spans / f"{flags['--workload']}-seed{flags['--seed']}.jsonl")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
