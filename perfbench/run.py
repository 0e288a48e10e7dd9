#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, as a Release
CMake build of perfbench/ (which compiles the library from src/). Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Traced runs (--trace 1) also write per-task call totals as CSV
under <build dir>/trace/.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, path))


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "operator.h")):
        sys.stderr.write("perfbench: library sources (src/) not found next "
                         "to perfbench/; run from a full checkout\n")
        return False
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        return 1
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        trace_dir = os.path.join(out, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-dir", trace_dir]
    sys.stdout.flush()
    proc = subprocess.run([os.path.join(out, "perfbench")] + args)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
