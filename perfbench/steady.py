#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the self-test (every correctness check against corrupted result
streams, and the genuine output on two seeds), then two sets of runs of the
same code. Each set runs every workload of BENCHMARK.json --runs times on
seeds 1..runs, alternating the workload order between passes so host drift
and warm-up spread over all workloads; every run checks its results against
the reference. Prints, per set, workload and end-to-end metric, the median,
the quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median and
the metric's bound, then how far the second set's median lies from the
first's in the metric's worse direction, against the same bound.

Each run line also shows the host's steal time over the run (the `steal`
column of /proc/stat, as a share of wall time x CPUs): timings of a run the
hypervisor disturbed are flagged STEAL, not left out.

Usage (from the repository root):
    python3 perfbench/steady.py [--runs 10] [--seconds S]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STEAL_FLAG = 0.02  # share of wall x CPUs above which a run is flagged


def steal_s():
    """Host steal time so far, summed over CPUs, in seconds (0 if unread)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s" % " ".join(args))
    return json.loads(lines[-1])


def run_set(spec, workloads, runs, seconds, label):
    """Runs one set; returns (values[w][metric], failed[w], correct)."""
    metrics = spec["end_to_end"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    failed = {w: [0, 0] for w in workloads}
    ok = True
    cpus = os.cpu_count() or 1
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = i + 1
            start, steal0 = time.time(), steal_s()
            res = run(["--workload", w, "--seed", str(seed), "--seconds",
                       str(seconds), "--trace", "0"])
            wall = time.time() - start
            steal = (steal_s() - steal0) / (wall * cpus)
            ok = ok and res["correct"]
            failed[w][0] += res["failed"]
            failed[w][1] += res["attempted"]
            for m in metrics:
                values[w][m["name"]].append(res["metrics"][m["name"]]["value"])
            print("%s run %2d %-13s seed %3d %5.1f s steal %5.2f%%%s "
                  "correct=%s  %s" %
                  (label, i, w, seed, wall, 100 * steal,
                   " STEAL" if steal > STEAL_FLAG else "", res["correct"],
                   " ".join("%.4g" % res["metrics"][m["name"]]["value"]
                            for m in metrics)),
                  flush=True)
    return values, failed, ok


def flag(value, bound):
    if value < bound / 3:
        return "ok"
    return "WIDE" if value >= bound else "over 1/3"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    opts = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--selftest"], stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    print(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0:
        print(proc.stdout)
        return 1

    sets = [run_set(spec, workloads, opts.runs, opts.seconds, "set %d" % s)
            for s in (1, 2)]
    ok = all(s[2] for s in sets)
    medians = []
    for s, (values, failed, _) in enumerate(sets, 1):
        print("\nset %d\n%-13s %-18s %14s %14s %14s %8s %6s" %
              (s, "workload", "metric", "median", "q1", "q3", "spread",
               "bound"))
        med = {}
        for w in workloads:
            for m in metrics:
                v = values[w][m["name"]]
                med[w, m["name"]] = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med[w, m["name"]]
                print("%-13s %-18s %14.6g %14.6g %14.6g %8.4f %6s %s" %
                      (w, m["name"], med[w, m["name"]], q1, q3, spread,
                       m["bound"], flag(spread, m["bound"])))
            print("%-13s failed share %d/%d" % (w, failed[w][0], failed[w][1]))
        medians.append(med)

    print("\nset 2 median against set 1 (share worse; negative = better)")
    for w in workloads:
        for m in metrics:
            a, b = medians[0][w, m["name"]], medians[1][w, m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            print("%-13s %-18s %14.6g %14.6g %8.4f %6s %s" %
                  (w, m["name"], a, b, worse, m["bound"],
                   flag(max(worse, 0.0), m["bound"])))
    shares = [[f[w][0] / f[w][1] for w in workloads] for _, f, _ in sets]
    print("failed shares equal in both sets: %s" % (shares[0] == shares[1]))
    print("all runs correct" if ok else "SOME RUNS INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
