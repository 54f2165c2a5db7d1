#!/usr/bin/env python3
# Copyright (c) 2026 The plastream Authors. MIT license.
"""plastream's end-to-end benchmark: one command, three workloads.

Run from the root of a checkout:

  python3 perfbench/run.py --workload archive-slide --seed 1 --seconds 10 --trace 0

builds the library and the benchmark from source (Release) under
.bench_build/, writes the workload's prior archive for the seed once (cached
under .bench_build/work/archives/), and runs one measured restart of the
system. The last line of standard output is the JSON result; the line
before it records provenance (build type, SIMD ISA, nproc, seed, archive
filesystem, threads and connections). The exit code is 1 when the
correctness gate fails.

Two more modes serve the benchmark's own upkeep:

  python3 perfbench/run.py --repeat 10 [--workload W ...] [--seconds S]
      runs each workload on N seeds and prints, per metric, the median,
      the quartiles and the spread (q3 - q1) / median against the bound
      in BENCHMARK.json.
  python3 perfbench/run.py --smoke
      runs every workload at tiny sizes, traced and untraced, and fails
      unless each run is correct and reports every metric of
      BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORK = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD, "perfbench_e2e")
WORKLOADS = {"archive-slide": "slide", "fleet-tcp": "fleet",
             "dashboard-query": "slide"}
KEEP_SEEDS = 3  # prior-archive sets kept on disk
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "plastream.h")):
        log("no plastream sources under %s/src; run from a checkout root" % ROOT)
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def prior_archive(workload, seed, smoke):
    """Path of the workload's prior archive for `seed`, written on first use."""
    tag = "seed-%d%s" % (seed, "-smoke" if smoke else "")
    root = os.path.join(WORK, "archives")
    folder = os.path.join(root, tag)
    path = os.path.join(folder, WORKLOADS[workload] + ".plar")
    if os.path.isfile(path + ".segments"):
        os.utime(folder)
        return path
    os.makedirs(folder, exist_ok=True)
    tmp = path + ".tmp"
    cmd = [BINARY, "prepare", "--workload", workload, "--seed", str(seed),
           "--archive", tmp] + (["--smoke"] if smoke else [])
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    os.replace(tmp, path)
    os.replace(tmp + ".segments", path + ".segments")
    # Keep only the most recently used seeds' archives.
    sets = sorted((os.path.getmtime(os.path.join(root, d)), d)
                  for d in os.listdir(root))
    for _, stale in sets[:-KEEP_SEEDS]:
        shutil.rmtree(os.path.join(root, stale), ignore_errors=True)
    return path


def run_once(workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs one measured restart; returns (exit code, result dict or None)."""
    archive = prior_archive(workload, seed, smoke)
    run_dir = os.path.join(WORK, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--archive", archive, "--work", run_dir]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    # The archive copies are per run; the span file stays for inspection.
    for name in os.listdir(run_dir):
        if name.endswith(".plar"):
            os.remove(os.path.join(run_dir, name))
    lines = proc.stdout.strip().splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def repeat(args):
    bench = load_benchmark()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.repeat):
            seed = args.first_seed + i
            code, result = run_once(workload, seed, seconds, args.trace,
                                    echo=False)
            if code != 0 or result is None or not result["correct"]:
                log("%s seed %d failed (exit %d)" % (workload, seed, code))
                sys.exit(1)
            for name, v in result["metrics"].items():
                values.setdefault(name, []).append(v["value"])
            log("%s seed %d done" % (workload, seed))
        print("\n%s: %d runs of %ss" % (workload, args.repeat, seconds))
        print("%-46s %14s %14s %14s %8s %6s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "/bound"))
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            share = spread / bound if bound else 0.0
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print("%-46s %14.6g %14.6g %14.6g %8.4f %6s %6s" % (
                m["name"], med, q1, q3, spread,
                "%.2f" % bound if bound else "-",
                "%.2f" % share if bound else "-"))
    if not args.trace:
        print("\nlargest spread / bound (setup_s excluded): %.2f" % worst)


def smoke():
    bench = load_benchmark()
    wanted = {0: [m["name"] for m in bench["end_to_end"]],
              1: [m["name"] for m in bench["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_once(workload, 1, 1, trace, smoke=True,
                                    echo=False)
            missing = [] if result is None else [
                n for n in wanted[trace] if n not in result["metrics"]]
            good = code == 0 and result is not None and result["correct"] \
                and not missing
            print("smoke %-16s trace=%d: %s%s" % (
                workload, trace, "ok" if good else "FAILED (exit %d)" % code,
                " missing " + ",".join(missing) if missing else ""))
            ok = ok and good
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload on this many seeds")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        smoke()
    if args.repeat:
        repeat(args)
        return 0
    if not args.workload or len(args.workload) != 1 or not args.seconds:
        parser.error("one --workload and --seconds are required")
    code, result = run_once(args.workload[0], args.seed, args.seconds,
                            args.trace)
    if result is None and code == 0:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
