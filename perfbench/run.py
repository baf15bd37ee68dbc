#!/usr/bin/env python3
"""Full-stack KubeShare benchmark.

    python3 perfbench/run.py --workload paper-8n --seed 1 --seconds 25 --trace 0

Builds perfbench/ (and the simulator sources in ../src it links) with CMake,
then runs the chosen workload in fresh processes, one repetition each, for
--seconds seconds. Each repetition checks its own outputs; this script also
checks that every repetition produced byte-identical modeled outcomes.

--trace 0 prints the end-to-end metrics: host costs as the median over
repetitions, modeled outcomes (identical in every repetition) as measured.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics, plus the tracing overhead (traced / untraced wall_s); a
traced repetition must reproduce the untraced modeled outcome exactly.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Metric names and units come from BENCHMARK.json at the repository
root. See perfbench/README.md.
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
WORKLOADS = ("paper-8n", "scale-128n", "serving-8n")
MIN_REPS = 3        # per kind (untraced / traced) of repetition
MAX_REPS = 40
REP_TIMEOUT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds ks_perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs,
                 "--target", "ks_perfbench"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)
    return os.path.join(build_dir, "ks_perfbench")


def run_rep(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: no output from", " ".join(cmd), proc.stderr[-2000:])
        sys.exit(2)
    rep = json.loads(lines[-1])
    if proc.returncode != 0 and not rep["errors"]:
        rep["errors"] = ["exit code %d" % proc.returncode]
    return rep


def run_reps(binary, workload, seed, seconds, trace):
    """Repeats until the time is used; with trace, alternates kinds."""
    kinds = [False, True] if trace else [False]
    reps = {kind: [] for kind in kinds}
    start = time.monotonic()
    deadline = start + seconds
    rounds = 0
    while rounds < MAX_REPS:
        if rounds >= MIN_REPS:
            per_round = (time.monotonic() - start) / rounds
            if time.monotonic() + per_round > deadline:
                break
        for kind in kinds:
            reps[kind].append(run_rep(binary, workload, seed, kind))
        rounds += 1
    return reps


def median(reps, block, name):
    return statistics.median(r[block][name] for r in reps)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    seed = args.seed % (1 << 64)
    reps = run_reps(binary, args.workload, seed, args.seconds, args.trace)
    untraced = reps[False]
    every = [r for kind in reps.values() for r in kind]

    problems = sorted({e for r in every for e in r["errors"]})
    digests = {r["digest"] for r in every}
    if len(digests) != 1:
        problems.append("modeled outcome differs between repetitions: %s"
                        % sorted(digests))

    first = untraced[0]
    metrics = {}
    if args.trace:
        traced = reps[True]
        overhead = (median(traced, "host", "wall_s") /
                    median(untraced, "host", "wall_s"))
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "bench.trace_overhead":
                value = overhead
            elif all(name in r["layers"] for r in traced):
                value = median(traced, "layers", name)
            else:
                problems.append("per-layer metric missing: " + name)
                continue
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            name = m["name"]
            block = "host" if name in first["host"] else "modeled"
            metrics[name] = {"value": median(untraced, block, name),
                             "unit": m["unit"]}

    # Human-readable report; programs read only the last line.
    print("perfbench %s seed %d: %d repetition(s)%s, modeled digest %s"
          % (args.workload, seed, len(untraced),
             " + %d traced" % len(reps[True]) if args.trace else "",
             first["digest"]))
    print("  wall_s per repetition:",
          " ".join("%.3f" % r["host"]["wall_s"] for r in untraced))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        modeled = first["modeled"]
        print("  %-40s %14.6g ratio" % ("failed_ratio",
                                        1.0 - modeled["done_ratio"]))
        print("  %-40s %14.6g ratio" % ("slo_violation_rate",
                                        1.0 - modeled["slo_ok_ratio"]))
        for name, value in first["counts"].items():
            print("  %-40s %14d count" % (name, value))
    for p in problems:
        print("  CHECK FAILED:", p)

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
