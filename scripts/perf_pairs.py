#!/usr/bin/env python3
"""Time two ks_perfbench builds against each other in alternating pairs.

    python3 scripts/perf_pairs.py --parent PARENT_BIN --change CHANGE_BIN \\
        --pr N --parent-commit SHA --workload serving-8n --seed 1 \\
        --pairs 10 [--workload ... --seed ...] [--out BENCH_perfbench.json]

Build each binary from its own checkout:
    cmake -S perfbench -B DIR -DCMAKE_BUILD_TYPE=Release
    cmake --build DIR --target ks_perfbench

For every (workload, seed) it runs --pairs pairs, one run of each binary
per pair, and alternates which binary goes first so a drifting host loads
both sides alike. Every run must report no errors, and each binary must
report one digest (the FNV hash of every modeled outcome) across all its
runs; a differing digest between the two binaries is printed, since a
change that claims no modeled effect must keep it.

It writes two rows per (workload, seed) into the ks-bench/1 report --out,
study "perfbench": role "parent" and role "change". pairs_faster counts
the pairs that role won on wall_s. Each row carries the median and
quartiles of wall_s, cpu_s and done_per_wall_s (inclusive method, so
q1 <= median <= q3) and the median peak_rss_mb. Each run is forked by a
shell, not by this interpreter, so peak_rss_mb is the workload's own.
Rows already in the file with the same (pr, role, workload, seed) are
replaced; every other row is kept, so the file accumulates one block of
rows per PR.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

STUDY = "perfbench"
SCHEMA = "ks-bench/1"
# Host metrics recorded as median and quartiles.
TIMED = ("wall_s", "cpu_s", "done_per_wall_s")


def run_once(binary, workload, seed):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    # Linux folds the pre-exec address space's RSS high-water mark into the
    # exec'd program's ru_maxrss, so a binary exec'd from this interpreter's
    # fork reports max(interpreter RSS, its own) as peak_rss_mb. A shell
    # forks the binary instead (it is not the script's last command, so the
    # shell cannot exec it in place), and the pre-exec image is the shell's.
    proc = subprocess.run(["sh", "-c", '"$0" "$@"; exit $?'] + cmd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perf_pairs: %s failed (exit %d): %s"
                 % (" ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    rep = json.loads(lines[-1])
    if rep["errors"]:
        sys.exit("perf_pairs: %s reported errors: %s"
                 % (" ".join(cmd), rep["errors"]))
    return rep


def summarize(reps, wins, args, role, workload, seed):
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        sys.exit("perf_pairs: %s digest differs between runs of %s seed %d: "
                 "%s" % (role, workload, seed, sorted(digests)))
    row = {
        "pr": args.pr,
        "role": role,
        "parent_commit": args.parent_commit,
        "workload": workload,
        "seed": seed,
        "pairs": len(reps),
        "pairs_faster": wins,
    }
    for name in TIMED:
        values = [r["host"][name] for r in reps]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        row.update({name + "_median": median, name + "_q1": q1,
                    name + "_q3": q3})
    row["peak_rss_mb_median"] = statistics.median(
        r["host"]["peak_rss_mb"] for r in reps)
    row["digest"] = digests.pop()
    return row


def measure(args, workload, seed):
    parent, change = [], []
    for i in range(args.pairs):
        if i % 2 == 0:
            parent.append(run_once(args.parent, workload, seed))
            change.append(run_once(args.change, workload, seed))
        else:
            change.append(run_once(args.change, workload, seed))
            parent.append(run_once(args.parent, workload, seed))
    change_wins = sum(c["host"]["wall_s"] < p["host"]["wall_s"]
                      for p, c in zip(parent, change))
    parent_wins = sum(p["host"]["wall_s"] < c["host"]["wall_s"]
                      for p, c in zip(parent, change))
    rows = [summarize(parent, parent_wins, args, "parent", workload, seed),
            summarize(change, change_wins, args, "change", workload, seed)]
    p, c = rows
    note = "" if p["digest"] == c["digest"] else "  DIGEST DIFFERS"
    print("%-10s seed %-5d change faster %d/%d%s"
          % (workload, seed, change_wins, args.pairs, note), flush=True)
    for name in TIMED:
        print("    %-15s parent %.4g [%.4g-%.4g]  change %.4g [%.4g-%.4g]"
              "  %+.1f%%"
              % (name, p[name + "_median"], p[name + "_q1"],
                 p[name + "_q3"], c[name + "_median"], c[name + "_q1"],
                 c[name + "_q3"],
                 100.0 * (c[name + "_median"] / p[name + "_median"] - 1.0)),
              flush=True)
    # The untimed host metrics, medians parent -> change, for the record.
    print("    " + "  ".join(
        "%s %.6g -> %.6g" % (name,
                             statistics.median(r["host"][name]
                                               for r in parent),
                             statistics.median(r["host"][name]
                                               for r in change))
        for name in ("setup_s", "peak_rss_mb")), flush=True)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent ks_perfbench")
    parser.add_argument("--change", required=True, help="changed ks_perfbench")
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", action="append", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", default="BENCH_perfbench.json")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")

    rows = []
    for workload in args.workload:
        for seed in args.seed:
            rows.extend(measure(args, workload, seed))

    report = {"schema": SCHEMA, "study": STUDY, "rows": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            report = json.load(f)
    fresh = {(r["pr"], r["role"], r["workload"], r["seed"]): r for r in rows}
    kept = [r for r in report["rows"]
            if (r.get("pr"), r.get("role"), r.get("workload"),
                r.get("seed")) not in fresh]
    report["rows"] = kept + rows
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print("perf_pairs: wrote %d rows to %s" % (len(rows), args.out))


if __name__ == "__main__":
    main()
