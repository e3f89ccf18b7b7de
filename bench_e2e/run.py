#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see bench_e2e/README.md).

  python3 bench_e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 bench_e2e/run.py --all [--jsonl FILE] [main.exe flags]
  python3 bench_e2e/run.py compare PARENT.jsonl CHANGE.jsonl

The first form builds bench_e2e/main.exe with dune in the checkout this
script sits in and runs one workload; its last stdout line is the JSON
result.  --all runs every workload of BENCHMARK.json, one process
after another, and appends one record per run to --jsonl.  compare
applies the gain and no-regression rules to two such files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "bench_e2e", "main.exe")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit("run.py: %s has no %s; run from a full checkout" % (ROOT, need))
    # dune reports progress and errors on stderr; stdout stays for the result.
    built = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "./bench_e2e/main.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)


def run_all(argv):
    p = argparse.ArgumentParser(prog="run.py --all")
    p.add_argument("--all", action="store_true")
    p.add_argument("--jsonl", help="append one record per run to this file")
    args, rest = p.parse_known_args(argv)
    build()
    status = 0
    for w in spec()["workloads"]:
        done = subprocess.run([EXE, "--workload", w["name"]] + rest,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        if args.jsonl:
            record = {"workload": w["name"], "args": rest, "result": result}
            with open(args.jsonl, "a") as f:
                f.write(json.dumps(record) + "\n")
    return status


def values(path):
    """{(workload, metric): [value, ...]} over untraced records, in file order."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            args = rec.get("args", [])
            if "--trace" in args and args[args.index("--trace") + 1] == "1":
                continue
            for name, m in rec["result"]["metrics"].items():
                out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def row(parent, change, better, bound):
    """One (metric, workload) row: the pairs are (parent[i], change[i]),
    run alternately.  A gain needs >= 10 pairs, a win share >= 0.9 (ties
    count for neither side) and a median gap above the parent's
    interquartile range; otherwise the change may be no worse than the
    bound, and a parent spread above the bound leaves it unresolved
    unless every change run beats every parent run."""
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    wins = sum(1 for p, c in zip(parent, change) if beats(c, p))
    losses = sum(1 for p, c in zip(parent, change) if beats(p, c))
    qp, qc = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    iqr, med_p, med_c = qp[2] - qp[0], qp[1], qc[1]
    worse = (med_c - med_p) / med_p * (1 if better == "lower" else -1)
    if n < 10:
        verdict = "too few pairs"
    elif wins >= 0.9 * n and beats(med_c, med_p) and abs(med_c - med_p) > iqr:
        verdict = "gain"
    elif iqr / med_p > bound:
        every = all(beats(c, p) for c in change for p in parent)
        verdict = "better in every run" if every else "unresolved"
    else:
        verdict = "regression" if worse > bound else "no regression"
    return (n, "%.4g [%.4g, %.4g]" % (med_p, qp[0], qp[2]),
            "%.4g [%.4g, %.4g]" % (med_c, qc[0], qc[2]),
            "%+.2f%%" % (100 * (med_c - med_p) / med_p),
            "%d/%d/%d" % (wins, n - wins - losses, losses), verdict)


def compare(argv):
    if len(argv) != 2:
        sys.exit("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
    parent, change = values(argv[0]), values(argv[1])
    s = spec()
    status = 0
    fmt = "%-24s %-16s %5s %28s %28s %8s %8s  %s"
    print(fmt % ("metric", "workload", "pairs", "parent median [q1, q3]",
                 "change median [q1, q3]", "delta", "w/t/l", "verdict"))
    for m in s["end_to_end"]:
        for w in s["workloads"]:
            key = (w["name"], m["name"])
            p, c = parent.get(key, []), change.get(key, [])
            if min(len(p), len(c)) < 2:
                print(fmt % (m["name"], w["name"], 0, "-", "-", "-", "-", "no data"))
                continue
            r = row(p, c, m["better"], m["bound"])
            if r[-1] == "regression":
                status = 1
            print(fmt % ((m["name"], w["name"]) + r))
    return status


def main(argv):
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if "--all" in argv:
        return run_all(argv)
    build()
    return subprocess.run([EXE] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
