#!/usr/bin/env python3
"""Determinism self-test for the serve benchmark.

    python3 perfbench/selftest.py [--seconds 3] [--seed 7] [WORKLOAD ...]

Runs each workload traced three times: twice with one seed and once with
the next.  The two same-seed runs must report identical exact counts;
the other seed must change at least one of them but leave every size
(requests per class, acknowledged elements, rounds) unchanged.  Exits 1
on any difference, or if a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

EXACT = [
    "accurate_block_reads", "quick_rel_err", "accurate_rel_err", "bytes_per_elem",
    "engine.bisect_iters", "wal.appends_per_elem", "wal.flushes_per_elem",
    "hist.merges", "hist.partitions", "sketch.tuples",
]
WORKLOADS = ["serve-read", "serve-mixed", "serve-sharded"]


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    path = os.path.join(".perfbench-work", "report-%s-seed%d-trace1.json" % (workload, seed))
    if out.returncode != 0:
        sys.exit("selftest: %s seed %d failed (exit %d), see %s"
                 % (workload, seed, out.returncode, path))
    with open(path) as f:
        rep = json.load(f)
    exact = {k: rep["metrics"][k]["value"] for k in EXACT}
    return exact, rep["sizes"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for w in args.workloads:
        a, sa = run(w, args.seed, args.seconds)
        b, sb = run(w, args.seed, args.seconds)
        c, sc = run(w, args.seed + 1, args.seconds)
        same = [k for k in EXACT if a[k] != b[k]]
        moved = [k for k in EXACT if a[k] != c[k]]
        sizes = sa == sb == sc
        print("%-14s same seed: %s; other seed moved %d/%d exact counts; sizes %s"
              % (w, "identical" if not same else "DIFFER in " + ", ".join(same),
                 len(moved), len(EXACT), "unchanged" if sizes else "CHANGED"))
        for k in EXACT:
            print("    %-24s %-22r %-22r %r" % (k, a[k], b[k], c[k]))
        ok = ok and not same and bool(moved) and sizes
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
