#!/usr/bin/env python3
"""Serve benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0

It builds `hsq` and the load generator (perfbench/hsqbench.ml) from
source with dune, then runs the generator, which starts `hsq serve` as
its own process, drives it, checks every answer against an exact
oracle and prints one JSON result as its last line.  Everything it
writes stays under the checkout: build output in _build/, stores and
sockets in .perfbench-work/.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["serve-read", "serve-mixed", "serve-sharded"]
WORK = ".perfbench-work"
# The generator's own limit; the whole run must end within 180 s.
RUN_TIMEOUT_S = 170


def dune():
    path = shutil.which("dune")
    if path:
        return [path]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found on PATH")


def revision():
    """The checkout's git commit when it is a repository, else a digest
    of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(root, name)
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("perfbench: run from the root of an hsq source checkout", file=sys.stderr)
        return 2

    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune() + ["build", "--root", ".", "./bin/hsq_cli.exe", "./perfbench/hsqbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    root = os.getcwd()
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(root, WORK, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    report = os.path.join(root, WORK, "report-%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    cmd = [os.path.join(root, "_build", "default", "perfbench", "hsqbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--hsq", os.path.join(root, "_build", "default", "bin", "hsq_cli.exe"),
           "--work", work, "--commit", revision(), "--report", report]
    # Its own process group, so a timeout can stop the generator and
    # the daemon it started together.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    # Any straggler of the group (a daemon left behind by a crash):
    # kill it and wait, boundedly, until the group is empty.
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
