#!/usr/bin/env python3
"""Session replay benchmark.

Builds perfbench/replay.exe from source with dune, runs one workload and
passes its output through. The last line of stdout is the JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N]

Run it from the root of a source tree. Session files and traces go to
.perfbench_out/ there. Exits non-zero, without a result line, when the
tree cannot be built or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "replay.exe")
WORKLOADS = ["whatif_skew", "edit_churn", "approx_blocks", "restart_tail"]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def git_rev():
    """The commit of the tree, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no %s in %s: run from the root of the source tree" % (need, ROOT))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/replay.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed (dune exit %d)" % r.returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")
    build()
    if a.selftest:
        args = ["--selftest", "--seed", str(a.seed)]
    else:
        args = ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--git-rev", git_rev()]
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT,
                           stdout=subprocess.PIPE, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        die("run timed out", 3)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        die("replay exited %d" % r.returncode, r.returncode)
    if not a.selftest:
        lines = r.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            die("no result line", 3)
        if not result.get("correct"):
            print("perfbench: some answers failed their checks", file=sys.stderr)


if __name__ == "__main__":
    main()
