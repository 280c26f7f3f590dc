#!/usr/bin/env python3
"""Build and run the revkb benchmark from the root of a source checkout.

    python3 revbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark executable and the revkb CLI with dune (into
_build/ of the checkout), then runs the benchmark with the same
arguments.  Its standard output is passed through unchanged; the last
line is the JSON result.  Exits non-zero, printing no result, when the
checkout holds no buildable revkb sources or the benchmark fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
TARGETS = ["./revbench/main.exe", "./bin/revkb.exe"]


def fail(msg):
    print("revbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from the root of a revkb checkout" % need)
    # Keep every write inside the checkout: no shared dune cache, and the
    # compilers' temporary files under .revbench_tmp/.
    tmp = os.path.join(ROOT, ".revbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
        cwd=ROOT,
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp),
    )
    if build.returncode != 0:
        fail("dune build failed (exit %d)" % build.returncode)
    exe = os.path.join(ROOT, "_build", "default", "revbench", "main.exe")
    # One job: the host is shared, and a parallel section waits for the
    # busier core (see README.md).
    env = dict(os.environ, REVKB_JOBS="1")
    run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
