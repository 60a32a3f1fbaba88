#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload s1-dual-recv --seed 42 --seconds 20 --trace 0

The arguments go unchanged to perfbench/src/bench.exe, whose last line of
output is the JSON result. The build uses the checkout's own _build
directory with dune's shared cache off, so nothing is written outside
the checkout. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "src", "bench.exe")


def main() -> int:
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/src/bench.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
