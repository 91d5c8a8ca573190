#!/usr/bin/env python3
"""Build the SERO simulator benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload host_mix --seed 1 --seconds 10 --trace 0

The build uses the checkout's own dune project (no shared dune cache);
the benchmark executable's output is passed through unchanged, so the
last line of stdout is the result object.  Exits non-zero, printing no
result, when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/serobench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "serobench.exe")


def main():
    # Keep every file the build writes inside the checkout.
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(ROOT, ".perfbench-out", "cache"),
    )
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, TARGET],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build did not complete: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
