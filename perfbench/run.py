#!/usr/bin/env python3
"""Builds the layer-ladder benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload local-rsmi --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR (default: perfbench/target).  Build
output goes to stderr; the benchmark's own output (notes, then one JSON
result line) goes to stdout.  Exits non-zero without a result when the
build or the run fails, or when the run overstays its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 172


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isdir(os.path.join(HERE, os.pardir, "crates")):
        fail("the repository's crates/ directory is missing; run from a full checkout")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not complete: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S}s")
    except OSError as e:
        fail(f"cannot start {exe}: {e}")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
