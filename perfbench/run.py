#!/usr/bin/env python3
"""Build and run the full-reconfiguration benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload column_jitter --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --ladder
    python3 perfbench/run.py --write-reference

The script builds the `perfbench` package (a Cargo workspace of its own
with path dependencies on the repository's crates) in release mode into
$CARGO_TARGET_DIR, `.bench_build` under the working directory by default,
then runs it with the same arguments.  The benchmark's last line of
standard output is its JSON result.  A failed build, or a run that does
not end within RUN_TIMEOUT_S, exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    timeout = RUN_TIMEOUT_S if "--workload" in args else None
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + args, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {timeout} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
