#!/usr/bin/env python3
"""Builds the benchmark and the daemon under test from source, then runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cold_verify --seed 1 --seconds 20 --trace 0

Every argument is passed on to the `perfbench` binary (see
perfbench/src/main.rs and perfbench/NOTES.md). Cargo's output goes to
stderr; the binary's last line of stdout is the result JSON. Builds go to
$CARGO_TARGET_DIR, or to .bench_build when it is unset.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet", "--bins",
            "--manifest-path", os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
