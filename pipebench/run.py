#!/usr/bin/env python3
"""Build the pipeline and its benchmark from source, then run one workload.

Usage, from the repository root:

    python3 pipebench/run.py --workload <record|replay|serve|fabric> \
        --seed <n> --seconds <s> --trace <0|1> [--corrupt]

Both builds go to $CARGO_TARGET_DIR (default: .bench_build in the
repository root); their output goes to standard error. The last line
of standard output is the run's result as one JSON object. The exit
code is the benchmark's, or 1 when a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    builds = [
        # The service binary the serve and fabric workloads start.
        cargo + ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "tracedump"],
        cargo + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("pipebench: build failed", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "pipebench"),
        "--tracedump",
        os.path.join(release, "tracedump"),
        "--work",
        os.path.join(target, "pipebench"),
    ] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
