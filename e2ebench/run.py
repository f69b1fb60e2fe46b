#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 e2ebench/run.py --workload <alibi_serve|curved_regions|view_churn>
                            --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(e2ebench/Cargo.toml) that builds against the repository's crates by path,
into $CARGO_TARGET_DIR when set (e2ebench/target otherwise). Build output
goes to standard error; the benchmark's own output, whose last line is the
JSON result, to standard output. The exit code is the benchmark's, or the
build's when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "e2ebench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
