#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <bulk|echo|churn|sim> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) built
against the repository's crates by path, into $CARGO_TARGET_DIR
(default: .bench_build). Build output goes to standard error; standard
output is the benchmark's report, ending with one JSON result line. The
exit code is the benchmark's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    sys.stdout.flush()
    run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
