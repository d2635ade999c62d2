#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <ingest|train|query> --seed <n> \
        --seconds <s> --trace <0|1>

The binary is built into $CARGO_TARGET_DIR (default `.bench_build` under
the current directory). Its standard output is passed through only when
it exits cleanly, so its last line is the result object; a failed build
or run exits non-zero without printing a result.
"""

import os
import pathlib
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    here = pathlib.Path(__file__).resolve().parent
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(here / "Cargo.toml"),
    ]
    try:
        subprocess.run(build, env=env, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"
    try:
        run = subprocess.run([str(binary), *sys.argv[1:]], env=env,
                             stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, OSError) as e:
        # subprocess.run kills and reaps the child on timeout
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
