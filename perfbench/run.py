#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built offline with
`cargo build --release` into $CARGO_TARGET_DIR (default `.bench_build`),
then run with the same arguments. Its standard output passes through; the
last line is the result object. Exits non-zero, without a result, when the
build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run `cmd` to completion; kill it (and wait) if it overstays."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} exceeded {timeout} s")
    return proc.returncode, out


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        sys.exit(f"perfbench: build failed (exit {code})")
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    code, out = run([exe] + sys.argv[1:], RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        sys.exit(f"perfbench: run failed (exit {code})")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit("perfbench: the run printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result")


if __name__ == "__main__":
    main()
