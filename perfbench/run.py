#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the repository root; every argument is passed to perfbench:

    python3 perfbench/run.py --workload suite-serial --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the traced run's span files all live
under .bench_build/ in the current directory, so a run reads and writes
nothing outside it. The build needs no network: the compiler module has no
dependencies and perfbench requires it through a local replace.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    os.makedirs(build, exist_ok=True)
    # The build's output goes to stderr, so stdout carries only the
    # benchmark's table and result line.
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=bench_dir, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Replace this process, so the benchmark is the only process left to
    # stop and its exit status is the command's.
    os.execv(binary, [binary, *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
