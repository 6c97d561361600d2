#!/usr/bin/env python3
"""Build the end-to-end sweep benchmark from source and run one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload fig2-50 --seed 1 --seconds 25 --trace 0

Configures and builds e2ebench/ (which compiles the mesh libraries from
src/) into $CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench, then
replaces itself with the benchmark binary. Build output goes to stderr; the
benchmark's last stdout line is its JSON result. Exits non-zero without a
result when the sources or the build are missing.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "e2ebench")
    configure = ["cmake", "-S", here, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (configure,
                 ["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("e2ebench: build failed: " + " ".join(step), file=sys.stderr)
            return 2
    binary = os.path.join(build_dir, "e2ebench")
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(build_dir, "out")]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
