#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds a
Release tree in .bench_build/perfbench (build output goes to stderr); later
calls rebuild incrementally. All arguments are passed to the perfbench
binary, whose last stdout line is the result object (see README.md). The
exit code is the binary's, or 3 when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build() -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry from scratch
            return False
    compile_ = ["cmake", "--build", str(BUILD), "--target", "perfbench",
                "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"  # the benchmark checkout is not a git repository


def source_digest() -> str:
    """SHA-256 over the simulator and benchmark sources (path + content)."""
    h = hashlib.sha256()
    roots = [ROOT / "CMakeLists.txt", ROOT / "src", HERE]
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(p for p in root.rglob("*")
                         if p.is_file() and "__pycache__" not in p.parts)
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [str(BUILD / "perfbench"),
           "--digests", str(HERE / "digests.txt"),
           "--commit", commit(), "--source-digest", source_digest(),
           *sys.argv[1:]]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
