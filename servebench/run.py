#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 servebench/run.py --workload library_search --seed 1 \
        --seconds 30 --trace 0

Run it from the root of a checkout. The benchmark and the system's
sources (../src) are compiled with CMake into the directory named by
CARGO_TARGET_DIR (default .bench_build); the run's work files go under
.servebench_run and traced-run spans under .servebench_out. The last line
of stdout is the JSON result; build output goes to stderr.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_fingerprint():
    """The git commit when run from a git checkout, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        if sha:
            return "git:" + sha
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "servebench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "servebench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "daemon", "query_server.cc")):
        print("servebench: the system's sources (src/) are missing; nothing to "
              "build", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("servebench: build failed", file=sys.stderr)
        return 2
    env = dict(os.environ, SERVEBENCH_SOURCE=source_fingerprint())
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
