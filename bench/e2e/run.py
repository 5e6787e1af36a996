#!/usr/bin/env python3
"""Builds and runs the skern end-to-end benchmark.

Usage (from the repository root):
  python3 bench/e2e/run.py --workload webserver --seed 1 --seconds 10 --trace 0
  python3 bench/e2e/run.py --selfcheck

Configures and builds bench/e2e into $CARGO_TARGET_DIR/e2e (default
.bench_build/e2e under the repository root) with the fixed build type of
bench/e2e/CMakeLists.txt, then runs the benchmark binary with the given
arguments, adding the git sha and a digest of the sources for the host
stamp. Build output goes to stderr; the binary's stdout passes through
unchanged, so its last line is the result object. Exits non-zero, printing
no result, when the build fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir],
        ["cmake", "--build", out_dir, "--target", "skern_e2e", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def src_digest():
    """sha256 over the paths and bytes of every file under src/ and bench/e2e."""
    digest = hashlib.sha256()
    for top in ("src", os.path.join("bench", "e2e")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    out_dir = build_dir()
    if not build(out_dir):
        print("skern_e2e: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(out_dir, "skern_e2e")
    args = sys.argv[1:] + ["--git-sha", git_sha(), "--src-digest", src_digest()]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
