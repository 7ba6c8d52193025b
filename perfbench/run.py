#!/usr/bin/env python3
"""Builds drsm_perfbench, the benchmark program, from source and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
libdrsm plus drsm_perfbench (Release, no -march=native) under the build root:
$CARGO_TARGET_DIR when set, else .bench_build.  Build output goes to
stderr, so the program's result stays the last line of stdout.  Extra
arguments (--tiny) are passed through to drsm_perfbench.  Exits non-zero,
without a result, when the sources cannot be built.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(build_dir):
    """Configures (once) and builds drsm_perfbench; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] +
                       generator, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "drsm_perfbench", "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "drsm_perfbench")


def source_id():
    """The git commit when the checkout is a repository, plus a digest of
    the sources drsm_perfbench is built from (a checkout without .git still
    gets a stable identity)."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s+src:%s" % (commit, digest.hexdigest()[:16])


def main():
    root = build_root()
    try:
        binary = build(os.path.join(root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1
    spans = os.path.join(root, "spans")
    os.makedirs(spans, exist_ok=True)
    # Thread counts are pinned by the workloads; no DRSM_* override applies.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRSM_")}
    command = [binary] + sys.argv[1:] + [
        "--ref-dir", os.path.join(HERE, "ref"), "--spans-dir", spans,
        "--commit", source_id()]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
