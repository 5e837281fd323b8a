#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <sweep|reuse|advisor|ingest> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a workspace of its own that depends on
the repository's crates by path) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload.
Cargo's output goes to standard error; the benchmark's last line of
standard output is its JSON result. Exits non-zero, without a result,
when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Settings that would change what the workloads compute or how the pool
# and server size themselves; the benchmark fixes these itself.
SCRUBBED_PREFIXES = ("RIVERA_", "PAD_QUICK")
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over every source file the benchmark builds from."""
    digest = hashlib.sha256()
    tops = ["Cargo.lock", "crates", os.path.join("perfbench", "src"),
            os.path.join("perfbench", "Cargo.toml"),
            os.path.join("perfbench", "Cargo.lock")]
    files = []
    for top in tops:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(top)
        for base, dirs, names in os.walk(path):
            dirs.sort()
            for name in sorted(names):
                if name.endswith((".rs", ".toml", ".lock", ".spec", ".txt")):
                    files.append(os.path.relpath(os.path.join(base, name), ROOT))
    for rel in sorted(files):
        digest.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def command_output(args):
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(SCRUBBED_PREFIXES)}
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git_sha = command_output(["git", "-C", ROOT, "rev-parse", "HEAD"])
    env["PERFBENCH_GIT_SHA"] = git_sha or "none (not a git checkout)"
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"

    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
