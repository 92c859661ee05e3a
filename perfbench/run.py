#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload claims_cold|serve_warm|serve_churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; every file the run writes stays there.  The
last stdout line is the result document (see perfbench/METRICS.md).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("claims_cold", "serve_warm", "serve_churn")
# A run measures for --seconds and spends the rest on set-up (several
# daemon starts or instance builds), oracles and the traced replays, which
# grow with the number of timed operations; a 30-second run takes about
# 36 seconds on a 4-core VM.
RUN_ALLOWANCE_S = 110


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(targets):
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target"] + targets,
                   check=True, stdout=log, stderr=log)
    return out


def source_digest():
    """Commit id when the tree is a git checkout, else a digest of the
    sources the build reads."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        out = build(["perfbench_test"] if args.self_test
                    else ["perfbench", "factcheck_serve"])
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(out, "perfbench_test")]).returncode

    work_dir = os.path.join(out, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--serve", os.path.join(out, "factcheck", "factcheck_serve"),
               "--work-dir", os.path.relpath(work_dir, ROOT)]
    env = dict(os.environ, PERFBENCH_COMMIT=source_digest())
    # The benchmark program and the daemon it forks share a fresh process
    # group, so nothing outlives the run even if the program dies.
    bench = subprocess.Popen(command, cwd=ROOT, env=env,
                             start_new_session=True)
    try:
        code = bench.wait(timeout=2 * args.seconds + RUN_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        stop_group(bench)
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


def stop_group(bench):
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(bench.pid, sig)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            bench.poll()
            try:
                os.killpg(bench.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)
    bench.wait()


if __name__ == "__main__":
    sys.exit(main())
