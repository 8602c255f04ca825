#!/usr/bin/env python3
"""Build and run the standing end-to-end benchmark of the IMP system.

    python3 perfbench/run.py --workload mixed_lazy --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (which compiles src/) with
CMake in Release mode under $CARGO_TARGET_DIR (default .bench_build), runs
the helper self-test, then the benchmark binary for one workload, or for
all three with `--workload all`. The binary's output is passed through
unchanged, so the last line of standard output is the result JSON of the
(last) workload. Build messages go to standard error.

Exit codes: 0 on success, 1 when the benchmark found a failed operation
or a wrong answer, 2 on a usage, build or environment error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["mixed_lazy", "tpch_churn", "async_loaded"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the paths and contents of src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if name.endswith(".pyc"):
                    continue
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--parallel", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    selftest = os.path.join(build_dir, "perfbench_selftest")
    result = subprocess.run([selftest], capture_output=True, text=True,
                            timeout=60)
    if result.returncode != 0:
        sys.stderr.write(result.stdout + result.stderr)
        fail("helper self-test failed")


def json_metrics(root, trace):
    """Metric names BENCHMARK.json expects for this run kind, if present."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in (0, 3600]")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "middleware",
                                       "imp_system.h")):
        fail("the system sources (src/) are not in %s" % root)
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    build(root, build_dir)

    trace = args.trace == "1"
    metrics = json_metrics(root, trace)
    fingerprint = ["--git-sha", git_sha(root),
                   "--src-digest", source_digest(root)]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace] + fingerprint
        if metrics:
            cmd += ["--metrics", ",".join(metrics)]
        if trace:
            cmd += ["--trace-out", os.path.join(
                build_dir, "spans-%s-%d.jsonl" % (workload, args.seed))]
        sys.stdout.flush()
        try:
            code = subprocess.run(cmd, cwd=root,
                                  timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        if code != 0:
            print("perfbench: %s exited with code %d" % (workload, code),
                  file=sys.stderr)
            status = max(status, 1 if code == 1 else 2)
    sys.exit(status)


if __name__ == "__main__":
    main()
