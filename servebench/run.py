#!/usr/bin/env python3
"""Entry point of the serving benchmark.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the servebench host binary from the checkout's own sources
(CMake, Release) into $CARGO_TARGET_DIR/servebench, or
.bench_build/servebench when that is unset, runs one workload, and
re-prints the driver's result JSON as the last line of stdout. Exits
non-zero without printing a result when the sources are missing, the
build fails, or the driver fails. Build output goes to stderr.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "epoch_server.cpp")):
        fail(f"no hbn sources under {ROOT}/src; run from a full checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    binary_dir = os.path.join(build_dir, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", binary_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", binary_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(binary_dir, "servebench")


def source_id():
    """Commit stamp: the git HEAD when the checkout has one, plus a hash of
    the sources the binary is built from (a plain checkout has no git)."""
    digest = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    head = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            head = probe.stdout.strip()
    return f"{head}+src:{digest.hexdigest()[:12]}"


def with_units(result, trace):
    """Attaches each metric's unit from BENCHMARK.json, the one place
    names and units are declared. A correct run must report exactly the
    declared metrics, each a finite number; a failed run may miss some,
    which read 0. Returns None for a malformed result."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace == "1" else "end_to_end"]
    values = result["metrics"]
    names = {m["name"] for m in declared}
    if not set(values) <= names or (result["correct"] and set(values) != names):
        return None
    metrics = {}
    for m in declared:
        value = values.get(m["name"], 0)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return dict(result, metrics=metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    build_dir = build_root()
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", out_dir, "--commit", source_id()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver's last line is not JSON")
    result = with_units(result, args.trace)
    if result is None:
        fail("driver's result does not match BENCHMARK.json")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
