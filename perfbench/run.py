#!/usr/bin/env python3
"""Host-performance benchmark of the ddio simulator.

Builds the simulator library from src/ together with ddio_perfbench into
.bench_build/ at the repository root, runs one workload (or all of them), checks
the results and prints every metric by name with its unit. The last line of
standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. Workloads, seeds and metrics are defined in perfbench/metrics.json.

  python3 perfbench/run.py --workload tc_small_read --seed 1000 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all

The exit code is 0 only when every repetition verified and repeated its exact
counts; it is 2 when the benchmark cannot build or run.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ddio_perfbench")
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; serialised by a lock file."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "ddio_perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")


def run_binary(workload, seed, extra):
    """Runs ddio_perfbench with the workload's generated configuration; returns
    its parsed last output line. Exit code 1 means a check failed, and the
    line reports it."""
    args = [BINARY, "--name", workload["name"], "--seed", str(seed)]
    for key, value in workload["config"].items():
        args += ["--" + key.replace("_", "-"), str(value)]
    try:
        done = subprocess.run(args + extra, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload['name']}: ddio_perfbench ran longer than {BINARY_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines or done.returncode not in (0, 1):
        fail(f"{workload['name']}: ddio_perfbench exited with code {done.returncode}")
    return json.loads(lines[-1])


def check_repeat(name, seed, counts):
    """Compares the exact counts with an earlier run of this build at this
    seed, recording them on the first run. Returns the mismatches."""
    with open(BINARY, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    directory = os.path.join(BUILD, "counts", build_id)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}-{seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        return [f"{key} = {counts.get(key)}, an earlier run at seed {seed} had {value}"
                for key, value in earlier.items() if counts.get(key) != value]
    scratch = f"{path}.{os.getpid()}"
    with open(scratch, "w") as f:
        json.dump(counts, f, indent=1, sort_keys=True)
    os.replace(scratch, path)
    return []


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (its result line, list of error strings)."""
    extra = ["--seconds", str(seconds), "--trace", str(trace)]
    spans_path = None
    if trace:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        spans_path = os.path.join(BUILD, "spans", f"{workload['name']}-{seed}.json")
        extra += ["--spans", spans_path]
    result = run_binary(workload, seed, extra)
    errors = list(result["errors"])
    mismatches = check_repeat(workload["name"], seed, result["counts"])
    if mismatches:
        result["failed"] += 1
        errors += [f"cross-run repeat: {m}" for m in mismatches]
    if spans_path:
        print(f"{workload['name']}: spans written to {os.path.relpath(spans_path, ROOT)}")
    return result, errors


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=spec["seed"]["default"])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")

    build()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    chosen = [w for w in spec["workloads"] if args.workload in (w["name"], "all")]
    correct, attempted, failed, metrics = True, 0, 0, {}
    print(f"seed {args.seed} (held-out seed for performance claims: "
          f"{spec['seed']['held_out']}), {args.seconds} s per workload, "
          f"trace {args.trace}")
    for workload in chosen:
        result, errors = run_workload(workload, args.seed, args.seconds, args.trace)
        values = result["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in listed if m["name"] not in values]
        if missing:
            fail(f"{workload['name']}: ddio_perfbench reported no {', '.join(missing)}")
        for error in errors:
            print(f"{workload['name']}: FAILED {error}", file=sys.stderr)
        correct = correct and not errors and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{workload['name']}: {result['attempted']} operations attempted, "
              f"{result['failed']} failed, {len(result['rep_wall_s'])} timed repetitions")
        for metric in listed:
            value = values[metric["name"]]
            print(f"  {metric['name']:<26} {value:>16.6g} {metric['unit']}")
            key = metric["name"] if len(chosen) == 1 else f"{workload['name']}.{metric['name']}"
            metrics[key] = {"value": value, "unit": metric["unit"]}
        raw = result["raw"]
        print(f"  (as measured, medians: wall {raw['median_wall_s']:.6g} s (fastest "
              f"{raw['fastest_wall_s']:.6g} s), setup {raw['setup_s']:.6g} s; host reference "
              f"{raw['timed_reference_s']:.4g} s and {raw['setup_reference_s']:.4g} s)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
