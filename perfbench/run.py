#!/usr/bin/env python3
"""Build and run the UPaRC simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-random --seed 20120312 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

The benchmark program (``perfbench/src``) is built in release mode into
``$CARGO_TARGET_DIR`` (default ``.bench_build`` at the repository root),
then run once per workload in its own process. It checks its outputs and
prints one result object as the last line of standard output; this script
checks that object's shape against ``BENCHMARK.json`` and prints it last,
after the program's own lines and the run's provenance.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet-random", "fleet-locality", "fleet-chaos", "service"]
DEFAULT_SEED = 20120312
# Each workload run must finish within 180 s.
RUN_TIMEOUT_S = 170
# glibc's default mmap threshold, set explicitly so glibc stops raising
# it at run time: otherwise whether a freed multi-megabyte block is
# unmapped depends on allocation order, and the service's peak RSS
# flipped between ~9 and ~17 MB from run to run.
BENCH_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        # Cargo reports on stderr; standard output stays the benchmark's.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "uparc-perfbench")


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def provenance():
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {"rustc": command_output(["rustc", "--version"]), "commit": commit}


def expected_metrics(trace):
    """Metric name -> unit the result must carry, from BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, **BENCH_ENV), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"{workload}: exited with code {done.returncode} and no output")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: exited with code {done.returncode}; last line is not a result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    units = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if units is not None and got != units:
        differ = sorted(set(units.items()) ^ set(got.items()))
        fail(f"{workload}: metrics differ from BENCHMARK.json: {differ}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            result["correct"] = False
            print(f"check {name} is a finite number: FAILED")
    if done.returncode != 0:
        result["correct"] = False
    detail = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("detail "):
            key, _, value = line[len("detail "):].partition(": ")
            detail[key] = value
    return result, detail


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    origin = provenance()
    for key, value in origin.items():
        print(f"provenance {key}: {value}")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    checksums = {}
    for w in workloads:
        print(f"== {w}")
        result, detail = run_workload(binary, w, args.seed, args.seconds,
                                      args.trace == 1)
        results[w] = result
        if "checksum" in detail:
            checksums[w] = detail["checksum"]
    if args.workload != "all":
        result = results[args.workload]
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)

    # Both quiet fleets serve the same image multiset, so their folds agree.
    same = checksums.get("fleet-random") == checksums.get("fleet-locality")
    print(f"check fleet-random and fleet-locality fold to one checksum: "
          f"{'ok' if same else 'FAILED'}")
    print(f"{'metric':<28}" + "".join(f"{w:>18}" for w in workloads) + "  unit")
    names = list(results[workloads[0]]["metrics"])
    for name in names:
        unit = results[workloads[0]]["metrics"][name]["unit"]
        cells = "".join(f"{results[w]['metrics'][name]['value']:>18.6g}" for w in workloads)
        print(f"{name:<28}{cells}  {unit}")
    correct = same and all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results, "provenance": origin}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
