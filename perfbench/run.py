#!/usr/bin/env python3
"""Builds and runs bcdyn's repository benchmark.

    python3 perfbench/run.py --workload edge-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

The benchmark is a C++ program (bcbench.cpp) compiled together with the
library sources in ../src into .bench_build/ at the repository root; the
first run builds it, later runs rebuild only what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's result object.
Traced runs (--trace 1) also write their spans to
.bench_build/spans/<workload>-<seed>.jsonl.

--selfcheck runs every workload at a tiny size, with and without tracing,
and asserts that each metric BENCHMARK.json names is printed with its unit,
that the correctness gate passes on a healthy run, and that it fails when a
score is corrupted.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bcbench"
RUN_TIMEOUT_S = 170  # a run must end within 180 s, build excluded

TINY = ["--scale", "0.02", "--sources", "8", "--min-ops", "16",
        "--setup-reps", "2", "--seconds", "0.5"]


def build():
    """Configures on first use, then builds incrementally."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_bench(args):
    """Runs the binary; returns (exit code, stdout)."""
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selfcheck():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            tag = f"{workload} --trace {trace}"
            code, out = run_bench(["--workload", workload, "--seed", "7",
                                   "--trace", trace] + TINY)
            result = last_json(out)
            if code != 0 or not result or result.get("correct") is not True:
                problems.append(f"{tag}: healthy run failed (exit {code})")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result["attempted"] < 1:
                problems.append(f"{tag}: nothing attempted")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(wanted[trace].items()))
                problems.append(f"{tag}: missing {missing}, unexpected {extra}")
            print(f"selfcheck: {tag}: {len(got)} metrics ok", file=sys.stderr)
        code, out = run_bench(["--workload", workload, "--seed", "7",
                               "--trace", "0", "--corrupt"] + TINY)
        result = last_json(out)
        if code == 0 or not result or result.get("correct") is not False:
            problems.append(f"{workload}: corrupted score passed the gate")
        else:
            print(f"selfcheck: {workload}: corrupted score fails the gate",
                  file=sys.stderr)
    for p in problems:
        print(f"selfcheck FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selfcheck", action="store_true")
    opts = parser.parse_args()
    if not opts.selfcheck and not opts.workload:
        parser.error("--workload is required")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    if opts.selfcheck:
        return selfcheck()

    args = ["--workload", opts.workload, "--seconds", str(opts.seconds),
            "--trace", opts.trace]
    if opts.seed is not None:
        args += ["--seed", str(opts.seed)]
    if opts.trace == "1":
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        seed = "default" if opts.seed is None else opts.seed
        args += ["--spans", str(spans / f"{opts.workload}-{seed}.jsonl")]
    try:
        code, out = run_bench(args)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
