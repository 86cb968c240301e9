#!/usr/bin/env python3
"""Whole-run host benchmark for the CMCP simulator.

Builds the `perfbench` package from source, runs one workload for the
requested time and prints the result as the last line of standard
output: one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The printed metric names and units are checked against
BENCHMARK.json: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.

    python3 perfbench/run.py --workload cg_share --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

`--self-test` runs with a tampered expected digest and exits non-zero
unless every operation is reported as failed.

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default: .bench_build).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver allows 180 s per run; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(ROOT, target, "release", "perfbench")


def run(binary, args):
    """Runs the binary and returns its parsed result line."""
    try:
        proc = subprocess.run([binary, *args], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"the benchmark exited with code {proc.returncode}")
    return json.loads(lines[-1])


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def self_test(binary):
    """A wrong expected digest must fail every operation: once where the
    digest is pinned, once where it comes from the 1-thread reference."""
    for workload, seed in (("lu_tiered", "0"), ("cg_share", "7")):
        result = run(binary, ["--workload", workload, "--seed", seed,
                              "--seconds", "1", "--trace", "0", "--tamper"])
        caught = (not result["correct"] and result["attempted"] >= 2
                  and result["failed"] == result["attempted"])
        print(f"self-test {workload} seed {seed}: {result['failed']}/"
              f"{result['attempted']} operations failed -> "
              f"{'caught' if caught else 'NOT CAUGHT'}", file=sys.stderr)
        if not caught:
            sys.exit(1)
    print("self-test passed: the digest oracle rejects a tampered expectation")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    binary = build()
    if a.self_test:
        self_test(binary)
        return
    if not a.workload:
        fail("--workload is required")

    result = run(binary, ["--workload", a.workload, "--seed", str(a.seed),
                          "--seconds", str(a.seconds), "--trace", str(a.trace)])
    declared = declared_metrics(a.trace == 1)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        missing = sorted(declared.keys() - printed.keys())
        extra = sorted(printed.keys() - declared.keys())
        units = sorted(k for k in declared.keys() & printed.keys()
                       if declared[k] != printed[k])
        print(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}, unit mismatch {units}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
