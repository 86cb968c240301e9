#!/usr/bin/env python3
"""Alternating A/B pairs of two perfbench binaries on one workload.

Runs a base and a change build of `perfbench` once per seed, alternating
which of the two runs first, and prints for every metric both sides'
medians and quartiles, the pairs the change won and tied, and whether
the median gap exceeds the base's quartile spread (Q3 - Q1). Higher or
lower is better as BENCHMARK.json declares; a deterministic counter
that the change leaves alone ties every pair. It exits non-zero if any run fails:
a non-zero exit, `"correct": false` or `failed > 0`. Timing decides
nothing here; on a shared host, read the numbers, not the exit code.

Build each commit's benchmark into its own target directory first:

    CARGO_TARGET_DIR=/tmp/base   cargo build --release --manifest-path <base>/perfbench/Cargo.toml
    CARGO_TARGET_DIR=/tmp/change cargo build --release --manifest-path perfbench/Cargo.toml
    python3 scripts/bench_pairs.py --base /tmp/base/release/perfbench \\
        --change /tmp/change/release/perfbench --workload cg_share \\
        --seeds 181-190 --seconds 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """`181-190` or `3,5,8` (or a mix) -> list of seeds, in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def declared():
    """(metric name -> "higher" or "lower", end-to-end metric names),
    from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return better, [m["name"] for m in spec["end_to_end"]]


def run_once(binary, workload, seed, seconds, trace):
    """One perfbench run -> its result object; exits on a failed run."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=10 * seconds + 120)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or result["correct"] is not True or result["failed"] > 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"bench_pairs: {binary} seed {seed} failed: "
                 f"exit {proc.returncode}, result {lines[-1] if lines else 'none'}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def fmt(x):
    if abs(x) >= 1e6:
        return f"{x / 1e6:.3f}M"
    if abs(x) >= 1e3:
        return f"{x:.0f}"
    return f"{x:.4g}"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="perfbench binary of the parent")
    p.add_argument("--change", required=True, help="perfbench binary of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 181-190 or 3,5,8")
    p.add_argument("--seconds", type=float, default=5)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    seeds = parse_seeds(a.seeds)
    if len(seeds) < 2:
        sys.exit("bench_pairs: quartiles need at least two seeds")

    better, end_to_end = declared()
    runs = {"base": [], "change": []}
    for k, seed in enumerate(seeds):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            binary = a.base if side == "base" else a.change
            runs[side].append(run_once(binary, a.workload, seed, a.seconds, a.trace))
        shown = [f"{m} {fmt(runs['base'][-1][m])} -> {fmt(runs['change'][-1][m])}"
                 for m in end_to_end if m in runs["base"][-1]]
        print(f"pair {k + 1}/{len(seeds)} seed {seed}, {order[0]} first: " + ", ".join(shown),
              file=sys.stderr)

    print(f"{a.workload}: {len(seeds)} pairs, seeds {a.seeds}, {a.seconds:g} s per run, "
          f"--trace {a.trace}")
    print(f"{'metric':<36} {'base median [q1-q3]':>32} {'change median [q1-q3]':>32} "
          f"{'won':>7} {'tied':>7} {'gap>IQR':>8}")
    for name in runs["base"][0]:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        if None in base or None in change:
            continue
        higher = better.get(name) == "higher"
        won = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        tied = sum(c == b for b, c in zip(base, change))
        bq1, bmed, bq3 = statistics.quantiles(base, n=4, method="inclusive")
        cq1, cmed, cq3 = statistics.quantiles(change, n=4, method="inclusive")
        gap = (cmed - bmed) if higher else (bmed - cmed)
        b = f"{fmt(bmed)} [{fmt(bq1)}-{fmt(bq3)}]"
        c = f"{fmt(cmed)} [{fmt(cq1)}-{fmt(cq3)}]"
        verdict = "yes" if gap > bq3 - bq1 else "no"
        n = len(seeds)
        print(f"{name:<36} {b:>32} {c:>32} {f'{won}/{n}':>7} {f'{tied}/{n}':>7} {verdict:>8}")


if __name__ == "__main__":
    main()
