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

Each end-to-end metric also gets a verdict, with the metric's `bound`
from BENCHMARK.json:

    gain          the change won at least 9/10 of the pairs (ties count
                  for neither) and the median gap exceeds the base's
                  quartile spread;
    unresolved    the base's quartile spread exceeds the bound (relative
                  to its median) and not every change run beats every
                  base run;
    within bound  the change's median is worse than the base's by at
                  most the bound, relative to the base's median;
    worse         otherwise.

The verdict only reports. `--self-test` checks the rule on one canned
input per verdict and runs nothing.

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
    """(metric name -> "higher" or "lower", end-to-end metric name ->
    bound), from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return better, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def verdict(base, change, higher, bound):
    """One end-to-end metric's verdict over paired runs (see the module
    doc): "gain", "unresolved", "within bound" or "worse"."""
    def beats(c, b):
        return c > b if higher else c < b

    won = sum(beats(c, b) for b, c in zip(base, change))
    bq1, bmed, bq3 = statistics.quantiles(base, n=4, method="inclusive")
    cmed = statistics.median(change)
    gap = (cmed - bmed) if higher else (bmed - cmed)
    if 10 * won >= 9 * len(base) and gap > bq3 - bq1:
        return "gain"
    if bq3 - bq1 > bound * abs(bmed) and not all(beats(c, b) for b in base for c in change):
        return "unresolved"
    return "within bound" if -gap <= bound * abs(bmed) else "worse"


def self_test():
    """Checks `verdict` on one canned input per verdict; exits non-zero
    on a mismatch."""
    tight = [1.00 + 0.01 * k for k in range(10)]
    cases = [
        ("gain", tight, [x - 0.5 for x in tight], False),
        ("unresolved", [1.0, 2.0] * 5, [1.5] * 10, False),
        # 8/10 pairs won: a wide gap alone is no gain.
        ("within bound", tight, [x - 0.5 for x in tight[:8]] + tight[8:], False),
        ("worse", [x * 1e6 for x in tight], [x * 0.5e6 for x in tight], True),
    ]
    for want, base, change, higher in cases:
        got = verdict(base, change, higher, 0.25)
        if got != want:
            sys.exit(f"bench_pairs self-test: expected {want!r}, got {got!r}")
    print(f"bench_pairs self-test: {len(cases)} canned verdicts ok")


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
    p.add_argument("--base", help="perfbench binary of the parent")
    p.add_argument("--change", help="perfbench binary of the change")
    p.add_argument("--workload")
    p.add_argument("--seeds", help="e.g. 181-190 or 3,5,8")
    p.add_argument("--seconds", type=float, default=5)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check the verdict rule on canned inputs and exit")
    a = p.parse_args()
    if a.self_test:
        self_test()
        return
    if None in (a.base, a.change, a.workload, a.seeds):
        p.error("--base, --change, --workload and --seeds are required")
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
          f"{'won':>7} {'tied':>7} {'gap>IQR':>8} {'verdict':>13}")
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
        beyond = "yes" if gap > bq3 - bq1 else "no"
        rule = verdict(base, change, higher, end_to_end[name]) if name in end_to_end else "-"
        n = len(seeds)
        print(f"{name:<36} {b:>32} {c:>32} {f'{won}/{n}':>7} {f'{tied}/{n}':>7} {beyond:>8} "
              f"{rule:>13}")


if __name__ == "__main__":
    main()
