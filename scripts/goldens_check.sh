#!/usr/bin/env bash
# Regenerate every deterministic golden into a scratch directory and
# require byte-identity with the committed results/ files.
#
# This replaces the old in-place `make goldens` flow, which had three
# failure modes that let golden drift through review after review:
#
#   1. Stale binaries. `cargo build --release` at the workspace root
#      builds only the root `cmcp` package — none of the experiment
#      bins in cmcp-bench, and not cmcp-cli. The `./target/release/*`
#      binaries the old flow then ran came from whatever earlier build
#      (locally) or CI cache restore (the `restore-keys:` prefix
#      fallback) happened to be lying around, so goldens were routinely
#      "regenerated" with code from an older commit and the diff showed
#      drift that no source change explained.
#   2. Uncovered goldens. The four ablation_*.json files were committed
#      but never regenerated by any job, so nothing ever checked them.
#   3. Self-masking. Regenerating in place and then `git diff` means a
#      bin that silently writes nothing (or crashes after the fact)
#      leaves the committed bytes untouched and the check green.
#
# This script closes all three: it builds the exact packages whose bins
# it runs, runs every generator in a scratch CWD (save_results writes
# results/ relative to the CWD), byte-compares each file with cmp, and
# enumerates both directions so a committed golden with no generator —
# or a generated file nobody committed — is an error, not a blind spot.
#
# Usage:
#   scripts/goldens_check.sh               # the check
#   scripts/goldens_check.sh --self-test   # prove the check can fail:
#                                          # tamper one regenerated file
#                                          # and require a detection
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)

# Deterministic generators: every committed results/ file must come
# from exactly one of these (or the CLI goldens below). Wall-clock
# benches are the only exclusions — their numbers are host-dependent
# by design and the identity check cannot apply.
BINS=(table1 fig6 fig7 fig8 fig9 fig10 tier_sweep numa_sweep
      ablation_aging ablation_ipi ablation_policies ablation_rebuild)
WALL_CLOCK="BENCH_hotpath.json"

is_wall_clock() {
    local f
    for f in $WALL_CLOCK; do [ "$1" = "$f" ] && return 0; done
    return 1
}

echo "== building generators (explicit packages — the root build does NOT cover them)"
cargo build --release -q -p cmcp-bench -p cmcp-cli

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "== regenerating into $scratch"
for b in "${BINS[@]}"; do
    (cd "$scratch" && "$repo/target/release/$b" >/dev/null)
done
(cd "$scratch" && mkdir -p results && "$repo/target/release/cmcp-cli" \
    --workload cg.B --cores 8 \
    --fault-plan "seed=42,dma=0.01,enospc=0.005" --json \
    > results/golden_faulted_cg.json)
(cd "$scratch" && "$repo/target/release/cmcp-cli" \
    --workload lu.B --cores 16 --memory 0.66 --tiers 4tier --numa 2node \
    --json > results/golden_tiered_numa_lu.json)

if [ "${1:-}" = "--self-test" ]; then
    # Drift one regenerated file and require the comparison to catch
    # it. If this mode ever exits 0 from the comparison, the check is
    # decorative and must not gate CI.
    printf ' ' >> "$scratch/results/table1.json"
fi

fail=0
for path in "$repo"/results/*.json; do
    f=$(basename "$path")
    if is_wall_clock "$f"; then
        echo "   skip  $f (wall-clock, host-dependent)"
        continue
    fi
    if [ ! -f "$scratch/results/$f" ]; then
        echo "   FAIL  $f: committed but no generator produced it"
        fail=1
    elif ! cmp -s "$path" "$scratch/results/$f"; then
        echo "   FAIL  $f: regenerated bytes differ from committed"
        fail=1
    else
        echo "   ok    $f"
    fi
done
for path in "$scratch"/results/*.json; do
    f=$(basename "$path")
    if [ ! -f "$repo/results/$f" ]; then
        echo "   FAIL  $f: generated but not committed"
        fail=1
    fi
done

if [ "${1:-}" = "--self-test" ]; then
    if [ "$fail" -ne 0 ]; then
        echo "self-test ok: the tampered golden was detected"
        exit 0
    fi
    echo "self-test FAILED: a drifted golden went undetected"
    exit 1
fi

if [ "$fail" -ne 0 ]; then
    echo "golden drift detected — see FAIL lines above."
    echo "If the change is intentional, regenerate with 'make goldens-save'"
    echo "and commit the new results/ files with the code that changed them."
    exit 1
fi
echo "all goldens byte-identical"
