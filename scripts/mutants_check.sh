#!/usr/bin/env bash
# Mutant corpus check: every committed mutant must be killed by the one
# test it names.
#
# A mutant is a small deliberate bug, committed as a patch under
# scripts/mutants/. Its header (the text before the diff, which
# `git apply` ignores) names the test that must catch it:
#
#   Test: <cargo target selector> <exact test path>
#
# for example `Test: --test proptest_tiers tiered_store_matches_set_oracle`
# or `Test: -p cmcp-kernel --lib vmm::tests::eviction_when_pool_exhausted`.
#
# The script copies the working tree (tracked and untracked files, minus
# what .gitignore excludes) into a scratch directory, then for each patch:
# applies it there, builds the named test target, runs only that test
# (`--exact`), and reverts the patch. The working tree itself is never
# touched. Verdicts:
#
#   killed    the named test failed: the guarantee holds
#   SURVIVED  the named test passed with the bug in place
#   STALE     the patch no longer applies (a change edited the mutated
#             lines: refresh the patch in the same change)
#   BROKEN    the mutant does not build
#   NO TEST   the selector ran no test (renamed or deleted)
#
# Anything but `killed` fails the check. Builds use the dev profile in
# the scratch directory's own target/, so a cold run compiles the
# workspace once and each mutant rebuilds only what it touches.
#
# Usage:
#   scripts/mutants_check.sh              # every committed mutant must be killed
#   scripts/mutants_check.sh --self-test  # a generated no-op mutant must be
#                                         # reported as surviving
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)
self_test=0
case "${1:-}" in
    "") ;;
    --self-test) self_test=1 ;;
    *) echo "usage: $0 [--self-test]" >&2; exit 2 ;;
esac

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
tree="$scratch/tree"
mkdir -p "$tree" "$scratch/patches"
git ls-files -z --cached --others --exclude-standard |
    tar --null -T - -cf - | tar -xf - -C "$tree"
export CARGO_TARGET_DIR="$scratch/target"

if [ "$self_test" -eq 1 ]; then
    # A comment appended to a source file: it changes nothing any test
    # can see, so its named test passes and the mutant must survive.
    f=crates/kernel/src/backing.rs
    { cat "$tree/$f"; echo "// A no-op mutant: nothing a test can observe."; } > "$scratch/noop.rs"
    {
        echo "Mutant: no-op (a comment appended to $f)."
        echo "Test: -p cmcp-kernel --lib backing::tests::the_flat_tier_records_whole_blocks"
        diff -u --label "a/$f" --label "b/$f" "$tree/$f" "$scratch/noop.rs" || true
    } > "$scratch/patches/noop.patch"
    patches=("$scratch/patches/noop.patch")
else
    patches=("$repo"/scripts/mutants/*.patch)
fi

start=$(date +%s)
killed=0
failed=0
survived=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    line=$(sed -n 's/^Test: //p' "$patch" | head -n 1)
    if [ -z "$line" ]; then
        echo "   FAIL      $name: no 'Test:' header"
        failed=$((failed + 1))
        continue
    fi
    read -r -a words <<< "$line"
    test_name=${words[${#words[@]} - 1]}
    selector=("${words[@]:0:${#words[@]}-1}")
    if ! (cd "$tree" && git apply "$patch"); then
        echo "   STALE     $name: does not apply to the working tree"
        failed=$((failed + 1))
        continue
    fi
    verdict=""
    if ! (cd "$tree" && cargo test -q "${selector[@]}" --no-run) > "$scratch/build.log" 2>&1; then
        verdict="BROKEN"
        tail -n 20 "$scratch/build.log"
    else
        set +e
        (cd "$tree" && cargo test -q "${selector[@]}" -- --exact "$test_name") > "$scratch/test.log" 2>&1
        status=$?
        set -e
        if ! grep -q "^running 1 test" "$scratch/test.log"; then
            verdict="NO TEST"
        elif [ "$status" -ne 0 ]; then
            verdict="killed"
        else
            verdict="SURVIVED"
        fi
    fi
    (cd "$tree" && git apply -R "$patch")
    case "$verdict" in
        killed) killed=$((killed + 1)) ;;
        SURVIVED) survived=$((survived + 1)) ;;
        *) failed=$((failed + 1)) ;;
    esac
    printf '   %-9s %s (%s)\n' "$verdict" "$name" "$test_name"
done
echo "== ${#patches[@]} mutant(s): $killed killed, $survived survived, $failed broken, stale or untested ($(( $(date +%s) - start )) s)"

if [ "$self_test" -eq 1 ]; then
    if [ "$survived" -eq 1 ] && [ "$failed" -eq 0 ]; then
        echo "self-test ok: the no-op mutant was reported as surviving"
        exit 0
    fi
    echo "self-test FAILED: the no-op mutant was not reported as surviving"
    exit 1
fi
if [ "$killed" -ne "${#patches[@]}" ]; then
    echo "mutant check FAILED: every committed mutant must be killed by its named test"
    exit 1
fi
echo "every mutant killed"
