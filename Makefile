# Convenience targets mirroring .github/workflows/ci.yml.
# Everything runs offline: external crates are in-repo shims (shims/README.md).

.PHONY: verify fmt lint test test-serial test-faults determinism test-tiers test-numa bench-smoke bench-tiers-save bench-numa-save bench-e2e goldens goldens-check goldens-save mutants ci

# The canonical acceptance gate: release build + full test suite.
verify:
	cargo build --release && cargo test -q

fmt:
	cargo fmt --all --check

# perfbench/ is a Cargo workspace of its own, which `cargo fmt --all`
# and `cargo clippy --workspace` never see: it is linted by manifest path.
# The A/B script's verdict rule is checked on canned inputs.
lint:
	cargo clippy --workspace --all-targets -- -D warnings
	cargo fmt --check --manifest-path perfbench/Cargo.toml
	cargo clippy --locked --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
	python3 scripts/bench_pairs.py --self-test

test:
	cargo test -q

# The CI matrix's serial leg: surfaces cross-test interference.
test-serial:
	cargo test -q -- --test-threads=1

# Fault-injection suite: shadow-oracle, determinism, and recovery tests.
test-faults:
	cargo test -q --test fault_injection
	cargo test -q --test trace_validation
	cargo test -q --release --test parallel_stress stress_workers_survive_a_one_percent_dma_error_plan

# The repeat-run determinism matrix on its own: every policy, eviction
# pressure, fault plans, tiers and adaptive page sizes, byte-equal
# reports from two fresh kernels; and perfbench's two engine entries,
# byte-equal to a plain run at any thread count they are passed.
determinism:
	cargo test -q --release --test determinism --test thread_determinism

# The tier-subsystem acceptance suite: cross-tier shadow oracle,
# tier/page-size proptests, and the multi-tier determinism leg.
test-tiers:
	cargo test -q --test tier_hierarchy
	cargo test -q --test proptest_tiers
	cargo test -q --release --test determinism tiered_and_adaptive

# The NUMA-subsystem acceptance suite: replica-coherence shadow oracle,
# node-spec proptests, and the multi-node determinism leg.
test-numa:
	cargo test -q --test numa_replication
	cargo test -q --test proptest_tiers numa

# One pass over the policies benchmark bodies (no measurement).
bench-smoke:
	cargo bench -p cmcp-bench --bench policies -- --test

# Hot-path microbench vs the committed baseline (the CI perf gate);
# `make bench-hotpath-save` rewrites the baseline after intentional
# hot-path retuning.
bench-hotpath:
	cargo run -q --release -p cmcp-bench --bin fault_latency -- \
		--quick --compare results/BENCH_hotpath.json
bench-hotpath-save:
	cargo run -q --release -p cmcp-bench --bin fault_latency -- --save

# Pressure sweep of static page sizes vs the adaptive scheme on the
# 2-tier hierarchy; rewrites the committed results/BENCH_tiers.json
# baseline (virtual cycles, so deterministic) and fails if adaptive
# loses to the worst static size anywhere in the sweep.
bench-tiers-save:
	cargo run -q --release -p cmcp-bench --bin tier_sweep

# NUMA node-count sweep: replication-on vs -off fault latency at 1/2/4
# nodes; rewrites the committed results/BENCH_numa.json baseline
# (virtual cycles, so deterministic) and fails unless the replication
# gap grows with node count for CMCP and LRU.
bench-numa-save:
	cargo run -q --release -p cmcp-bench --bin numa_sweep

# Whole-run host benchmark (perfbench/), checked for correctness only:
# the tampered-digest self-test must be caught, and a short traced run
# per workload must report every operation correct. No timing gate —
# on shared hosts differences under about 20% are noise
# (perfbench/README.md).
bench-e2e:
	python3 perfbench/run.py --self-test
	@for w in cg_share lu_tiered; do \
		out=$$(python3 perfbench/run.py --workload $$w --seconds 5 --trace 1) || exit 1; \
		echo "$$out" | tail -n 1 | python3 -c 'import json, sys; r = json.load(sys.stdin); \
			print("%s: %d operations, %d failed, correct %s" % (sys.argv[1], r["attempted"], r["failed"], r["correct"])); \
			sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' $$w || exit 1; \
	done

# Regenerate every deterministic golden into a scratch directory and
# require byte-identity with the committed results/ files. The old
# in-place `cargo build --release && git diff` flow regenerated with
# stale binaries (the root build does not cover the bench/cli bins) and
# never touched the ablation goldens — scripts/goldens_check.sh tells
# that story and closes both holes.
goldens-check:
	bash scripts/goldens_check.sh

# The committed mutant corpus: every scripts/mutants/*.patch must fail
# the test it names (in a scratch copy of the tree), and a generated
# no-op mutant must survive.
mutants:
	bash scripts/mutants_check.sh
	bash scripts/mutants_check.sh --self-test

# Back-compat alias; `make goldens` has always been the identity gate.
goldens: goldens-check

# Regenerate every deterministic golden in place (after an intentional
# semantic change), with the generators built fresh and explicitly.
goldens-save:
	cargo build -q --release -p cmcp-bench -p cmcp-cli
	for b in table1 fig6 fig7 fig8 fig9 fig10 tier_sweep numa_sweep \
	         ablation_aging ablation_ipi ablation_policies ablation_rebuild; do \
		./target/release/$$b || exit 1; done
	./target/release/cmcp-cli --workload cg.B --cores 8 \
		--fault-plan "seed=42,dma=0.01,enospc=0.005" --json \
		> results/golden_faulted_cg.json
	./target/release/cmcp-cli --workload lu.B --cores 16 --memory 0.66 \
		--tiers 4tier --numa 2node --json \
		> results/golden_tiered_numa_lu.json

ci: fmt lint verify test-serial test-faults determinism test-tiers \
    test-numa bench-smoke bench-hotpath bench-e2e goldens-check mutants
