# Developer entry points for the dkbms testbed.

.PHONY: all test bench-compare experiments examples doc clippy clean

all: test

test:
	cargo test --workspace

# Hold this checkout against another one with the fixed benchmark
# (benchmark/README.md): five runs of every workload on each side, each
# built from its own sources, then the per-metric verdicts under the
# bounds of BENCHMARK.json. BASE is the checkout to compare with (the
# parent commit, say); results land in BENCH_OUT.
BASE ?= ../base
BENCH_OUT ?= /tmp/dkbms-bench
bench-compare:
	mkdir -p $(BENCH_OUT)
	cargo run --release --manifest-path $(BASE)/benchmark/Cargo.toml -- run --runs 5 --out $(BENCH_OUT)/base.json
	cargo run --release --manifest-path benchmark/Cargo.toml -- run --runs 5 --out $(BENCH_OUT)/change.json
	cargo run --release --manifest-path benchmark/Cargo.toml -- compare $(BENCH_OUT)/base.json $(BENCH_OUT)/change.json

# Regenerate every paper table/figure (EXPERIMENTS.md records the shapes).
experiments:
	cargo run --release -p dkbms-bench --bin experiments

examples:
	cargo run --release --example quickstart
	cargo run --release --example genealogy
	cargo run --release --example bill_of_materials
	cargo run --release --example corporate_policy

doc:
	cargo doc --workspace --no-deps

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

clean:
	cargo clean
