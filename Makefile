# Development entry points. `make verify` is the documented tier-1 gate:
# release build, tests, clippy with warnings denied, a format check, docs
# with warnings denied, every example executed end to end, a compile
# check of the gridbench benchmark, and its correctness gate.

.PHONY: all build test doc fmt fmt-fix clippy gridbench-check bench-correct examples verify clean

all: verify

build:
	cargo build --release

test:
	cargo test -q

doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

fmt:
	cargo fmt --all --check

fmt-fix:
	cargo fmt --all

clippy:
	cargo clippy --all-targets -- -D warnings

# gridbench is a workspace of its own that compiles against the harness's
# public API, so the root build cannot see when a harness change breaks it.
gridbench-check:
	cargo check --offline --manifest-path gridbench/Cargo.toml

# The benchmark's correctness gate: a short run of each gridbench workload
# with tracing off must reproduce every recorded result digest, a short
# traced run of each must pass gridbench's traced self-check, and
# --self-test must count a deliberately corrupted sample as failed.
# gridbench exits non-zero exactly when its last line reports "correct":
# false. With tracing off that means "failed" is above 0; with tracing on
# it also means the traced mirror disagreed with the pipeline (a result
# digest, the outcome or unit hit/miss counts) or its layers covered too
# little of the sample wall time. The self-test runs on repair-heavy and
# on paper-grid, whose samples take all three techniques' paths for the
# translated bodies the corrupting backend appends to.
GRIDBENCH = cargo run --release --quiet --offline --manifest-path gridbench/Cargo.toml --

bench-correct:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	for trace in 0 1; do \
		for w in paper-grid repair-heavy gen-stress; do \
			$(GRIDBENCH) --workload $$w --seconds 1 --trace $$trace > "$$out" \
				|| { echo "bench-correct: $$w --trace $$trace: $$(tail -n 1 "$$out")"; exit 1; }; \
			echo "bench-correct: $$w --trace $$trace correct"; \
		done; \
	done
	@for w in repair-heavy paper-grid; do \
		$(GRIDBENCH) --workload $$w --seconds 1 --trace 0 --self-test > /dev/null || exit 1; \
	done

# Every example is built first in one cargo invocation, so their release
# (LTO) links can overlap. Then each runs once, and its asserts are the
# gate: a failed assert is a non-zero exit. Output is discarded. Among
# them, paper_figures checks every paper figure from one full(5) grid
# against its golden text, resume_run checks that crash + resume is
# byte-identical, stress_grid checks the 1515-cell grid at 1/4/8 workers,
# and fuzz_pipeline checks determinism across the generator's knob space.
# analyze_grid and guided_repair rewrite BENCH_analyze.json and
# BENCH_analyze_v2.json, and both must match the committed files byte for
# byte.
examples: build
	cargo build --release --examples
	cargo run --release --example quickstart > /dev/null
	cargo run --release --example paper_figures > /dev/null
	cargo run --release --example translate_xsbench > /dev/null
	cargo run --release --example error_clustering > /dev/null
	cargo run --release --example experiment_stream > /dev/null
	cargo run --release --example oracle_upper_bound > /dev/null
	cargo run --release --example repair_loop > /dev/null
	cargo run --release --example resume_run > /dev/null
	cargo run --release --example analyze_grid > /dev/null
	cargo run --release --example analyze_repo > /dev/null
	cargo run --release --example guided_repair > /dev/null
	cargo run --release --example stress_grid > /dev/null
	cargo run --release --example fuzz_pipeline > /dev/null
	git diff --exit-code -- BENCH_analyze.json BENCH_analyze_v2.json

verify: build test clippy fmt doc examples gridbench-check bench-correct

clean:
	cargo clean
