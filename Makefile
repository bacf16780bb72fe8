# Development entry points. `make verify` is the documented tier-1 gate:
# release build, tests, clippy with warnings denied, a format check, docs
# with warnings denied, and every example executed end to end.

.PHONY: all build test doc fmt fmt-fix clippy bench bench-smoke sched-smoke resume-smoke analyze-smoke gen-smoke fuzz-smoke bench-correct examples verify clean

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

bench:
	cargo bench

# Quick-mode figure benches for CI-style smoke runs: small sample counts,
# and the repair/scheduler benches drop BENCH_repair.json / BENCH_sched.json
# at the repo root — the machine-readable trajectories future PRs compare
# against.
bench-smoke: sched-smoke
	PAREVAL_SAMPLES=2 cargo bench --bench fig2_correctness
	PAREVAL_SAMPLES=2 PAREVAL_BENCH_JSON=$(CURDIR)/BENCH_repair.json \
		cargo bench --bench repair_loop
	@for key in '"bench": "repair_loop"' '"samples_per_cell"' \
		'"wall_time_s"' '"build_at_1_overall"' '"pass_at_1_overall"' \
		'"mean_tokens_per_sample"' '"max_repair_round"'; do \
		grep -q "$$key" BENCH_repair.json \
			|| { echo "bench-smoke: BENCH_repair.json missing key $$key"; exit 1; }; \
	done
	@echo "bench-smoke: BENCH_repair.json keys present"

# The scheduler gate: regenerate BENCH_sched.json (round-robin vs
# work-stealing sleep-replay makespans at 1/2/4/8 workers), then fail if
# required keys are missing or work stealing fell below round-robin at 4
# workers. The checked-in JSON should show >= 1.2x there.
sched-smoke:
	PAREVAL_BENCH_JSON=$(CURDIR)/BENCH_sched.json cargo bench --bench scheduler
	@for key in '"bench": "scheduler"' '"workers"' '"round_robin_wall_s"' \
		'"work_stealing_wall_s"' '"speedup_at_4"' '"steals_at_4"' \
		'"repair_budget"' '"real_grid_wall_s"'; do \
		grep -q "$$key" BENCH_sched.json \
			|| { echo "sched-smoke: BENCH_sched.json missing key $$key"; exit 1; }; \
	done
	@awk -F'[:,]' '/"speedup_at_4"/ { \
		if ($$2 + 0.0 < 1.0) { \
			printf "sched-smoke: work stealing regressed below round-robin at 4 workers (%.2fx)\n", $$2; \
			exit 1; \
		} else { \
			printf "sched-smoke: work stealing %.2fx round-robin at 4 workers\n", $$2; \
		} \
	}' BENCH_sched.json

# The durability gate: run a journaled grid with an injected mid-run
# crash, resume from the journal, and require the resumed report bytes to
# match an uninterrupted serial run (the example asserts the diff and
# prints the line this target greps for).
resume-smoke: build
	@cargo run --release --example resume_run | tee /tmp/resume_smoke.out
	@grep -q 'resume-smoke: report bytes identical' /tmp/resume_smoke.out \
		|| { echo "resume-smoke: crash/resume byte-identity line missing"; exit 1; }

# The analyzer gate: run the static race analyzer over the oracle grid
# (must be race-clean) and an injected-race grid (every injected site must
# be flagged), drop BENCH_analyze.json, and fail if the example's
# assertion line or a required key is missing. Then run the guided-repair
# benchmark (analyzer fix-its vs blind regeneration on injected-race and
# generated-racy grids), drop BENCH_analyze_v2.json, and fail if guided
# repair regressed below blind in rounds-to-race-free.
analyze-smoke: build
	@PAREVAL_BENCH_JSON=$(CURDIR)/BENCH_analyze.json \
		cargo run --release --example analyze_grid | tee /tmp/analyze_smoke.out
	@grep -q 'analyze-smoke: oracle grid race-clean' /tmp/analyze_smoke.out \
		|| { echo "analyze-smoke: gate line missing"; exit 1; }
	@for key in '"bench": "analyze"' '"oracle_built"' '"oracle_error_findings"' \
		'"injected_samples"' '"injected_flagged"' '"raw_reduction_findings"' \
		'"race_free_at_1_injected"'; do \
		grep -q "$$key" BENCH_analyze.json \
			|| { echo "analyze-smoke: BENCH_analyze.json missing key $$key"; exit 1; }; \
	done
	@PAREVAL_BENCH_JSON=$(CURDIR)/BENCH_analyze_v2.json \
		cargo run --release --example guided_repair | tee /tmp/guided_smoke.out
	@grep -q 'guided-repair-smoke: guided race-free' /tmp/guided_smoke.out \
		|| { echo "analyze-smoke: guided-repair gate line missing"; exit 1; }
	@for key in '"bench": "analyze_v2"' '"sim_blind_race_free"' \
		'"sim_guided_race_free"' '"sim_blind_mean_rounds"' \
		'"sim_guided_mean_rounds"' '"oracle_blind_race_free"' \
		'"oracle_guided_race_free"' '"oracle_guided_mean_rounds"'; do \
		grep -q "$$key" BENCH_analyze_v2.json \
			|| { echo "analyze-smoke: BENCH_analyze_v2.json missing key $$key"; exit 1; }; \
	done
	@awk -F': ' '/"sim_blind_mean_rounds": null/ { blind_null = 1 } \
		/"sim_blind_mean_rounds"/ { blind = $$2 + 0.0 } \
		/"sim_guided_mean_rounds"/ { guided = $$2 + 0.0 } \
		END { \
			if (blind_null) { \
				printf "analyze-smoke: guided %.2f rounds, blind never race-free\n", guided; \
			} else if (guided > blind) { \
				printf "analyze-smoke: guided repair regressed below blind (%.2f > %.2f rounds)\n", guided, blind; \
				exit 1; \
			} else { \
				printf "analyze-smoke: guided %.2f rounds <= blind %.2f\n", guided, blind; \
			} \
		}' BENCH_analyze_v2.json

# The generated-grid gate: run the ≥1000-cell synthetic-app stress grid
# (streaming aggregation, journal, disk cache) at 1/4/8 workers — the
# example asserts byte-identical results and bounded in-flight records —
# then fail if the gate line or a BENCH_gen.json key is missing.
gen-smoke: build
	@PAREVAL_BENCH_JSON=$(CURDIR)/BENCH_gen.json \
		cargo run --release --example stress_grid | tee /tmp/gen_smoke.out
	@grep -q 'gen-smoke: .* cells byte-identical across workers' /tmp/gen_smoke.out \
		|| { echo "gen-smoke: gate line missing"; exit 1; }
	@for key in '"bench": "gen"' '"cells"' '"samples"' '"cells_per_sec"' \
		'"peak_retained_records"' '"cache_hit_rate"'; do \
		grep -q "$$key" BENCH_gen.json \
			|| { echo "gen-smoke: BENCH_gen.json missing key $$key"; exit 1; }; \
	done

# The pipeline-fuzzing gate: generated repos across the generator's whole
# knob space (all pragma models, both build systems, every injected-error
# profile) through parse/sema/build/run + the analyzer, twice each — the
# example asserts determinism and per-profile expectations and prints the
# line this target greps for.
fuzz-smoke: build
	@cargo run --release --example fuzz_pipeline | tee /tmp/fuzz_smoke.out
	@grep -q 'fuzz-smoke: .* 0 divergences' /tmp/fuzz_smoke.out \
		|| { echo "fuzz-smoke: gate line missing"; exit 1; }

# The benchmark's correctness gate: a short run of each gridbench workload
# with tracing off must reproduce every recorded result digest (its last
# line reports "correct": true and "failed": 0), and --self-test must
# count a deliberately corrupted sample as failed.
GRIDBENCH = cargo run --release --quiet --offline --manifest-path gridbench/Cargo.toml --

bench-correct:
	@for w in paper-grid repair-heavy gen-stress; do \
		$(GRIDBENCH) --workload $$w --seconds 1 --trace 0 > /tmp/bench_correct.out \
			|| { echo "bench-correct: $$w exited non-zero"; exit 1; }; \
		tail -n 1 /tmp/bench_correct.out \
			| grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,' \
			|| { echo "bench-correct: $$w: $$(tail -n 1 /tmp/bench_correct.out)"; exit 1; }; \
		echo "bench-correct: $$w correct"; \
	done
	@$(GRIDBENCH) --workload repair-heavy --seconds 1 --trace 0 --self-test > /dev/null

# Every example must run to completion (exit 0); output is discarded.
examples: build
	cargo run --release --example quickstart > /dev/null
	cargo run --release --example suite_stats > /dev/null
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

verify: build test clippy fmt doc examples sched-smoke resume-smoke analyze-smoke gen-smoke fuzz-smoke

clean:
	cargo clean
