//! Integration tests for the pluggable backend layer: the oracle upper
//! bound and the build-cache = cold-build property.

use minihpc_lang::model::TranslationPair;
use pareval_core::{
    all_tasks, EvalConfig, EvalPipeline, ExperimentPlan, Metric, NullSink, Runner, ScheduledRunner,
    Scoring, Task,
};
use pareval_llm::{all_models, OracleBackend, SimulatedBackend};
use pareval_repo as _;
use pareval_translate::Technique;
use proptest::prelude::*;
use std::sync::Arc;

// -- OracleBackend ------------------------------------------------------------

#[test]
fn oracle_passes_code_only_on_every_feasible_cell() {
    // All three techniques, both heatmap pairs, small and large apps, two
    // models: every cell the oracle schedules must score code-only
    // pass@1 = 1.0 — including SWE-agent cells, whose *Overall* score the
    // tab-corrupted Makefiles may still sink, and cells the paper itself
    // could not run.
    let plan = ExperimentPlan::builder()
        .samples(2)
        .pairs([
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            TranslationPair::CUDA_TO_KOKKOS,
        ])
        .models(
            all_models()
                .into_iter()
                .filter(|m| m.name == "o4-mini" || m.name == "gemini-1.5-flash"),
        )
        .apps(["nanoXOR", "microXOR", "SimpleMOC-kernel", "XSBench"])
        .backend(Arc::new(OracleBackend))
        .build();
    // Serial: parallel-vs-serial equality is covered by
    // tests/determinism.rs.
    let pipeline = EvalPipeline::new(plan.eval().clone());
    let results = ScheduledRunner::new(1).run_with(&plan, &pipeline, &NullSink);

    let mut feasible_cells = 0;
    for (key, cell) in &results.cells {
        if cell.samples() == 0 {
            // Only the two tasks the oracle transpiler cannot solve may be
            // excluded (paper: unsolved by every model and technique).
            assert_eq!(key.pair, TranslationPair::CUDA_TO_KOKKOS, "{key:?}");
            assert!(
                key.app == "XSBench" || key.app == "SimpleMOC-kernel",
                "{key:?}"
            );
            continue;
        }
        feasible_cells += 1;
        assert_eq!(
            cell.pass_at_k(Scoring::CodeOnly, 1),
            1.0,
            "oracle must pass code-only on {key:?}"
        );
        assert_eq!(
            cell.successes(Metric::Pass, Scoring::CodeOnly),
            cell.samples(),
            "{key:?}"
        );
    }
    assert!(
        feasible_cells > 30,
        "expected a broad grid: {feasible_cells}"
    );
    // The oracle repos repeat across samples and models, so the shared
    // cache must have served a majority of evaluations.
    assert!(pipeline.cache_stats().hit_rate() > 0.5);
}

#[test]
fn oracle_overall_shortfall_is_confined_to_swe_agent() {
    // Under Overall scoring the only thing that can sink the oracle is the
    // SWE-agent technique's Makefile corruption — and on Makefile-based
    // targets it must sink it to zero builds.
    let plan = ExperimentPlan::builder()
        .samples(2)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .models(all_models().into_iter().filter(|m| m.name == "o4-mini"))
        .apps(["nanoXOR", "microXOR"])
        .backend(Arc::new(OracleBackend))
        .build();
    let results = ScheduledRunner::new(1).run(&plan);
    for (key, cell) in &results.cells {
        if cell.samples() == 0 {
            continue;
        }
        let overall = cell.pass_at_k(Scoring::Overall, 1);
        match key.technique {
            Technique::SweAgent => assert_eq!(
                cell.successes(Metric::Build, Scoring::Overall),
                0,
                "tab-normalized Makefile must not build: {key:?}"
            ),
            _ => assert_eq!(overall, 1.0, "{key:?}"),
        }
    }
}

// -- BuildCache ---------------------------------------------------------------

fn cache_task(app: &str) -> Task {
    all_tasks()
        .into_iter()
        .find(|t| t.app.name == app && t.pair == TranslationPair::CUDA_TO_OMP_OFFLOAD)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A cache hit equals a cold evaluation, across the whole outcome —
    /// build flag, pass flag, error category, and the raw build log — for
    /// arbitrary samples of arbitrary models (whose injected errors cover
    /// correct, wrong-result, and broken-build repos).
    #[test]
    fn cache_hit_equals_cold_build_outcome(
        model_idx in 0usize..5,
        app_idx in 0usize..3,
        seed in 0u64..512,
        sample in 0u32..4,
    ) {
        let apps = ["nanoXOR", "microXORh", "microXOR"];
        let task = cache_task(apps[app_idx]);
        let model = all_models().swap_remove(model_idx);
        let eval = EvalConfig { max_cases: 1, ..EvalConfig::default() };
        let cold_pipeline = EvalPipeline::new(EvalConfig { build_cache: false, ..eval.clone() });
        let cached_pipeline = EvalPipeline::new(eval);

        let cold =
            cold_pipeline.run_sample(&task, Technique::NonAgentic, &model, &SimulatedBackend, seed, sample);
        let warm =
            cached_pipeline.run_sample(&task, Technique::NonAgentic, &model, &SimulatedBackend, seed, sample);
        let hot =
            cached_pipeline.run_sample(&task, Technique::NonAgentic, &model, &SimulatedBackend, seed, sample);
        prop_assert_eq!(&cold, &warm, "cold fill must match the uncached path");
        prop_assert_eq!(&cold, &hot, "cache hit must match the uncached path");
        if cold.feasible {
            // The repeated sample re-evaluates identical repos: pure hits.
            prop_assert!(cached_pipeline.cache_stats().hits >= 2);
        }
    }
}

#[test]
fn oracle_upper_bounds_the_simulation_everywhere() {
    // On every cell both backends can run, the oracle's code-only pass@1
    // dominates the simulation's — it is an upper bound, not just a
    // different workload.
    let base = || {
        ExperimentPlan::builder()
            .samples(3)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .techniques([Technique::NonAgentic])
            .apps(["nanoXOR", "microXORh", "microXOR"])
    };
    let sim = ScheduledRunner::new(2).run(&base().build());
    let oracle = ScheduledRunner::new(2).run(&base().backend(Arc::new(OracleBackend)).build());
    let mut compared = 0;
    for (key, sim_cell) in &sim.cells {
        if sim_cell.samples() == 0 {
            continue;
        }
        let oracle_cell = oracle
            .cell(key.pair, key.technique, key.model, key.app)
            .unwrap();
        assert!(
            oracle_cell.pass_at_k(Scoring::CodeOnly, 1) >= sim_cell.pass_at_k(Scoring::CodeOnly, 1),
            "{key:?}"
        );
        compared += 1;
    }
    assert!(compared > 0);
}
