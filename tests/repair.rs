//! Integration tests for the repair-loop subsystem: bounded repair rounds
//! strictly improve build rates, repaired grids stay deterministic, and the
//! oracle undoes technique-level damage in one round.

use minihpc_lang::model::TranslationPair;
use pareval_core::{
    report, EvalConfig, EvalPipeline, ExperimentPlan, ExperimentPlanBuilder, Metric, NullSink,
    Runner, ScheduledRunner, Scoring,
};
use pareval_llm::{all_models, OracleBackend};
use pareval_repo as _;
use pareval_translate::Technique;
use std::sync::Arc;

fn eval_with_budget(budget: u32) -> EvalConfig {
    EvalConfig {
        max_cases: 1,
        repair_budget: budget,
        ..EvalConfig::default()
    }
}

/// The repair slice: one pair, two techniques, the three XOR apps — cells
/// with plenty of build failures to repair.
fn slice(budget: u32) -> ExperimentPlanBuilder {
    ExperimentPlan::builder()
        .samples(6)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .techniques([Technique::NonAgentic, Technique::TopDownAgentic])
        .apps(["nanoXOR", "microXORh", "microXOR"])
        .eval(eval_with_budget(budget))
}

#[test]
fn repair_budget_monotonically_improves_build_rates() {
    let baseline = ScheduledRunner::new(4).run(&slice(0).build());
    let repaired = ScheduledRunner::new(4).run(&slice(3).build());

    let mut improved = 0;
    for (key, cell) in &repaired.cells {
        if cell.samples() == 0 {
            continue;
        }
        let before = baseline
            .cell(key.pair, key.technique, key.model, key.app)
            .unwrap();
        for scoring in Scoring::ALL {
            let b0 = before.rate(Metric::Build, scoring, 1);
            let b3 = cell.rate(Metric::Build, scoring, 1);
            assert!(
                b3 >= b0 - 1e-12,
                "repair must never hurt build@1 on {key:?} ({scoring:?}): {b0} -> {b3}"
            );
            // Round 0 of the repaired run is the unrepaired harness.
            assert!(
                (cell.rate_at_round(Metric::Build, scoring, 1, 0) - b0).abs() < 1e-12,
                "round 0 must match the budget-0 run on {key:?}"
            );
            if b3 > b0 + 1e-12 {
                improved += 1;
            }
        }
        // Rates by round are monotone: a repaired sample never un-builds.
        for round in 0..cell.max_repair_round() {
            assert!(
                cell.successes_at_round(Metric::Build, Scoring::Overall, round + 1)
                    >= cell.successes_at_round(Metric::Build, Scoring::Overall, round),
                "build successes regressed between rounds on {key:?}"
            );
        }
    }
    assert!(
        improved > 0,
        "at least one cell's build@1 must strictly improve with repair"
    );
    assert!(repaired.max_repair_round() >= 1, "repairs must have run");
}

#[test]
fn repair_tokens_count_toward_the_sample_cost() {
    // Eq. 2 semantics: a repaired cell's mean tokens must include the
    // repair rounds — strictly more than the same cell translated with no
    // budget, whenever any of its samples entered the loop.
    let baseline = ScheduledRunner::new(1).run(&slice(0).build());
    let repaired = ScheduledRunner::new(1).run(&slice(2).build());
    let mut checked = 0;
    for (key, cell) in &repaired.cells {
        if cell.max_repair_round() == 0 {
            continue;
        }
        let before = baseline
            .cell(key.pair, key.technique, key.model, key.app)
            .unwrap();
        let t0 = before.tokens().mean().unwrap();
        let t_final = cell.tokens().mean().unwrap();
        assert!(
            t_final > t0,
            "repair rounds must cost tokens on {key:?}: {t0} vs {t_final}"
        );
        // Per-round token means are monotone in the round.
        for round in 0..cell.max_repair_round() {
            let a = cell.tokens_at_round(round).mean().unwrap();
            let b = cell.tokens_at_round(round + 1).mean().unwrap();
            assert!(b >= a, "cumulative tokens shrank between rounds");
        }
        checked += 1;
    }
    assert!(checked > 0, "no cell entered the repair loop");
}

#[test]
fn repaired_cached_parallel_matches_uncached_serial() {
    // The determinism contract survives the repair loop: cache + sharding
    // must be invisible at any budget.
    let cached = ScheduledRunner::new(4).run(&slice(2).build());
    let uncached_eval = EvalConfig {
        build_cache: false,
        ..eval_with_budget(2)
    };
    let uncached_pipeline = EvalPipeline::new(uncached_eval.clone());
    let uncached = ScheduledRunner::new(1).run_with(
        &slice(2).eval(uncached_eval).build(),
        &uncached_pipeline,
        &NullSink,
    );
    assert_eq!(uncached_pipeline.cache_stats().misses, 0);
    assert_eq!(cached, uncached);
    assert_eq!(format!("{cached:?}"), format!("{uncached:?}"));
}

#[test]
fn oracle_repairs_swe_agent_corruption_in_one_round() {
    // The SWE-agent technique tab-normalizes Makefiles *after* the backend
    // runs, sinking the oracle's Overall build to zero. One repair round
    // re-emits the reference Makefile and restores Overall pass@1 = 1.0 —
    // headroom only an iterative workflow can reclaim.
    let base = |budget: u32| {
        ExperimentPlan::builder()
            .samples(2)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .techniques([Technique::SweAgent])
            .models(all_models().into_iter().filter(|m| m.name == "o4-mini"))
            .apps(["nanoXOR", "microXOR"])
            .backend(Arc::new(OracleBackend))
            .eval(eval_with_budget(budget))
            .build()
    };
    let broken = ScheduledRunner::new(1).run(&base(0));
    let repaired = ScheduledRunner::new(1).run(&base(1));
    let mut cells = 0;
    for (key, cell) in &repaired.cells {
        if cell.samples() == 0 {
            continue;
        }
        let before = broken
            .cell(key.pair, key.technique, key.model, key.app)
            .unwrap();
        assert_eq!(
            before.successes(Metric::Build, Scoring::Overall),
            0,
            "budget 0 must leave the corrupted Makefile broken: {key:?}"
        );
        assert_eq!(
            cell.rate(Metric::Pass, Scoring::Overall, 1),
            1.0,
            "one oracle repair round must restore Overall pass@1: {key:?}"
        );
        assert_eq!(cell.max_repair_round(), 1, "{key:?}");
        cells += 1;
    }
    assert!(cells > 0);
}

#[test]
fn repair_report_prints_per_round_rates() {
    let results = ScheduledRunner::new(4).run(&slice(3).build());
    let text = report::repair_report(&results);
    let rounds = results.max_repair_round();
    assert!(rounds >= 1);
    for r in 0..=rounds {
        assert!(
            text.contains(&format!("r{r}")),
            "missing round column:\n{text}"
        );
    }
    assert!(text.contains("build@1"));
    assert!(text.contains("pass@1"));
    assert!(text.contains("E_kappa"));
}
