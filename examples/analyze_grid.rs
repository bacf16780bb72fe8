//! The static analyzer gate, end to end:
//!
//! 1. run the oracle grid with the analyzer on — the ground-truth
//!    translations must come back race-clean (zero error findings),
//! 2. run an injected-race grid (o4-mini with `race_rate` 1.0 on the
//!    XSBench threads→offload cell, whose translations carry a
//!    `reduction` clause that the injector deletes) — the analyzer must
//!    flag every sample,
//! 3. print the per-model race report and drop `BENCH_analyze.json`.
//!
//! Run with: `cargo run --release --example analyze_grid`
//! (`make examples` runs it; a failed assert is a non-zero exit, and the
//! regenerated `BENCH_analyze.json` must match the committed file.)

use minihpc_lang::model::TranslationPair;
use pareval_core::{report, EvalConfig, ExperimentPlan, Runner, ScheduledRunner};
use pareval_llm::{all_models, OracleBackend};
use pareval_translate::Technique;
use std::sync::Arc;

fn analyze_eval() -> EvalConfig {
    EvalConfig {
        max_cases: 1,
        analyze: true,
        ..EvalConfig::default()
    }
}

fn main() {
    // --- Oracle grid: the analyzer must not cry wolf. -------------------
    let oracle_plan = ExperimentPlan::builder()
        .samples(1)
        .backend(Arc::new(OracleBackend))
        .eval(analyze_eval())
        .build();
    let oracle = ScheduledRunner::new(4).run(&oracle_plan);
    let mut oracle_built = 0u64;
    let mut oracle_errors = 0u64;
    for cell in oracle.cells.values() {
        for record in cell.records() {
            let r = &record.result;
            if r.overall.as_ref().is_some_and(|o| o.built) {
                oracle_built += 1;
                oracle_errors += r.analysis.iter().filter(|f| f.is_error()).count() as u64;
            }
        }
    }
    println!("oracle grid: {oracle_built} built samples, {oracle_errors} error findings");
    assert!(oracle_built > 0, "oracle grid built nothing");
    assert_eq!(oracle_errors, 0, "oracle translations flagged racy");

    // --- Injected-race grid: the analyzer must flag every sample. -------
    let injected_plan = ExperimentPlan::builder()
        .samples(4)
        .pairs([TranslationPair::OMP_THREADS_TO_OFFLOAD])
        .techniques([Technique::NonAgentic])
        .models(
            all_models()
                .into_iter()
                .filter(|m| m.name == "o4-mini")
                .map(|m| m.with_race_rate(1.0)),
        )
        .apps(["XSBench"])
        .eval(analyze_eval())
        .build();
    let injected = ScheduledRunner::new(4).run(&injected_plan);
    let mut injected_samples = 0u64;
    let mut injected_flagged = 0u64;
    let mut race_free_at_1 = 0.0f64;
    for cell in injected.cells.values() {
        for record in cell.records() {
            let r = &record.result;
            injected_samples += 1;
            if r.analysis.iter().any(|f| f.is_error()) {
                injected_flagged += 1;
            }
        }
        race_free_at_1 = cell.race_free_at_k(1);
    }
    println!("injected grid: {injected_flagged}/{injected_samples} samples flagged");
    assert!(injected_samples > 0, "injected grid produced no samples");
    assert_eq!(
        injected_flagged, injected_samples,
        "analyzer missed an injected race"
    );

    println!("{}", report::race_report(&injected));

    let raw_reduction = injected
        .race_finding_counts()
        .into_iter()
        .filter(|((_, rule), _)| *rule == pareval_core::AnalysisRule::RawReduction)
        .map(|(_, n)| n)
        .sum::<usize>();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"analyze\",\n",
            "  \"oracle_built\": {ob},\n",
            "  \"oracle_error_findings\": {oe},\n",
            "  \"injected_samples\": {is},\n",
            "  \"injected_flagged\": {if_},\n",
            "  \"raw_reduction_findings\": {rr},\n",
            "  \"race_free_at_1_injected\": {rf:.4}\n",
            "}}\n",
        ),
        ob = oracle_built,
        oe = oracle_errors,
        is = injected_samples,
        if_ = injected_flagged,
        rr = raw_reduction,
        rf = race_free_at_1,
    );
    std::fs::write("BENCH_analyze.json", json).expect("write BENCH_analyze.json");
    println!("wrote BENCH_analyze.json");

    println!("oracle grid race-clean; all {injected_flagged} injected races flagged");
}
