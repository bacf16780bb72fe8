//! Analyzer-guided repair vs blind repair, benchmarked on two grids:
//!
//! 1. **Simulated injected-race grid** — o4-mini with `race_rate` 1.0 on
//!    the XSBench threads→offload cell: every translation drops a
//!    `reduction` clause. Blind repair rolls the model's per-category fix
//!    probability each round; guided repair hands the backend the
//!    analyzer's high-confidence fix-its, which it applies
//!    deterministically. Guided must end every sample race-free and must
//!    not spend more repair rounds than blind.
//! 2. **Oracle grid over generated racy repos** — `minihpc-gen`
//!    `DirectiveRace` specs registered as applications. The oracle
//!    transpiles the racy source faithfully, so blind repair (re-emitting
//!    the reference) can never cure the race: race_free@1 stays 0.0. With
//!    fix-its the same backend repairs every sample in one round — the
//!    cleanest possible contrast between regeneration and guided editing.
//!
//! Drops `BENCH_analyze_v2.json` in the working directory.
//!
//! Run with: `cargo run --release --example guided_repair`
//! (`make examples` runs it; a failed assert is a non-zero exit, and the
//! regenerated `BENCH_analyze_v2.json` must match the committed file.)

use minihpc_gen::{ErrorProfile, GenSpec};
use minihpc_lang::model::TranslationPair;
use pareval_core::{EvalConfig, ExperimentPlan, ExperimentResults, Runner, ScheduledRunner};
use pareval_llm::{all_models, OracleBackend};
use pareval_translate::Technique;
use std::sync::Arc;

/// Generated directive-race applications for the oracle grid.
const RACY_APPS: u64 = 6;

fn racy_specs() -> Vec<GenSpec> {
    (0..RACY_APPS)
        .map(|i| {
            GenSpec::new(0xD1CE_0000 + i)
                .with_files(1 + (i as usize % 3))
                .with_errors(ErrorProfile::DirectiveRace)
        })
        .collect()
}

fn repair_eval(guided: bool) -> EvalConfig {
    EvalConfig {
        max_cases: 1,
        analyze: true,
        repair_budget: 3,
        repair_guided: guided,
        ..EvalConfig::default()
    }
}

fn sim_plan(guided: bool) -> ExperimentPlan {
    ExperimentPlan::builder()
        .samples(8)
        .pairs([TranslationPair::OMP_THREADS_TO_OFFLOAD])
        .techniques([Technique::NonAgentic])
        .models(
            all_models()
                .into_iter()
                .filter(|m| m.name == "o4-mini")
                .map(|m| m.with_race_rate(1.0)),
        )
        .apps(["XSBench"])
        .eval(repair_eval(guided))
        .build()
}

fn oracle_plan(guided: bool) -> ExperimentPlan {
    ExperimentPlan::builder()
        .samples(1)
        .pairs([TranslationPair::OMP_THREADS_TO_OFFLOAD])
        .techniques([Technique::NonAgentic])
        .models(all_models().into_iter().filter(|m| m.name == "gpt-4o-mini"))
        // No built-in app matches this filter: the grid is exactly the
        // generated racy apps registered below.
        .apps(["generated-only"])
        .extend_apps(racy_specs().iter().map(pareval_apps::generated_app))
        .backend(Arc::new(OracleBackend))
        .eval(repair_eval(guided))
        .build()
}

/// Per-run repair summary: how many samples ended race-free, out of how
/// many, and the mean final repair round of the race-free ones (0 = never
/// needed repair).
struct RepairSummary {
    samples: u64,
    race_free: u64,
    mean_rounds: Option<f64>,
}

impl RepairSummary {
    fn of(results: &ExperimentResults) -> RepairSummary {
        let mut samples = 0u64;
        let mut race_free = 0u64;
        let mut final_rounds = Vec::new();
        for cell in results.cells.values() {
            for record in cell.records() {
                let r = &record.result;
                samples += 1;
                if r.race_free() {
                    race_free += 1;
                    final_rounds.push(r.rounds.last().map_or(0, |round| round.round));
                }
            }
        }
        RepairSummary {
            samples,
            race_free,
            mean_rounds: pareval_metrics::mean_rounds_to_success(&final_rounds),
        }
    }

    fn race_free_rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.race_free as f64 / self.samples as f64
        }
    }
}

fn run(plan: &ExperimentPlan) -> RepairSummary {
    RepairSummary::of(&ScheduledRunner::new(4).run(plan))
}

fn fmt_rounds(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{v:.4}"),
        None => "null".to_string(),
    }
}

fn main() {
    // --- Grid 1: simulated injected races, blind vs guided. -------------
    let sim_blind = run(&sim_plan(false));
    let sim_guided = run(&sim_plan(true));
    println!(
        "simulated grid: blind {}/{} race-free (mean rounds {}), guided {}/{} (mean rounds {})",
        sim_blind.race_free,
        sim_blind.samples,
        fmt_rounds(sim_blind.mean_rounds),
        sim_guided.race_free,
        sim_guided.samples,
        fmt_rounds(sim_guided.mean_rounds),
    );
    assert!(sim_blind.samples > 0, "simulated grid produced no samples");
    assert_eq!(
        sim_guided.race_free, sim_guided.samples,
        "guided repair left a simulated sample racy"
    );
    let sim_guided_rounds = sim_guided.mean_rounds.expect("guided repaired samples");
    if let Some(blind_rounds) = sim_blind.mean_rounds {
        assert!(
            sim_guided_rounds <= blind_rounds + 1e-9,
            "guided spent more rounds ({sim_guided_rounds:.2}) than blind ({blind_rounds:.2})"
        );
    }
    assert!(
        sim_guided.race_free_rate() >= sim_blind.race_free_rate(),
        "guided repaired fewer samples than blind"
    );

    // --- Grid 2: oracle over generated racy repos, blind vs guided. -----
    let oracle_blind = run(&oracle_plan(false));
    let oracle_guided = run(&oracle_plan(true));
    println!(
        "oracle grid: blind {}/{} race-free, guided {}/{} (mean rounds {})",
        oracle_blind.race_free,
        oracle_blind.samples,
        oracle_guided.race_free,
        oracle_guided.samples,
        fmt_rounds(oracle_guided.mean_rounds),
    );
    assert_eq!(
        oracle_blind.samples, RACY_APPS,
        "oracle grid lost generated apps"
    );
    assert_eq!(
        oracle_blind.race_free, 0,
        "blind oracle repair cured a source-level race it cannot see"
    );
    assert_eq!(
        oracle_guided.race_free, oracle_guided.samples,
        "guided repair left an oracle sample racy"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"analyze_v2\",\n",
            "  \"sim_samples\": {ss},\n",
            "  \"sim_blind_race_free\": {sbr:.4},\n",
            "  \"sim_guided_race_free\": {sgr:.4},\n",
            "  \"sim_blind_mean_rounds\": {sbm},\n",
            "  \"sim_guided_mean_rounds\": {sgm},\n",
            "  \"oracle_samples\": {os},\n",
            "  \"oracle_blind_race_free\": {obr:.4},\n",
            "  \"oracle_guided_race_free\": {ogr:.4},\n",
            "  \"oracle_guided_mean_rounds\": {ogm}\n",
            "}}\n",
        ),
        ss = sim_blind.samples,
        sbr = sim_blind.race_free_rate(),
        sgr = sim_guided.race_free_rate(),
        sbm = fmt_rounds(sim_blind.mean_rounds),
        sgm = fmt_rounds(sim_guided.mean_rounds),
        os = oracle_blind.samples,
        obr = oracle_blind.race_free_rate(),
        ogr = oracle_guided.race_free_rate(),
        ogm = fmt_rounds(oracle_guided.mean_rounds),
    );
    std::fs::write("BENCH_analyze_v2.json", json).expect("write BENCH_analyze_v2.json");
    println!("wrote BENCH_analyze_v2.json");

    println!(
        "guided race-free {:.2}/{:.2} (sim/oracle), blind oracle 0.00; \
         guided rounds {} <= blind {}",
        sim_guided.race_free_rate(),
        oracle_guided.race_free_rate(),
        fmt_rounds(sim_guided.mean_rounds),
        fmt_rounds(sim_blind.mean_rounds),
    );
}
