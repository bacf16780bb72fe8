//! Workspace-spanning integration tests: run benchmark slices end to end
//! (simulated LLM → technique → MiniHPC build → simulated GPU run → metrics
//! → clustering) and check the paper's headline findings hold.

use minihpc_lang::model::TranslationPair;
use pareval_core::{ExperimentPlan, Metric, Runner, ScheduledRunner, Scoring};
use pareval_errclust::{cluster_logs, PipelineConfig};
use pareval_llm::all_models;
use pareval_repo as _;
use pareval_translate::Technique;

fn slice(samples: u32, models: &[&str], apps: &[&str]) -> pareval_core::ExperimentResults {
    let plan = ExperimentPlan::builder()
        .samples(samples)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .techniques([Technique::NonAgentic])
        .models(
            all_models()
                .into_iter()
                .filter(|m| models.contains(&m.name)),
        )
        .apps(apps.iter().copied())
        .build();
    ScheduledRunner::new(2).run(&plan)
}

#[test]
fn overall_never_exceeds_code_only() {
    let results = slice(6, &["o4-mini", "gpt-4o-mini"], &["nanoXOR", "microXOR"]);
    for (key, cell) in &results.cells {
        if cell.samples() == 0 {
            continue;
        }
        let builds_code = cell.successes(Metric::Build, Scoring::CodeOnly);
        let builds_overall = cell.successes(Metric::Build, Scoring::Overall);
        assert!(
            builds_overall <= builds_code,
            "{key:?}: overall build beats code-only"
        );
        assert!(
            cell.successes(Metric::Pass, Scoring::CodeOnly) <= builds_code,
            "{key:?}"
        );
        assert!(
            cell.successes(Metric::Pass, Scoring::Overall) <= builds_overall,
            "{key:?}"
        );
    }
}

#[test]
fn o4_mini_outperforms_gemini_on_nanoxor_offload() {
    // Paper Fig. 2(b): pass@1 code-only is 0.84 (o4-mini) vs 0 (gemini).
    let results = slice(8, &["o4-mini", "gemini-1.5-flash"], &["nanoXOR"]);
    let o4 = results
        .cell(
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::NonAgentic,
            "o4-mini",
            "nanoXOR",
        )
        .unwrap();
    let gem = results
        .cell(
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::NonAgentic,
            "gemini-1.5-flash",
            "nanoXOR",
        )
        .unwrap();
    let o4_pass = o4.pass_at_k(Scoring::CodeOnly, 1);
    assert!(o4_pass > 0.4, "o4: {o4_pass}");
    assert_eq!(
        gem.successes(Metric::Pass, Scoring::CodeOnly),
        0,
        "gemini never passes this cell"
    );
}

#[test]
fn pass_at_k_exceeds_pass_at_1_on_flaky_cells() {
    // The collector retains raw records, so pass@k for k > 1 is a real
    // query: on a cell with 0 < c < n passing samples it strictly
    // dominates pass@1 (more draws can only help).
    let results = slice(8, &["gpt-4o-mini"], &["nanoXOR"]);
    let cell = results
        .cell(
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::NonAgentic,
            "gpt-4o-mini",
            "nanoXOR",
        )
        .unwrap();
    let c = cell.successes(Metric::Pass, Scoring::CodeOnly);
    assert!(
        c > 0 && c < cell.samples(),
        "expected a mixed cell, got {c}/{}",
        cell.samples()
    );
    let p1 = cell.pass_at_k(Scoring::CodeOnly, 1);
    let p4 = cell.pass_at_k(Scoring::CodeOnly, 4);
    assert!(p4 > p1, "pass@4 {p4} should beat pass@1 {p1}");
    assert!(p4 <= 1.0);
}

#[test]
fn larger_apps_never_pass() {
    // Paper key finding: no pass@1 > 0 for apps larger than microXOR.
    let results = slice(4, &["o4-mini"], &["SimpleMOC-kernel"]);
    for cell in results.cells.values() {
        assert_eq!(cell.successes(Metric::Pass, Scoring::CodeOnly), 0);
        assert_eq!(cell.successes(Metric::Pass, Scoring::Overall), 0);
    }
}

#[test]
fn failed_builds_cluster_into_categories() {
    let results = slice(
        6,
        &["gemini-1.5-flash", "Llama-3.3-70B"],
        &["nanoXOR", "microXORh"],
    );
    let logs: Vec<_> = results
        .error_logs_with_models()
        .into_iter()
        .map(|(_, l)| l)
        .collect();
    assert!(!logs.is_empty(), "expected some build failures");
    let clustering = cluster_logs(&logs, &PipelineConfig::default());
    let assigned: usize = clustering.clusters.iter().map(|c| c.members.len()).sum();
    assert_eq!(assigned + clustering.noise.len(), logs.len());
    assert!(
        clustering.purity > 0.6,
        "clustering purity too low: {}",
        clustering.purity
    );
}

#[test]
fn token_ordering_matches_fig4() {
    let results = slice(3, &["qwq-32b-q8_0", "gemini-1.5-flash"], &["nanoXOR"]);
    let qwq = results
        .cell(
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::NonAgentic,
            "qwq-32b-q8_0",
            "nanoXOR",
        )
        .unwrap()
        .tokens()
        .mean()
        .unwrap();
    let gem = results
        .cell(
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::NonAgentic,
            "gemini-1.5-flash",
            "nanoXOR",
        )
        .unwrap()
        .tokens()
        .mean()
        .unwrap();
    assert!(qwq > gem * 5.0, "qwq {qwq} vs gemini {gem}");
}

#[test]
fn swe_agent_builds_sometimes_but_never_passes() {
    // Paper Fig. 2(c,d): SWE-agent (GPT-4o-mini, CUDA→Kokkos) reaches 0.28
    // build@1 on nanoXOR but pass@1 = 0 everywhere.
    let plan = ExperimentPlan::builder()
        .samples(8)
        .pairs([TranslationPair::CUDA_TO_KOKKOS])
        .techniques([Technique::SweAgent])
        .models(all_models().into_iter().filter(|m| m.name == "gpt-4o-mini"))
        .apps(["nanoXOR"])
        .build();
    let results = ScheduledRunner::new(1).run(&plan);
    let cell = results
        .cell(
            TranslationPair::CUDA_TO_KOKKOS,
            Technique::SweAgent,
            "gpt-4o-mini",
            "nanoXOR",
        )
        .unwrap();
    assert!(cell.feasible());
    assert_eq!(
        cell.successes(Metric::Pass, Scoring::Overall),
        0,
        "SWE-agent never passes"
    );
}
