//! Calibration tables transcribed from paper Fig. 2 (correctness heatmaps).
//!
//! These per-cell scores are the only available ground truth for how each
//! LLM behaves on each task without API access; the simulated backends use
//! them as *generative parameters* (sampling an outcome per attempt), and
//! the benchmark then re-measures the resulting build@1 / pass@1 through the
//! full translate → build → run pipeline. `None` cells are configurations
//! the paper could not run (context windows or compute budget).
//!
//! Model column order everywhere: gemini-1.5-flash, gpt-4o-mini, o4-mini,
//! Llama-3.3-70B, qwq-32b-q8_0. App row order: nanoXOR, microXORh,
//! microXOR, SimpleMOC-kernel, XSBench, llm.c.

use minihpc_lang::model::TranslationPair;
use pareval_translate::Technique;

pub const N_MODELS: usize = 5;
pub const N_APPS: usize = 6;

/// One heatmap cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellScores {
    pub build_code: Option<f64>,
    pub pass_code: Option<f64>,
    pub build_overall: Option<f64>,
    pub pass_overall: Option<f64>,
}

impl CellScores {
    /// Was this configuration run at all in the paper?
    pub fn was_run(&self) -> bool {
        self.build_code.is_some()
    }
}

type Grid = [[Option<f64>; N_MODELS]; N_APPS];

const X: Option<f64> = None;
#[allow(non_snake_case)]
const fn S(v: f64) -> Option<f64> {
    Some(v)
}

// --- Fig. 2(a,b): CUDA → OpenMP offload -------------------------------------

const OFF_NA_BUILD_CODE: Grid = [
    [S(1.0), S(0.98), S(0.92), S(0.92), S(0.9)],
    [S(0.0), S(1.0), S(0.56), S(0.88), S(0.4)],
    [S(0.1), S(0.3), S(0.52), S(0.76), S(0.46)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, X, S(0.0), S(0.0), S(0.0)],
];
const OFF_NA_PASS_CODE: Grid = [
    [S(0.0), S(0.72), S(0.84), S(0.2), S(0.6)],
    [S(0.0), S(0.32), S(0.48), S(0.76), S(0.4)],
    [S(0.06), S(0.26), S(0.48), S(0.36), S(0.38)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, X, S(0.0), S(0.0), S(0.0)],
];
const OFF_NA_BUILD_OVERALL: Grid = [
    [S(0.58), S(0.46), S(0.76), S(0.0), S(0.64)],
    [S(0.0), S(0.08), S(0.32), S(0.0), S(0.32)],
    [S(0.0), S(0.1), S(0.44), S(0.04), S(0.24)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, X, S(0.0), S(0.0), S(0.0)],
];
const OFF_NA_PASS_OVERALL: Grid = [
    [S(0.0), S(0.42), S(0.68), S(0.0), S(0.44)],
    [S(0.0), S(0.08), S(0.24), S(0.0), S(0.32)],
    [S(0.0), S(0.1), S(0.4), S(0.04), S(0.2)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, X, S(0.0), S(0.0), S(0.0)],
];

const OFF_TD_BUILD_CODE: Grid = [
    [S(1.0), S(0.98), S(0.96), S(0.68), S(0.22)],
    [S(0.24), S(0.24), S(0.12), S(0.36), S(0.36)],
    [S(0.0), S(0.08), S(0.2), S(0.3), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.02), S(0.08)],
    [S(0.0), S(0.0), S(0.0), S(0.0), X],
    [S(0.04), S(0.16), S(0.0), S(0.0), X],
];
const OFF_TD_PASS_CODE: Grid = [
    [S(0.0), S(0.68), S(0.88), S(0.2), S(0.2)],
    [S(0.12), S(0.12), S(0.12), S(0.24), S(0.12)],
    [S(0.0), S(0.0), S(0.2), S(0.12), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), X],
    [S(0.0), S(0.0), S(0.0), S(0.0), X],
];
const OFF_TD_BUILD_OVERALL: Grid = [
    [S(0.0), S(0.02), S(0.8), S(0.02), S(0.04)],
    [S(0.0), S(0.0), S(0.12), S(0.0), S(0.12)],
    [S(0.0), S(0.04), S(0.16), S(0.04), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.02), S(0.08)],
    [S(0.0), S(0.0), S(0.0), S(0.0), X],
    [S(0.04), S(0.16), S(0.0), S(0.0), X],
];
const OFF_TD_PASS_OVERALL: Grid = [
    [S(0.0), S(0.02), S(0.72), S(0.0), S(0.04)],
    [S(0.0), S(0.0), S(0.12), S(0.0), S(0.04)],
    [S(0.0), S(0.0), S(0.16), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), X],
    [S(0.0), S(0.0), S(0.0), S(0.0), X],
];

// --- Fig. 2(c,d): CUDA → Kokkos ----------------------------------------------

const KK_NA_BUILD_CODE: Grid = [
    [S(0.0), S(0.26), S(1.0), S(1.0), S(0.04)],
    [S(0.0), S(0.4), S(0.96), S(0.04), S(0.12)],
    [S(0.0), S(0.24), S(0.72), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, X, S(0.0), S(0.0), S(0.0)],
];
const KK_NA_PASS_CODE: Grid = [
    [S(0.0), S(0.0), S(0.6), S(0.0), S(0.0)],
    [S(0.0), S(0.16), S(0.08), S(0.0), S(0.04)],
    [S(0.0), S(0.0), S(0.24), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, X, S(0.0), S(0.0), S(0.0)],
];
const KK_NA_BUILD_OVERALL: Grid = [
    [S(0.0), S(0.0), S(1.0), S(0.0), S(0.0)],
    [S(0.0), S(0.2), S(0.92), S(0.04), S(0.08)],
    [S(0.0), S(0.24), S(0.72), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, X, S(0.0), S(0.0), S(0.0)],
];
const KK_NA_PASS_OVERALL: Grid = [
    [S(0.0), S(0.0), S(0.6), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.04), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.24), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, X, S(0.0), S(0.0), S(0.0)],
];

const KK_TD_BUILD_CODE: Grid = [
    [S(0.0), S(0.32), S(0.96), S(0.44), S(0.08)],
    [S(0.0), S(0.28), S(0.48), S(0.0), S(0.04)],
    [S(0.0), S(0.2), S(0.28), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), X, X],
    [S(0.0), S(0.0), S(0.0), X, X],
];
const KK_TD_PASS_CODE: Grid = [
    [S(0.0), S(0.0), S(0.04), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.04), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.04), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), X, X],
    [S(0.0), S(0.0), S(0.0), X, X],
];
const KK_TD_BUILD_OVERALL: Grid = [
    [S(0.0), S(0.16), S(0.92), S(0.08), S(0.08)],
    [S(0.0), S(0.2), S(0.44), S(0.0), S(0.04)],
    [S(0.0), S(0.2), S(0.28), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), X, X],
    [S(0.0), S(0.0), S(0.0), X, X],
];
const KK_TD_PASS_OVERALL: Grid = [
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.04), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.0), X, X],
    [S(0.0), S(0.0), S(0.0), X, X],
];

/// SWE-agent (CUDA→Kokkos only, GPT-4o-mini, apps nanoXOR..SimpleMOC).
const SWE_BUILD: [Option<f64>; N_APPS] = [S(0.28), S(0.08), S(0.0), S(0.0), X, X];
const SWE_PASS: [Option<f64>; N_APPS] = [S(0.0), S(0.0), S(0.0), S(0.0), X, X];

// --- Fig. 2(e,f): OpenMP threads → offload (4 apps; SimpleMOC/llm.c N/A) -----

const T2O_NA_BUILD_CODE: Grid = [
    [S(1.0), S(1.0), S(0.84), S(1.0), S(0.6)],
    [S(1.0), S(1.0), S(0.92), S(0.36), S(0.16)],
    [S(1.0), S(0.4), S(0.36), S(0.96), S(0.04)],
    [X, X, X, X, X],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, X, X, X, X],
];
const T2O_NA_PASS_CODE: Grid = [
    [S(0.0), S(1.0), S(0.68), S(0.0), S(0.6)],
    [S(0.0), S(0.6), S(0.76), S(0.0), S(0.08)],
    [S(0.0), S(0.4), S(0.32), S(0.68), S(0.04)],
    [X, X, X, X, X],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, X, X, X, X],
];
const T2O_NA_BUILD_OVERALL: Grid = [
    [S(0.0), S(0.08), S(0.84), S(0.0), S(0.24)],
    [S(0.0), S(0.0), S(0.84), S(0.0), S(0.08)],
    [S(0.0), S(0.0), S(0.32), S(0.0), S(0.04)],
    [X, X, X, X, X],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, X, X, X, X],
];
const T2O_NA_PASS_OVERALL: Grid = [
    [S(0.0), S(0.08), S(0.68), S(0.0), S(0.24)],
    [S(0.0), S(0.0), S(0.68), S(0.0), S(0.04)],
    [S(0.0), S(0.0), S(0.28), S(0.0), S(0.04)],
    [X, X, X, X, X],
    [S(0.0), S(0.0), S(0.0), S(0.0), S(0.0)],
    [X, X, X, X, X],
];

const T2O_TD_BUILD_CODE: Grid = [
    [S(1.0), S(0.96), S(0.96), S(0.44), S(0.2)],
    [S(1.0), S(0.72), S(0.72), S(0.24), S(0.08)],
    [S(0.88), S(0.12), S(0.36), S(0.16), S(0.12)],
    [X, X, X, X, X],
    [S(0.0), S(0.0), S(0.0), S(0.0), X],
    [X, X, X, X, X],
];
const T2O_TD_PASS_CODE: Grid = [
    [S(0.0), S(0.92), S(0.96), S(0.28), S(0.16)],
    [S(0.08), S(0.2), S(0.6), S(0.0), S(0.0)],
    [S(0.08), S(0.08), S(0.32), S(0.08), S(0.08)],
    [X, X, X, X, X],
    [S(0.0), S(0.0), S(0.0), S(0.0), X],
    [X, X, X, X, X],
];
const T2O_TD_BUILD_OVERALL: Grid = [
    [S(0.0), S(0.0), S(0.84), S(0.32), S(0.16)],
    [S(0.0), S(0.0), S(0.4), S(0.12), S(0.04)],
    [S(0.0), S(0.0), S(0.32), S(0.08), S(0.12)],
    [X, X, X, X, X],
    [S(0.0), S(0.0), S(0.0), S(0.0), X],
    [X, X, X, X, X],
];
const T2O_TD_PASS_OVERALL: Grid = [
    [S(0.0), S(0.0), S(0.84), S(0.24), S(0.16)],
    [S(0.0), S(0.0), S(0.32), S(0.0), S(0.0)],
    [S(0.0), S(0.0), S(0.28), S(0.04), S(0.08)],
    [X, X, X, X, X],
    [S(0.0), S(0.0), S(0.0), S(0.0), X],
    [X, X, X, X, X],
];

/// App index in Table 1 order (0 = nanoXOR ... 5 = llm.c).
pub fn app_index(app_name: &str) -> Option<usize> {
    Some(match app_name {
        "nanoXOR" => 0,
        "microXORh" => 1,
        "microXOR" => 2,
        "SimpleMOC-kernel" => 3,
        "XSBench" => 4,
        "llm.c" => 5,
        _ => return None,
    })
}

/// Look up the paper's scores for one heatmap cell.
pub fn paper_cell(
    pair: TranslationPair,
    technique: Technique,
    model_idx: usize,
    app_idx: usize,
) -> CellScores {
    let missing = CellScores {
        build_code: None,
        pass_code: None,
        build_overall: None,
        pass_overall: None,
    };
    if model_idx >= N_MODELS || app_idx >= N_APPS {
        return missing;
    }
    if technique == Technique::SweAgent {
        // Only CUDA→Kokkos with GPT-4o-mini (model index 1).
        if pair != TranslationPair::CUDA_TO_KOKKOS || model_idx != 1 {
            return missing;
        }
        return CellScores {
            build_code: SWE_BUILD[app_idx],
            pass_code: SWE_PASS[app_idx],
            build_overall: SWE_BUILD[app_idx],
            pass_overall: SWE_PASS[app_idx],
        };
    }
    let grids: Option<(&Grid, &Grid, &Grid, &Grid)> = match (pair, technique) {
        (TranslationPair::CUDA_TO_OMP_OFFLOAD, Technique::NonAgentic) => Some((
            &OFF_NA_BUILD_CODE,
            &OFF_NA_PASS_CODE,
            &OFF_NA_BUILD_OVERALL,
            &OFF_NA_PASS_OVERALL,
        )),
        (TranslationPair::CUDA_TO_OMP_OFFLOAD, Technique::TopDownAgentic) => Some((
            &OFF_TD_BUILD_CODE,
            &OFF_TD_PASS_CODE,
            &OFF_TD_BUILD_OVERALL,
            &OFF_TD_PASS_OVERALL,
        )),
        (TranslationPair::CUDA_TO_KOKKOS, Technique::NonAgentic) => Some((
            &KK_NA_BUILD_CODE,
            &KK_NA_PASS_CODE,
            &KK_NA_BUILD_OVERALL,
            &KK_NA_PASS_OVERALL,
        )),
        (TranslationPair::CUDA_TO_KOKKOS, Technique::TopDownAgentic) => Some((
            &KK_TD_BUILD_CODE,
            &KK_TD_PASS_CODE,
            &KK_TD_BUILD_OVERALL,
            &KK_TD_PASS_OVERALL,
        )),
        (TranslationPair::OMP_THREADS_TO_OFFLOAD, Technique::NonAgentic) => Some((
            &T2O_NA_BUILD_CODE,
            &T2O_NA_PASS_CODE,
            &T2O_NA_BUILD_OVERALL,
            &T2O_NA_PASS_OVERALL,
        )),
        (TranslationPair::OMP_THREADS_TO_OFFLOAD, Technique::TopDownAgentic) => Some((
            &T2O_TD_BUILD_CODE,
            &T2O_TD_PASS_CODE,
            &T2O_TD_BUILD_OVERALL,
            &T2O_TD_PASS_OVERALL,
        )),
        _ => None,
    };
    match grids {
        Some((bc, pc, bo, po)) => CellScores {
            build_code: bc[app_idx][model_idx],
            pass_code: pc[app_idx][model_idx],
            build_overall: bo[app_idx][model_idx],
            pass_overall: po[app_idx][model_idx],
        },
        None => missing,
    }
}

/// Plan-time feasibility of one experiment cell, by model/app *name*.
///
/// This is the exact condition [`crate::SimulatedModel`] samples its attempt
/// plan with (including the index fallback for unknown names), exposed so a
/// harness can mark cells infeasible when enumerating a plan instead of
/// discovering it one failed sample at a time.
pub fn cell_feasible(
    pair: TranslationPair,
    technique: Technique,
    model_name: &str,
    app_name: &str,
) -> bool {
    let midx = crate::profiles::model_index(model_name).unwrap_or(0);
    let aidx = app_index(app_name).unwrap_or(0);
    paper_cell(pair, technique, midx, aidx).was_run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_never_exceeds_build() {
        for pair in TranslationPair::ALL {
            for tech in [Technique::NonAgentic, Technique::TopDownAgentic] {
                for m in 0..N_MODELS {
                    for a in 0..N_APPS {
                        let c = paper_cell(pair, tech, m, a);
                        if let (Some(b), Some(p)) = (c.build_code, c.pass_code) {
                            assert!(
                                p <= b + 1e-9,
                                "{pair} {tech} m{m} a{a}: pass {p} > build {b}"
                            );
                        }
                        if let (Some(b), Some(p)) = (c.build_overall, c.pass_overall) {
                            assert!(p <= b + 1e-9, "{pair} {tech} m{m} a{a} overall");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn key_findings_hold_in_the_tables() {
        // No pass@1 > 0 for apps larger than microXOR anywhere.
        for pair in TranslationPair::ALL {
            for tech in [Technique::NonAgentic, Technique::TopDownAgentic] {
                for m in 0..N_MODELS {
                    for a in 3..N_APPS {
                        let c = paper_cell(pair, tech, m, a);
                        assert_eq!(
                            c.pass_overall.unwrap_or(0.0),
                            0.0,
                            "{pair} {tech} m{m} a{a}"
                        );
                    }
                }
            }
        }
        // The Llama nanoXOR anomaly (Sec. 8.2): worse on nanoXOR than
        // microXORh for non-agentic CUDA→offload code-only pass.
        let nano = paper_cell(
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::NonAgentic,
            3,
            0,
        );
        let microh = paper_cell(
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::NonAgentic,
            3,
            1,
        );
        assert!(nano.pass_code.unwrap() < microh.pass_code.unwrap());
    }

    #[test]
    fn missing_cells_match_paper() {
        // Gemini XSBench CUDA→offload non-agentic was not runnable.
        let c = paper_cell(
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::NonAgentic,
            0,
            4,
        );
        assert!(!c.was_run());
        // QwQ XSBench top-down (all pairs) exceeded the node-hour budget.
        let c = paper_cell(
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::TopDownAgentic,
            4,
            4,
        );
        assert!(!c.was_run());
        // SWE-agent exists only for CUDA→Kokkos with GPT-4o-mini.
        let c = paper_cell(TranslationPair::CUDA_TO_KOKKOS, Technique::SweAgent, 1, 0);
        assert!(c.was_run());
        let c = paper_cell(
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::SweAgent,
            1,
            0,
        );
        assert!(!c.was_run());
    }

    #[test]
    fn kokkos_is_hardest_pair() {
        // Mean non-agentic code-only pass across run cells per pair.
        let mean = |pair| {
            let mut sum = 0.0;
            let mut n = 0.0;
            for m in 0..N_MODELS {
                for a in 0..N_APPS {
                    if let Some(p) = paper_cell(pair, Technique::NonAgentic, m, a).pass_code {
                        sum += p;
                        n += 1.0;
                    }
                }
            }
            sum / n
        };
        let kk = mean(TranslationPair::CUDA_TO_KOKKOS);
        assert!(kk < mean(TranslationPair::CUDA_TO_OMP_OFFLOAD));
        assert!(kk < mean(TranslationPair::OMP_THREADS_TO_OFFLOAD));
    }
}
