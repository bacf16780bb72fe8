//! The pluggable translation-backend layer.
//!
//! A [`TranslationBackend`] is an object-safe *factory of attempts*: the
//! experiment harness threads one through an
//! `ExperimentPlan`, and for every scheduled sample calls
//! [`TranslationBackend::start_attempt`] to obtain a fresh [`Attempt`] —
//! the stateful, single-use object that performs the per-file translations
//! of that sample. `Attempt` is a [`pareval_translate::Backend`] (the
//! techniques drive it file by file) extended with the attempt-level
//! reporting the harness needs: feasibility and token usage.
//!
//! Two backends ship with the crate:
//!
//! | backend | purpose |
//! |---|---|
//! | [`SimulatedBackend`](crate::SimulatedBackend) | paper-calibrated simulation (the default; wraps [`SimulatedModel`](crate::SimulatedModel)) |
//! | [`OracleBackend`](crate::OracleBackend) | always-correct translations — a pass@1 = 1.0 upper bound |

use crate::backend::TokenUsage;
use crate::profiles::ModelProfile;
use minihpc_analyze::FixIt;
use minihpc_build::ErrorCategory;
use minihpc_lang::model::TranslationPair;
use minihpc_lang::repo::{Body, SourceRepo};
use pareval_translate::techniques::{Backend, BackendError, BackendOutput, ByteCount, FileJob};
use pareval_translate::Technique;
use std::fmt::{self, Write};
use std::sync::Arc;

/// Everything a backend needs to start one translation attempt (one sample
/// of one task with one model under one technique).
///
/// The source repository is shared by `Arc`, never cloned per attempt: the
/// harness clones the app's repo once into the `Arc`, and the spec, the
/// technique's `TranslationJob`, and the attempt all borrow the same
/// allocation.
#[derive(Debug, Clone)]
pub struct AttemptSpec<'a> {
    pub model: &'a ModelProfile,
    pub technique: Technique,
    pub pair: TranslationPair,
    pub app_name: &'a str,
    pub source_repo: Arc<SourceRepo>,
    /// Experiment seed; together with `sample` it fully determines a
    /// deterministic backend's output.
    pub seed: u64,
    /// Index of this generation within its cell (pass@k needs N
    /// independent samples).
    pub sample: u32,
}

/// A structured summary of a failed build, handed back to the attempt for
/// one repair round (paper Fig. 3: build failures are categorized, so the
/// feedback a model receives is structured, not free text).
///
/// The harness (pareval-core's `EvalPipeline`) produces one per round from
/// the build log's categorized diagnostics: the distinct error categories,
/// the files they point at, and the first N rendered diagnostic lines —
/// the same prompt budget a real agentic loop would spend on compiler
/// output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairContext {
    /// 1-based repair round (round 0 is the original translation).
    pub round: u32,
    /// Distinct error categories, in first-occurrence order.
    pub categories: Vec<ErrorCategory>,
    /// Distinct files with errors, in first-occurrence order.
    pub files: Vec<String>,
    /// The first N rendered diagnostic lines of the failed build.
    pub diagnostics: Vec<String>,
    /// Rendered static race/directive findings (`minihpc-analyze`) of a
    /// build that succeeded but was judged racy. Empty unless the harness
    /// runs with the analyzer on, so analyzer-off repair prompts are
    /// byte-identical to the pre-analyzer format.
    pub race_findings: Vec<String>,
    /// Machine-applicable analyzer fix-its (high-confidence errors only),
    /// populated by the harness under `EvalConfig::repair_guided`. A
    /// backend may apply them deterministically via [`apply_fixits`]
    /// instead of regenerating the files. Empty under blind repair, so
    /// blind prompts and outcomes are byte-identical to before.
    pub fixits: Vec<FixIt>,
    /// Current `(path, contents)` text of every file the fix-its target —
    /// what the edits apply against.
    pub fixit_sources: Vec<(String, String)>,
}

impl RepairContext {
    /// The feedback text a backend "reads" this round.
    pub fn prompt_text(&self) -> String {
        let mut out = String::new();
        self.write_prompt(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// The byte length of [`prompt_text`](Self::prompt_text), counted
    /// without building it — the token-accounting basis for repair input
    /// cost.
    pub fn prompt_len(&self) -> usize {
        ByteCount::of(|n| self.write_prompt(n))
    }

    fn write_prompt(&self, out: &mut impl Write) -> fmt::Result {
        out.write_str("The build failed. Fix the following and re-emit the files.\n")?;
        for c in &self.categories {
            writeln!(out, "category: {}", c.label())?;
        }
        for f in &self.files {
            writeln!(out, "file: {f}")?;
        }
        for d in &self.diagnostics {
            writeln!(out, "{d}")?;
        }
        if !self.race_findings.is_empty() {
            out.write_str("Static analysis found data races. Fix the directives.\n")?;
            for r in &self.race_findings {
                writeln!(out, "{r}")?;
            }
        }
        if !self.fixits.is_empty() {
            out.write_str("Suggested fixes (machine-applicable):\n")?;
            for fx in &self.fixits {
                writeln!(out, "{} at {}:{}", fx.title, fx.file, fx.line)?;
            }
        }
        Ok(())
    }
}

/// Apply a repair context's fix-its to its carried file texts, grouped per
/// file. Returns the revised `(path, contents)` files — only files where at
/// least one edit applied — ready to return as
/// [`RepairOutcome::Revised`]. Deterministic: order follows
/// `fixit_sources`, and the edits themselves are line-anchored.
pub fn apply_fixits(ctx: &RepairContext) -> Vec<(String, Body)> {
    let mut out = Vec::new();
    for (path, text) in &ctx.fixit_sources {
        let for_file: Vec<FixIt> = ctx
            .fixits
            .iter()
            .filter(|fx| fx.file == *path)
            .cloned()
            .collect();
        if for_file.is_empty() {
            continue;
        }
        if let Some(edited) = minihpc_analyze::fixit::apply_all(text, &for_file) {
            out.push((path.clone(), Body::from(edited)));
        }
    }
    out
}

/// What one repair round produced.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairOutcome {
    /// Revised `(path, contents)` files to overlay on the translated repo;
    /// the harness re-evaluates the result. May re-emit unchanged (still
    /// broken) text — the re-evaluation is then a build-cache hit. A body
    /// the attempt emitted before is re-emitted by handle, with its hash.
    Revised(Vec<(String, Body)>),
    /// The attempt declines this round (nothing it knows how to fix);
    /// the harness stops the loop even if budget remains.
    GaveUp,
}

/// One in-flight translation attempt: the per-file [`Backend`] a technique
/// drives, plus the attempt-level reporting the harness reads afterwards.
pub trait Attempt: Backend {
    /// Was this configuration runnable at all? (Infeasible attempts return
    /// an error from every `translate` call.)
    fn feasible(&self) -> bool;

    /// Token usage accumulated so far over this attempt.
    fn usage(&self) -> TokenUsage;

    /// One bounded repair round: given a structured summary of the failed
    /// build, emit revised files (or decline). Called by the harness after
    /// a failed build while `EvalConfig::repair_budget` rounds remain;
    /// tokens spent here accumulate into [`Attempt::usage`] (Eq. 2: repair
    /// tokens count toward E_kappa).
    ///
    /// The default declines every round — backends without a repair story
    /// behave exactly as before the repair loop existed.
    fn repair(&mut self, ctx: &RepairContext) -> RepairOutcome {
        let _ = ctx;
        RepairOutcome::GaveUp
    }
}

// `translate_with` takes `&mut dyn Backend`; delegating through the box
// lets `&mut Box<dyn Attempt>` coerce to it without dyn upcasting (which
// would raise the workspace MSRV).
impl Backend for Box<dyn Attempt + '_> {
    fn translate(&mut self, job: &FileJob) -> Result<BackendOutput, BackendError> {
        (**self).translate(job)
    }

    fn context_limit(&self) -> u64 {
        (**self).context_limit()
    }

    fn count_tokens(&self, text: &str) -> u64 {
        (**self).count_tokens(text)
    }

    fn verbose_context(&self) -> bool {
        (**self).verbose_context()
    }
}

/// An object-safe family of translation attempts.
///
/// Implementations must be `Send + Sync`: a plan holds its backend behind
/// `Arc` and parallel runners start attempts from many worker threads at
/// once, so a backend with mutable state must lock it internally.
pub trait TranslationBackend: Send + Sync {
    /// Short stable identifier, used in `Debug` output and reports.
    fn name(&self) -> &'static str;

    /// Start one translation attempt. Called once per scheduled sample;
    /// every call must return a fresh, independent attempt.
    fn start_attempt(&self, spec: &AttemptSpec<'_>) -> Box<dyn Attempt>;

    /// Plan-time feasibility of a cell under this backend.
    ///
    /// The default is the paper calibration
    /// ([`crate::calibration::cell_feasible`]): configurations the paper
    /// could not run (context windows, compute budget) are infeasible.
    /// Backends with different reach override this — the oracle, for
    /// example, is limited only by what its transpiler can solve.
    fn cell_feasible(
        &self,
        pair: TranslationPair,
        technique: Technique,
        model: &str,
        app: &str,
    ) -> bool {
        crate::calibration::cell_feasible(pair, technique, model, app)
    }
}

impl fmt::Debug for dyn TranslationBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TranslationBackend({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihpc_analyze::FixItEdit;

    #[test]
    fn repair_prompt_len_matches_its_text() {
        let blind = RepairContext {
            round: 1,
            categories: vec![ErrorCategory::CodeSyntax, ErrorCategory::LinkerError],
            files: vec!["src/main.cpp".to_string(), "Makefile".to_string()],
            diagnostics: vec!["src/main.cpp:3: error: expected ';'".to_string()],
            race_findings: Vec::new(),
            fixits: Vec::new(),
            fixit_sources: Vec::new(),
        };
        let racy = RepairContext {
            race_findings: vec!["src/main.cpp:7: race on `sum`".to_string()],
            ..blind.clone()
        };
        let guided = RepairContext {
            fixits: vec![FixIt {
                file: "src/main.cpp".to_string(),
                line: 7,
                title: "add `reduction(+: sum)`".to_string(),
                edit: FixItEdit::AddClause {
                    clause: "reduction(+: sum)".to_string(),
                },
            }],
            ..racy.clone()
        };
        let empty = RepairContext {
            categories: Vec::new(),
            files: Vec::new(),
            diagnostics: Vec::new(),
            ..blind.clone()
        };
        for ctx in [&blind, &racy, &guided, &empty] {
            assert_eq!(ctx.prompt_len(), ctx.prompt_text().len(), "{ctx:?}");
        }
        assert!(racy.prompt_text().contains("data races"));
        assert!(guided.prompt_text().contains("Suggested fixes"));
        assert!(!blind.prompt_text().contains("Suggested fixes"));
    }
}
