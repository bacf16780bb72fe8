//! Translation tasks and the per-sample result/config types.
//!
//! Sample *execution* lives in [`crate::eval::EvalPipeline`]; this module
//! defines what a task is and what evaluating one sample produces.

use minihpc_analyze::AnalysisFinding;
use minihpc_build::{Diagnostic, ErrorCategory};
use minihpc_lang::model::TranslationPair;
use pareval_apps::Application;
use pareval_llm::TokenUsage;

/// One of the sixteen translation tasks (paper Sec. 5.2).
#[derive(Debug, Clone)]
pub struct Task {
    pub app: Application,
    pub pair: TranslationPair,
}

impl Task {
    pub fn id(&self) -> String {
        format!("{}:{}", self.app.name, self.pair.id())
    }
}

/// Enumerate all sixteen tasks in (pair, app) order. The suite is built
/// once, so an app's tasks share one reference-output memo.
pub fn all_tasks() -> Vec<Task> {
    let suite = pareval_apps::suite();
    let mut out = Vec::new();
    for pair in TranslationPair::ALL {
        for app in &suite {
            if app.repo(pair.from).is_some() {
                out.push(Task {
                    app: app.clone(),
                    pair,
                });
            }
        }
    }
    out
}

/// Scoring configuration (paper Sec. 8.2): "Overall" uses the LLM-translated
/// build system; "Code-only" swaps in the authors' ground-truth build file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scoring {
    CodeOnly,
    Overall,
}

impl Scoring {
    pub const ALL: [Scoring; 2] = [Scoring::CodeOnly, Scoring::Overall];

    /// The paper's label for this scoring, as printed in the figures.
    pub fn label(self) -> &'static str {
        match self {
            Scoring::CodeOnly => "Code-only",
            Scoring::Overall => "Overall",
        }
    }
}

/// Outcome of evaluating one translated repository under one scoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOutcome {
    pub built: bool,
    pub passed: bool,
    pub error_category: Option<ErrorCategory>,
    pub build_log: String,
    /// The structured error diagnostics of a failed build (empty when the
    /// build succeeded) — what the repair loop summarizes into a
    /// [`pareval_llm::RepairContext`] instead of re-parsing the log text.
    pub error_diagnostics: Vec<Diagnostic>,
}

/// Outcome of one repair round of one sample (see
/// [`EvalConfig::repair_budget`]). Round entries exist only when the repair
/// loop engaged: entry 0 snapshots the pre-repair state, entry `i` the
/// state after repair round `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairRound {
    /// 0 for the pre-repair snapshot, then the 1-based repair round.
    pub round: u32,
    /// The attempt declined this round: no files were emitted and no
    /// re-evaluation ran (the outcomes repeat the previous round's).
    pub gave_up: bool,
    pub code_only: EvalOutcome,
    pub overall: EvalOutcome,
    /// Cumulative attempt token usage as of the end of this round — repair
    /// tokens count toward E_kappa (paper Eq. 2).
    pub tokens: TokenUsage,
}

/// Outcome of one full sample (one generation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleResult {
    /// `None` when the configuration could not run (context/budget).
    pub feasible: bool,
    pub failure_reason: Option<String>,
    /// Final outcome under each scoring (post-repair when rounds ran).
    pub code_only: Option<EvalOutcome>,
    pub overall: Option<EvalOutcome>,
    /// Total attempt usage including every repair round.
    pub tokens: TokenUsage,
    /// Per-round trajectory; empty unless a failed build met a non-zero
    /// [`EvalConfig::repair_budget`].
    pub rounds: Vec<RepairRound>,
    /// Static analyzer findings over the final translated repository; always
    /// empty unless [`EvalConfig::analyze`] is on. A sample counts as
    /// race-free for `race_free@k` when it built and no finding is an error.
    pub analysis: Vec<AnalysisFinding>,
}

impl SampleResult {
    /// Did this sample build with no analyzer *error* findings? (Warnings
    /// are advisory and do not disqualify.) Meaningful only under
    /// [`EvalConfig::analyze`]; with the analyzer off this equals "built".
    pub fn race_free(&self) -> bool {
        self.overall.as_ref().is_some_and(|o| o.built)
            && !self.analysis.iter().any(|f| f.is_error())
    }
}

/// Evaluation knobs.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// How many of the app's developer test cases to run (the full suite is
    /// the default; benches shrink this for wall-clock).
    pub max_cases: usize,
    pub max_steps: u64,
    /// Memoize build + run outcomes by repository content hash (see
    /// [`crate::eval::BuildCache`]), with cold builds compiling through
    /// its in-memory parse and per-file compile-unit memos. On by default;
    /// results are byte-identical either way, this is purely a wall-clock
    /// knob. Off is the uncached reference path.
    pub build_cache: bool,
    /// Maximum repair rounds after a failed build: the pipeline summarizes
    /// the build log into a [`pareval_llm::RepairContext`], re-invokes the
    /// attempt, and re-evaluates, until the build succeeds, the attempt
    /// gives up, or the budget is spent. 0 (the default) reproduces the
    /// paper's one-shot harness exactly.
    pub repair_budget: u32,
    /// How many diagnostic lines of the failed build each repair round's
    /// context carries (the model's feedback prompt budget).
    pub repair_diag_lines: usize,
    /// Directory of the persistent disk tier of the
    /// [`crate::eval::BuildCache`]. `None` (the default) keeps the cache
    /// purely in-memory, dying with the process; `Some(dir)` appends the
    /// outcomes of builds and runs to one log, `outcomes.log`, in `dir`, so
    /// they survive crashes, and concurrent grid runs share builds across
    /// processes through file locks on it. Like [`EvalConfig::build_cache`] this is
    /// purely a wall-clock knob — results are byte-identical either way.
    pub disk_cache_dir: Option<std::path::PathBuf>,
    /// Byte budget of the disk tier's log, held by every process sharing
    /// the directory: a store that takes the log past it rewrites the log
    /// with the newest entries that fit half the budget.
    pub disk_cache_budget: u64,
    /// Run the static race/directive analyzer (`minihpc-analyze`) over the
    /// final translated repository as a post-build verdict stage. Off by
    /// default: default-config journals, golden reports, and cache keys are
    /// byte-identical to an analyzer-free build.
    pub analyze: bool,
    /// Cap on retained analyzer findings per sample (journal/report size
    /// guard; the analyzer itself is not truncated mid-file, the finding
    /// list is).
    pub analyze_max_findings: usize,
    /// Analyzer-guided repair: repair rounds carry the analyzer's
    /// high-confidence fix-its (with current file text) so backends can
    /// apply the suggested edits deterministically instead of regenerating.
    /// Requires [`EvalConfig::analyze`]; off by default so default-config
    /// runs stay byte-identical to blind repair.
    pub repair_guided: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            max_cases: usize::MAX,
            max_steps: 200_000_000,
            build_cache: true,
            repair_budget: 0,
            repair_diag_lines: 8,
            disk_cache_dir: None,
            disk_cache_budget: 64 << 20,
            analyze: false,
            analyze_max_findings: 64,
            repair_guided: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_tasks() {
        assert_eq!(all_tasks().len(), 16);
    }

    #[test]
    fn an_apps_tasks_share_one_reference_memo() {
        let xsbench: Vec<Task> = all_tasks()
            .into_iter()
            .filter(|t| t.app.name == "XSBench")
            .collect();
        assert_eq!(
            xsbench.len(),
            3,
            "CUDA→offload, CUDA→Kokkos, threads→offload"
        );
        let case = &xsbench[0].app.tests[0];
        let expected = xsbench[0].app.expected_output(case);
        for task in &xsbench {
            assert_eq!(task.app.expected_output(case), expected);
            assert_eq!(task.app.cold_reference_runs(), 1, "{}", task.id());
        }
    }
}
