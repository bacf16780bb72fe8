//! ParEval-Repo — a benchmark suite for evaluating LLM-based translation of
//! entire HPC code repositories between parallel programming models.
//!
//! This is the workspace facade crate: it re-exports the public API of
//! [`pareval_core`] and the substrate crates so that downstream users can
//! depend on a single crate.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

pub use minihpc_build as build;

/// The most-used items for driving experiments: build an
/// [`ExperimentPlan`](pareval_core::ExperimentPlan), pick a
/// [`TranslationBackend`](pareval_llm::TranslationBackend) and a
/// [`Runner`](pareval_core::Runner), query the collected results.
pub mod prelude {
    pub use pareval_core::{
        report, CellKey, CellResult, CellSpec, EvalConfig, EvalPipeline, ExperimentPlan,
        ExperimentResults, JournalError, JournalReader, JournalSink, Metric, NullSink,
        ProgressSink, RepairRound, Runner, SampleRecord, SampleSpec, SchedStats, ScheduledRunner,
        Scoring,
    };
    pub use pareval_llm::{
        OracleBackend, RepairContext, RepairOutcome, SimulatedBackend, TranslationBackend,
    };
}
/// Compiles README.md's Rust examples, so a renamed or deleted API cannot
/// leave them stale.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use minihpc_gen as gen;
pub use minihpc_lang as lang;
pub use minihpc_runtime as runtime;
pub use pareval_apps as apps;
pub use pareval_core as core;
pub use pareval_errclust as errclust;
pub use pareval_llm as llm;
pub use pareval_metrics as metrics;
pub use pareval_translate as translate;
