//! # pareval-core
//!
//! The ParEval-Repo harness: the sixteen translation tasks, the layered
//! experiment API (N generations per task × technique × model cell, each
//! evaluated through the real MiniHPC build + run pipeline under both the
//! "Code-only" and "Overall" scorings), and plain-text emitters for every
//! table and figure of the paper.
//!
//! The experiment API has four layers:
//!
//! 1. **Plan** ([`plan`]) — [`ExperimentPlan::builder`] deterministically
//!    enumerates typed cells ([`CellKey`], [`CellSpec`]) and per-sample work
//!    units ([`SampleSpec`]), resolving feasibility up front and binding
//!    the grid to one [`pareval_llm::TranslationBackend`].
//! 2. **Pipeline** ([`eval`]) — an [`EvalPipeline`] turns one sample spec
//!    into a [`SampleResult`]: backend attempt → technique → build → run →
//!    score, through a content-addressed [`BuildCache`] shared by every
//!    worker of a run. With [`EvalConfig::repair_budget`] > 0, failed
//!    builds get bounded repair rounds — categorized diagnostics fed back
//!    to the attempt, revised files re-evaluated — tracked per round in
//!    [`RepairRound`].
//! 3. **Runner** ([`runner`], [`sched`]) — [`ScheduledRunner`] executes
//!    the plan through the [`Runner`] entry points: scoped workers claim
//!    from one shared queue sorted most-expensive-first by
//!    [`SampleSpec::cost_hint`] (LPT list scheduling), with
//!    `ScheduledRunner::new(1)` as the serial case. It streams
//!    [`SampleRecord`]s to a [`ProgressSink`] and produces byte-identical
//!    results for the same plan — cached or not, at any worker count. With
//!    a [`JournalSink`] attached, completed samples are checkpointed to an
//!    append-only on-disk journal and a crashed run continues via
//!    [`Runner::resume`] (see [`journal`]).
//! 4. **Collector** ([`collect`]) — [`ExperimentResults`] folds every
//!    record into per-cell sufficient statistics, from which every metric
//!    is read, including [`CellResult::pass_at_k`] /
//!    [`CellResult::build_at_k`] for k > 1. Raw records are kept too
//!    (for [`CellResult::records`] and Fig. 3's error logs) unless the
//!    plan streams.
//!
//! ```no_run
//! use pareval_core::{report, ExperimentPlan, Runner, ScheduledRunner};
//!
//! let plan = ExperimentPlan::quick();
//! let results = ScheduledRunner::new(4).run(&plan);
//! println!("{}", report::fig2(
//!     &results,
//!     minihpc_lang::TranslationPair::CUDA_TO_OMP_OFFLOAD,
//!     true,
//! ));
//! ```
//!
//! Backends other than the default simulation plug in at the plan:
//!
//! ```no_run
//! use pareval_core::{ExperimentPlan, Runner, ScheduledRunner};
//! use pareval_llm::OracleBackend;
//! use std::sync::Arc;
//!
//! let plan = ExperimentPlan::builder()
//!     .backend(Arc::new(OracleBackend))
//!     .build();
//! let upper_bound = ScheduledRunner::new(1).run(&plan);
//! ```

pub mod collect;
pub mod eval;
pub mod journal;
pub mod plan;
pub mod report;
pub mod runner;
pub mod sched;
pub mod task;

pub use collect::{CellResult, ExperimentResults, Metric};
pub use eval::{BuildCache, CacheStats, EvalPipeline};
pub use journal::{JournalError, JournalReader, JournalSink, Replay};
pub use minihpc_analyze::{
    AnalysisFinding, Confidence as AnalysisConfidence, FixIt, FixItEdit, Rule as AnalysisRule,
};
pub use plan::{CellKey, CellQuery, CellSpec, ExperimentPlan, ExperimentPlanBuilder, SampleSpec};
pub use runner::{CountingSink, NullSink, ProgressSink, Runner, SampleRecord};
pub use sched::{SchedStats, ScheduledRunner};
pub use task::{all_tasks, EvalConfig, EvalOutcome, RepairRound, SampleResult, Scoring, Task};
