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
//!    each cell to a [`pareval_llm::TranslationBackend`] (grids can mix
//!    backends per cell).
//! 2. **Pipeline** ([`eval`]) — an [`EvalPipeline`] turns one sample spec
//!    into a [`SampleResult`]: backend attempt → technique → build → run →
//!    score, through a content-addressed [`BuildCache`] shared by every
//!    worker of a run. With [`EvalConfig::repair_budget`] > 0, failed
//!    builds get bounded repair rounds — categorized diagnostics fed back
//!    to the attempt, revised files re-evaluated — tracked per round in
//!    [`RepairRound`].
//! 3. **Runner** ([`runner`], [`sched`]) — a [`Runner`] executes the plan:
//!    [`SerialRunner`] on one thread, or the work-stealing
//!    [`ScheduledRunner`] across scoped workers (per-worker LIFO deques +
//!    a shared injector seeded most-expensive-first by
//!    [`SampleSpec::cost_hint`]; [`RoundRobinRunner`] keeps the old static
//!    sharding as the benchmark baseline). All stream [`SampleRecord`]s to
//!    a [`ProgressSink`] and produce byte-identical results for the same
//!    plan — cached or not, at any worker count. With a [`JournalSink`]
//!    attached, completed samples are checkpointed to an append-only
//!    on-disk journal and a crashed run continues via [`Runner::resume`]
//!    (see [`journal`]).
//! 4. **Collector** ([`collect`]) — [`ExperimentResults`] retains the raw
//!    records and recomputes every metric on demand, including
//!    [`CellResult::pass_at_k`] / [`CellResult::build_at_k`] for k > 1.
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
//! use pareval_core::{ExperimentPlan, SerialRunner, Runner};
//! use pareval_llm::OracleBackend;
//! use std::sync::Arc;
//!
//! let plan = ExperimentPlan::builder()
//!     .backend(Arc::new(OracleBackend))
//!     .build();
//! let upper_bound = SerialRunner.run(&plan);
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
pub use plan::{
    CellFilter, CellKey, CellQuery, CellSpec, ExperimentPlan, ExperimentPlanBuilder, SampleSpec,
};
pub use runner::{
    CountingSink, NullSink, ProgressSink, RoundRobinRunner, Runner, SampleRecord, SerialRunner,
};
pub use sched::{SchedStats, ScheduledRunner};
pub use task::{all_tasks, EvalConfig, EvalOutcome, RepairRound, SampleResult, Scoring, Task};
