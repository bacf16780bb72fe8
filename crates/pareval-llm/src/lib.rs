//! # pareval-llm
//!
//! Simulated LLM translation backends for the ParEval-Repo reproduction:
//!
//! - [`profiles`]: the five models of paper Sec. 4 with token-economy
//!   parameters (reasoning multipliers, context limits, pricing).
//! - [`calibration`]: per-cell correctness probabilities transcribed from
//!   paper Fig. 2 — the generative parameters of the simulation.
//! - [`inject`]: deterministic error injectors covering every Fig. 3
//!   category plus the functional failures (Listing 4 et al.).
//! - [`backend`]: [`SimulatedModel`], a [`pareval_translate::Backend`] that
//!   combines the oracle transpiler with calibrated injection and token
//!   accounting.
//! - [`attempt`]: the pluggable backend layer — the object-safe
//!   [`TranslationBackend`] factory trait and the per-sample [`Attempt`]
//!   interface the experiment harness drives, including the bounded
//!   repair-round API ([`RepairContext`] → [`Attempt::repair`] →
//!   [`RepairOutcome`]).
//! - [`oracle`]: [`OracleBackend`], always-correct translations (a
//!   pass@1 = 1.0 upper bound the paper cannot measure).

pub mod attempt;
pub mod backend;
pub mod calibration;
pub mod inject;
pub mod oracle;
pub mod profiles;

pub use attempt::{
    apply_fixits, Attempt, AttemptSpec, RepairContext, RepairOutcome, TranslationBackend,
};
pub use backend::{SimulatedBackend, SimulatedModel, TokenUsage};
pub use calibration::{app_index, cell_feasible, paper_cell, CellScores};
pub use oracle::OracleBackend;
pub use profiles::{
    all_models, base_fix_probability, model_by_name, model_index, ModelKind, ModelProfile,
    MODEL_ORDER,
};
