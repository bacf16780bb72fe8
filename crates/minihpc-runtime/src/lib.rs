//! # minihpc-runtime
//!
//! The simulated execution environment for MiniHPC programs: an
//! interpreter that compiles each linked [`minihpc_build::Executable`] it
//! runs into closures, with a discrete host/device memory model,
//! CUDA/OpenMP/Kokkos execution semantics, an optional data-race detector,
//! and execution telemetry.
//!
//! The telemetry ([`interp::TelemetrySnapshot`]) is how the ParEval-Repo
//! harness enforces the paper's correctness rule that a translation
//! must "execute on the hardware specified in the prompt": a translated
//! program whose loops silently run on the host (paper Listing 4) produces
//! correct-looking execution but no device regions, and is failed.
//!
//! Entry point: [`run`].

pub mod format;
pub mod interp;
pub mod memory;
mod resolve;
pub mod value;

pub use interp::{run, RunConfig, RunResult, TelemetrySnapshot};
pub use memory::{RuntimeError, RuntimeErrorKind};
pub use value::{Space, Value};
