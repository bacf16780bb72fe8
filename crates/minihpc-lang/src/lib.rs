//! # minihpc-lang
//!
//! The MiniHPC mini-language: a C-like source language with four
//! execution-model dialects (OpenMP threads, OpenMP offload, CUDA, Kokkos),
//! used as the substrate for the ParEval-Repo reproduction.
//!
//! The paper's benchmark operates on real C/C++/CUDA repositories compiled
//! by clang/nvcc and executed on an A100. This crate (together with
//! `minihpc-build` and `minihpc-runtime`) replaces that stack with a
//! self-contained simulated toolchain that preserves the properties the
//! benchmark measures: multi-file repositories with headers and build
//! systems, dialect-specific parallel constructs, and a compiler that
//! produces the same *categories* of diagnostics the paper clusters.
//!
//! ## Layout
//!
//! - [`lexer`] / [`parser`] / [`ast`] / [`printer`]: the language front end
//!   and source regeneration (`print ∘ parse` is idempotent).
//! - [`pragma`]: structured OpenMP directives.
//! - [`model`]: execution models, translation pairs, and model-usage
//!   detection (enforces the paper's "must use the requested model" rule).
//! - [`complexity`]: SLoC and cyclomatic-complexity statistics (Table 1).
//! - [`walk`]: the one read-only preorder traversal of statements and
//!   expressions, behind usage detection, complexity and the analyzer.
//! - [`repo`]: the in-memory repository that translation tasks rewrite.
//! - [`memo`]: [`OnceMap`](memo::OnceMap), the once-per-key memo behind
//!   every content-derived cache in the workspace.
//! - [`fnv`]: FNV-1a, the stable hash behind every cache key, plan
//!   fingerprint, checksum and generator digest in the workspace.

pub mod ast;
pub mod complexity;
pub mod fnv;
pub mod lexer;
pub mod memo;
pub mod model;
pub mod parser;
pub mod pragma;
pub mod printer;
pub mod repo;
pub mod span;
pub mod token;
pub mod walk;

pub use ast::SourceFile;
pub use model::{ExecutionModel, TranslationPair};
pub use parser::{parse_file, ParseError};
pub use printer::print_file;
pub use repo::{FileKind, SourceRepo};
