//! Model profiles for the five LLMs the paper evaluates (Sec. 4), with
//! token-economy parameters and per-category error tendencies (Fig. 3).

use minihpc_build::ErrorCategory;

/// Hosting kind — determines how cost is accounted (dollars vs node-hours)
/// and which resource limit produces "could not run" cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Commercial API (per-token pricing; context/output window limits).
    CommercialApi,
    /// Locally hosted on Delta A100 nodes via vLLM (node-hour budget).
    LocalOpen,
}

/// A simulated LLM.
#[derive(Debug, Clone)]
pub struct ModelProfile {
    pub name: &'static str,
    pub kind: ModelKind,
    /// Reasoning models emit large thinking traces before the answer.
    pub reasoning: bool,
    /// Context window (tokens).
    pub context_limit: u64,
    /// Approximate tokens per character of text.
    pub tokens_per_char: f64,
    /// Output volume multiplier over the emitted code (reasoning traces,
    /// verbosity). Calibrated to the Fig. 4 orderings.
    pub output_multiplier: f64,
    /// Includes full dependency text in top-down context (paper Sec. 8.4:
    /// local models are far less conservative).
    pub verbose_context: bool,
    /// API price, $ per 1M input tokens (commercial models only).
    pub price_in_per_mtok: f64,
    /// API price, $ per 1M output tokens.
    pub price_out_per_mtok: f64,
    /// Observed generation throughput for local hosting (tokens/second on a
    /// single Delta node; paper Table 2 uses 187 tok/s).
    pub local_tokens_per_second: f64,
    /// Probability that an otherwise *correct* translation silently drops a
    /// `reduction` clause, leaving code that builds (and may even pass the
    /// small test cases) but carries a data race. 0.0 for every shipped
    /// profile — the default simulation draws no extra randomness, so
    /// default-seed grids stay byte-identical — and turned on per-run via
    /// [`ModelProfile::with_race_rate`] for analyzer experiments.
    pub race_rate: f64,
    /// Relative weights for *code* build-error categories (Fig. 3 shape).
    pub code_error_weights: [(ErrorCategory, f64); 6],
    /// Relative weights for *build-file* error categories.
    pub buildfile_error_weights: [(ErrorCategory, f64); 4],
}

/// Base probability that one repair round fixes a build error of this
/// category, given the categorized diagnostics as feedback. Calibrated to
/// the paper's taxonomy discussion (Sec. 6.3): most build failures are
/// "structured and largely mechanical" — a missing header or a stray
/// syntax error names its own fix — while configuration-level failures
/// (CMake config, compiler flags) give little actionable signal.
pub fn base_fix_probability(category: ErrorCategory) -> f64 {
    use ErrorCategory::*;
    match category {
        MissingHeader => 0.90,
        CodeSyntax => 0.85,
        UndeclaredIdentifier => 0.70,
        ArgTypeMismatch => 0.60,
        OmpInvalidDirective => 0.55,
        LinkerError => 0.50,
        BuildFileSyntax => 0.60,
        MakefileMissingTarget => 0.50,
        InvalidCompilerFlag => 0.40,
        CMakeConfig => 0.15,
        MissingFile | Other => 0.25,
    }
}

impl ModelProfile {
    pub fn count_tokens(&self, text: &str) -> u64 {
        self.tokens_for_len(text.len())
    }

    /// The tokens of a text `len` bytes long: `ceil(len × tokens_per_char)`,
    /// the one formula behind every input and output charge.
    pub fn tokens_for_len(&self, len: usize) -> u64 {
        ((len as f64) * self.tokens_per_char).ceil() as u64
    }

    /// Per-category probability that one repair round by this model fixes a
    /// build error: the [`base_fix_probability`] with a modest boost for
    /// reasoning models (they read diagnostics more carefully, at the token
    /// prices their output multipliers already charge).
    pub fn repair_fix_probability(&self, category: ErrorCategory) -> f64 {
        let base = base_fix_probability(category);
        if self.reasoning {
            (base * 1.15).min(0.98)
        } else {
            base
        }
    }

    /// Builder for analyzer experiments: the same calibrated profile, but
    /// dropping `reduction` clauses from correct translations with
    /// probability `rate`.
    pub fn with_race_rate(mut self, rate: f64) -> Self {
        self.race_rate = rate.clamp(0.0, 1.0);
        self
    }
}

/// Model index order used throughout (matches the paper's figure columns).
pub const MODEL_ORDER: [&str; 5] = [
    "gemini-1.5-flash",
    "gpt-4o-mini",
    "o4-mini",
    "Llama-3.3-70B",
    "qwq-32b-q8_0",
];

/// All five profiles, in figure-column order.
pub fn all_models() -> Vec<ModelProfile> {
    use ErrorCategory::*;
    vec![
        ModelProfile {
            name: "gemini-1.5-flash",
            kind: ModelKind::CommercialApi,
            reasoning: false,
            context_limit: 1_000_000,
            tokens_per_char: 0.25,
            output_multiplier: 1.0,
            verbose_context: false,
            price_in_per_mtok: 0.0, // free tier (paper Sec. 7.1)
            price_out_per_mtok: 0.0,
            local_tokens_per_second: 0.0,
            race_rate: 0.0,
            // Fig. 3: Gemini struggles with Makefile syntax and compiler
            // flags (SimpleMOC especially), some undeclared identifiers.
            code_error_weights: [
                (MissingHeader, 1.5),
                (CodeSyntax, 0.3),
                (UndeclaredIdentifier, 2.0),
                (ArgTypeMismatch, 0.3),
                (OmpInvalidDirective, 0.5),
                (LinkerError, 0.3),
            ],
            buildfile_error_weights: [
                (BuildFileSyntax, 3.0),
                (MakefileMissingTarget, 1.0),
                (CMakeConfig, 2.0),
                (InvalidCompilerFlag, 3.0),
            ],
        },
        ModelProfile {
            name: "gpt-4o-mini",
            kind: ModelKind::CommercialApi,
            reasoning: false,
            context_limit: 128_000,
            tokens_per_char: 0.25,
            output_multiplier: 0.95,
            verbose_context: false,
            price_in_per_mtok: 0.15,
            price_out_per_mtok: 0.60,
            local_tokens_per_second: 0.0,
            race_rate: 0.0,
            // Fig. 3: argument/type mismatches and linker errors (microXOR).
            code_error_weights: [
                (MissingHeader, 0.8),
                (CodeSyntax, 0.4),
                (UndeclaredIdentifier, 2.0),
                (ArgTypeMismatch, 2.5),
                (OmpInvalidDirective, 0.5),
                (LinkerError, 2.0),
            ],
            buildfile_error_weights: [
                (BuildFileSyntax, 0.8),
                (MakefileMissingTarget, 1.2),
                (CMakeConfig, 2.0),
                (InvalidCompilerFlag, 0.6),
            ],
        },
        ModelProfile {
            name: "o4-mini",
            kind: ModelKind::CommercialApi,
            reasoning: true,
            context_limit: 200_000,
            tokens_per_char: 0.25,
            output_multiplier: 1.6, // reasoning, but economical (Sec. 8.4)
            verbose_context: false,
            price_in_per_mtok: 1.10,
            price_out_per_mtok: 4.40,
            local_tokens_per_second: 0.0,
            race_rate: 0.0,
            // Fig. 3: undeclared identifiers and type mismatches dominate.
            code_error_weights: [
                (MissingHeader, 0.8),
                (CodeSyntax, 0.3),
                (UndeclaredIdentifier, 3.0),
                (ArgTypeMismatch, 2.5),
                (OmpInvalidDirective, 1.0),
                (LinkerError, 1.5),
            ],
            buildfile_error_weights: [
                (BuildFileSyntax, 0.5),
                (MakefileMissingTarget, 0.8),
                (CMakeConfig, 2.0),
                (InvalidCompilerFlag, 0.8),
            ],
        },
        ModelProfile {
            name: "Llama-3.3-70B",
            kind: ModelKind::LocalOpen,
            reasoning: false,
            context_limit: 128_000,
            tokens_per_char: 0.25,
            output_multiplier: 4.0, // verbose local generations (Fig. 4)
            verbose_context: true,
            price_in_per_mtok: 0.0,
            price_out_per_mtok: 0.0,
            local_tokens_per_second: 187.0, // paper Table 2
            race_rate: 0.0,
            // Fig. 3: source-code syntax mistakes are Llama's signature.
            code_error_weights: [
                (MissingHeader, 1.2),
                (CodeSyntax, 3.0),
                (UndeclaredIdentifier, 2.0),
                (ArgTypeMismatch, 1.0),
                (OmpInvalidDirective, 1.0),
                (LinkerError, 0.5),
            ],
            buildfile_error_weights: [
                (BuildFileSyntax, 1.5),
                (MakefileMissingTarget, 1.5),
                (CMakeConfig, 1.5),
                (InvalidCompilerFlag, 1.5),
            ],
        },
        ModelProfile {
            name: "qwq-32b-q8_0",
            kind: ModelKind::LocalOpen,
            reasoning: true,
            context_limit: 32_000,
            tokens_per_char: 0.25,
            output_multiplier: 28.0, // enormous reasoning traces (Fig. 4)
            verbose_context: true,
            price_in_per_mtok: 0.0,
            price_out_per_mtok: 0.0,
            local_tokens_per_second: 187.0,
            race_rate: 0.0,
            code_error_weights: [
                (MissingHeader, 1.5),
                (CodeSyntax, 1.0),
                (UndeclaredIdentifier, 1.5),
                (ArgTypeMismatch, 1.0),
                (OmpInvalidDirective, 1.5),
                (LinkerError, 0.8),
            ],
            buildfile_error_weights: [
                (BuildFileSyntax, 1.0),
                (MakefileMissingTarget, 2.0),
                (CMakeConfig, 1.2),
                (InvalidCompilerFlag, 1.0),
            ],
        },
    ]
}

/// Look up a model by name.
pub fn model_by_name(name: &str) -> Option<ModelProfile> {
    all_models().into_iter().find(|m| m.name == name)
}

/// Index of a model in the figure-column order.
pub fn model_index(name: &str) -> Option<usize> {
    MODEL_ORDER.iter().position(|m| *m == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_models_in_paper_order() {
        let models = all_models();
        assert_eq!(models.len(), 5);
        for (i, m) in models.iter().enumerate() {
            assert_eq!(model_index(m.name), Some(i));
        }
    }

    #[test]
    fn reasoning_models_emit_more_tokens() {
        let models = all_models();
        let by = |n: &str| models.iter().find(|m| m.name == n).unwrap();
        assert!(by("qwq-32b-q8_0").output_multiplier > by("o4-mini").output_multiplier);
        assert!(by("o4-mini").output_multiplier > by("gpt-4o-mini").output_multiplier);
    }

    #[test]
    fn local_models_are_verbose_in_context() {
        for m in all_models() {
            assert_eq!(m.verbose_context, m.kind == ModelKind::LocalOpen);
        }
    }

    #[test]
    fn fix_probabilities_follow_the_taxonomy() {
        use ErrorCategory::*;
        // Mechanical failures are very repairable, configuration-level
        // failures barely (the ISSUE's canonical pair).
        assert!(base_fix_probability(MissingHeader) > 0.8);
        assert!(base_fix_probability(CMakeConfig) < 0.2);
        for c in ErrorCategory::FIGURE3 {
            let p = base_fix_probability(c);
            assert!((0.0..=1.0).contains(&p), "{c}: {p}");
        }
        // Reasoning models repair better, but never with certainty.
        let o4 = model_by_name("o4-mini").unwrap();
        let gpt = model_by_name("gpt-4o-mini").unwrap();
        for c in ErrorCategory::FIGURE3 {
            assert!(o4.repair_fix_probability(c) > gpt.repair_fix_probability(c));
            assert!(o4.repair_fix_probability(c) <= 0.98);
        }
    }

    #[test]
    fn token_counting_is_monotone() {
        let m = model_by_name("o4-mini").unwrap();
        assert!(m.count_tokens("hello world") < m.count_tokens(&"hello world".repeat(10)));
        assert_eq!(m.count_tokens(""), 0);
    }
}
