//! The simulated LLM backend: oracle translation + calibrated error
//! injection + token accounting.
//!
//! One [`SimulatedModel`] instance represents a single *translation attempt*
//! (one sample of one task with one model under one technique). At
//! construction it samples an outcome plan from the paper-calibrated cell
//! probabilities; during translation it produces oracle output, applies the
//! planned mutation to the designated file, and accounts tokens.

use crate::attempt::{Attempt, AttemptSpec, RepairContext, RepairOutcome, TranslationBackend};
use crate::calibration::{app_index, paper_cell, CellScores};
use crate::inject;
use crate::profiles::{model_index, ModelKind, ModelProfile};
use minihpc_build::ErrorCategory;
use minihpc_lang::model::TranslationPair;
use minihpc_lang::repo::{Body, FileKind, SourceRepo};
use pareval_translate::techniques::{Backend, BackendError, BackendOutput, FileJob};
use pareval_translate::{transpile, Technique};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Token usage accumulated over one translation attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenUsage {
    pub input: u64,
    pub output: u64,
}

impl TokenUsage {
    pub fn total(&self) -> u64 {
        self.input + self.output
    }
}

/// The sampled plan for this attempt.
#[derive(Debug, Clone, PartialEq)]
enum CodePlan {
    /// Translation is functionally correct.
    Correct,
    /// Builds (with a correct build system) but fails tests.
    WrongResult(inject::FunctionalError),
    /// Fails to compile with this category.
    BuildError(ErrorCategory),
}

#[derive(Debug, Clone, PartialEq)]
enum AttemptPlan {
    /// The paper could not run this configuration.
    Infeasible,
    Run {
        code: CodePlan,
        /// `None` = build file translated correctly; `Some(c)` = broken
        /// with category `c`.
        buildfile_error: Option<ErrorCategory>,
    },
}

/// One injected-and-still-unfixed build error this attempt knows about:
/// what category it planted, where, and both the broken text it emitted and
/// the clean text a successful repair round restores. For an unchunked
/// file both are the memoised bodies the translation emitted, so a repair
/// re-emits a body already hashed.
#[derive(Debug, Clone)]
struct PendingRepair {
    category: ErrorCategory,
    path: String,
    broken: Body,
    clean: Body,
    /// Code injection (vs build-file): a successful repair of code re-rolls
    /// functional correctness — compiling is not passing.
    is_code: bool,
}

/// A single simulated translation attempt.
pub struct SimulatedModel {
    profile: ModelProfile,
    technique: Technique,
    pair: TranslationPair,
    source_repo: Arc<SourceRepo>,
    plan: AttemptPlan,
    /// Correct translation, but drop a `reduction` clause (a data race the
    /// build cannot see). Always `false` at the default `race_rate` of 0.
    race_plan: bool,
    /// Which translated file receives the code mutation (resolved lazily).
    mutation_done: bool,
    /// Build errors this attempt injected and has not yet repaired.
    pending: Vec<PendingRepair>,
    /// Per-path text emitted before an injection lands on that path —
    /// chunked files mutate mid-stream, and a repair must re-emit the
    /// whole reassembled file, not just the chunks from the injection on.
    prior_chunks: Vec<(String, Body)>,
    /// P(tests pass | code builds) for this cell — what a successfully
    /// repaired code file re-rolls against (fixing the compile error does
    /// not grant correctness beyond the model's calibrated skill).
    p_pass_given_build: f64,
    usage: TokenUsage,
    rng: StdRng,
}

impl SimulatedModel {
    /// Create the attempt. `sample` distinguishes repeated generations of
    /// the same task (pass@k needs N independent samples). The source repo
    /// is shared, not cloned — every attempt on the same task borrows the
    /// same allocation.
    pub fn new(
        profile: ModelProfile,
        technique: Technique,
        pair: TranslationPair,
        app_name: &str,
        source_repo: Arc<SourceRepo>,
        seed: u64,
        sample: u32,
    ) -> Self {
        let midx = model_index(profile.name).unwrap_or(0);
        let aidx = app_index(app_name).unwrap_or(0);
        let cell = paper_cell(pair, technique, midx, aidx);
        let mut rng = StdRng::seed_from_u64(
            seed ^ (sample as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (midx as u64) << 32
                ^ (aidx as u64) << 40,
        );
        let mut plan = Self::sample_plan(&profile, pair, &cell, &mut rng);
        // Short-circuit: profiles with the default race_rate of 0.0 draw
        // nothing here, so default-seed RNG streams (and therefore default
        // grids, journals, and golden reports) are byte-identical to a
        // build without the analyzer.
        let race_plan = profile.race_rate > 0.0 && rng.gen::<f64>() < profile.race_rate;
        if race_plan {
            // Race experiments isolate the dropped clause as the sole
            // defect: the attempt is otherwise correct (and its build file
            // intact), whatever the calibration would have sampled —
            // analyzer runs study the analyzer, not the failure rates.
            if let AttemptPlan::Run {
                code,
                buildfile_error,
            } = &mut plan
            {
                *code = CodePlan::Correct;
                *buildfile_error = None;
            }
        }
        let p_pass_given_build = match cell.build_code {
            Some(b) if b > 0.0 => (cell.pass_code.unwrap_or(0.0) / b).clamp(0.0, 1.0),
            // build@1 = 0 cells give no evidence the model's code can pass.
            _ => 0.0,
        };
        SimulatedModel {
            profile,
            technique,
            pair,
            source_repo,
            plan,
            race_plan,
            mutation_done: false,
            pending: Vec::new(),
            prior_chunks: Vec::new(),
            p_pass_given_build,
            usage: TokenUsage::default(),
            rng,
        }
    }

    pub fn usage(&self) -> TokenUsage {
        self.usage
    }

    /// Was this configuration runnable at all?
    pub fn feasible(&self) -> bool {
        self.plan != AttemptPlan::Infeasible
    }

    fn sample_plan(
        profile: &ModelProfile,
        pair: TranslationPair,
        cell: &CellScores,
        rng: &mut StdRng,
    ) -> AttemptPlan {
        let Some(build_code) = cell.build_code else {
            return AttemptPlan::Infeasible;
        };
        let pass_code = cell.pass_code.unwrap_or(0.0);
        let build_overall = cell.build_overall.unwrap_or(0.0);
        // P(build file ok) estimated from the overall/code-only ratio.
        let p_buildfile = if build_code > 0.0 {
            (build_overall / build_code).clamp(0.0, 1.0)
        } else {
            // Both zero: the ratio is unconstrained; use a moderate prior
            // (the paper notes build systems fail more often than code).
            0.3
        };
        let u: f64 = rng.gen();
        let code = if u < pass_code {
            CodePlan::Correct
        } else if u < build_code {
            CodePlan::WrongResult(Self::pick_functional(pair, rng))
        } else {
            CodePlan::BuildError(Self::pick_weighted(&profile.code_error_weights, rng))
        };
        let buildfile_error = if rng.gen::<f64>() < p_buildfile {
            None
        } else {
            Some(Self::pick_weighted(&profile.buildfile_error_weights, rng))
        };
        AttemptPlan::Run {
            code,
            buildfile_error,
        }
    }

    fn pick_functional(pair: TranslationPair, rng: &mut StdRng) -> inject::FunctionalError {
        use minihpc_lang::model::ExecutionModel;
        match pair.to {
            ExecutionModel::Kokkos => inject::FunctionalError::DropDeepCopyBack,
            _ => {
                if rng.gen::<f64>() < 0.6 {
                    inject::FunctionalError::DropTargetConstruct
                } else {
                    inject::FunctionalError::LoseMapFrom
                }
            }
        }
    }

    fn pick_weighted(weights: &[(ErrorCategory, f64)], rng: &mut StdRng) -> ErrorCategory {
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen::<f64>() * total;
        for (c, w) in weights {
            x -= w;
            if x <= 0.0 {
                return *c;
            }
        }
        weights
            .last()
            .map(|(c, _)| *c)
            .unwrap_or(ErrorCategory::CodeSyntax)
    }

    /// Charge `emitted` characters of generated text to the output budget:
    /// the model's tokenizer rate times its verbosity/reasoning multiplier,
    /// with seeded ±10% noise (Eq. 2 accounting, shared by translation and
    /// repair so the two cannot drift).
    fn charge_output(&mut self, emitted: usize) {
        let base_out = self.profile.tokens_for_len(emitted);
        let noise = 0.9 + self.rng.gen::<f64>() * 0.2;
        self.usage.output +=
            ((base_out as f64) * self.profile.output_multiplier * noise).round() as u64;
    }

    /// The `(broken, clean)` pair a pending repair of `path` holds when an
    /// injection turned `clean` into `broken`: the bodies themselves, or,
    /// when earlier chunks of the file were emitted before the injection
    /// landed, those chunks followed by each.
    fn whole_file(&mut self, path: &str, broken: &Body, clean: &Body) -> (Body, Body) {
        match self.prior_chunks.iter().position(|(p, _)| p == path) {
            Some(i) => {
                let prior = self.prior_chunks.swap_remove(i).1;
                let (mut whole_broken, mut whole_clean) = (prior.clone(), prior);
                whole_broken.push_str(broken);
                whole_clean.push_str(clean);
                (whole_broken, whole_clean)
            }
            None => (broken.clone(), clean.clone()),
        }
    }

    fn infeasibility_error(&self) -> BackendError {
        match (self.technique, self.profile.kind) {
            // Non-agentic runs die on context/output windows (Sec. 8.2).
            (Technique::NonAgentic, _) => BackendError::ContextExceeded {
                needed: self.profile.context_limit * 2,
                limit: self.profile.context_limit,
            },
            // Top-down local runs die on the 8-node-hour budget.
            (_, ModelKind::LocalOpen) => BackendError::BudgetExhausted,
            (_, ModelKind::CommercialApi) => BackendError::BudgetExhausted,
        }
    }
}

impl Attempt for SimulatedModel {
    fn feasible(&self) -> bool {
        SimulatedModel::feasible(self)
    }

    fn usage(&self) -> TokenUsage {
        SimulatedModel::usage(self)
    }

    /// Calibrated repair: for every injected error whose category shows up
    /// in the round's diagnostics, roll the model's per-category fix
    /// probability. A successful roll re-emits the clean text; a failed
    /// roll burns the tokens of an unhelpful patch but emits nothing, so
    /// the repo is untouched and the re-evaluation is a build-cache hit.
    /// (Re-emitting the remembered broken text instead would clobber any
    /// damage a technique applied *after* this backend ran — SWE-agent's
    /// tab corruption — curing it by accident.) Errors the attempt did not
    /// inject cannot be fixed; with nothing addressable the model gives
    /// up.
    fn repair(&mut self, ctx: &RepairContext) -> RepairOutcome {
        // The model reads the structured feedback whether or not it helps.
        self.usage.input += self.profile.tokens_for_len(ctx.prompt_len());
        // Guided repair: machine-applicable analyzer fix-its are applied
        // deterministically — no probability roll, no regeneration. The
        // injected directive race those edits cure is retired from the
        // pending list so a later blind round cannot "fix" it again.
        if !ctx.fixits.is_empty() {
            let revised = crate::attempt::apply_fixits(ctx);
            if !revised.is_empty() {
                let emitted: usize = revised.iter().map(|(_, t)| t.len()).sum();
                self.pending.retain(|p| {
                    !(p.category == ErrorCategory::OmpInvalidDirective
                        && revised.iter().any(|(path, _)| *path == p.path))
                });
                self.charge_output(emitted);
                return RepairOutcome::Revised(revised);
            }
        }
        let addressable = self
            .pending
            .iter()
            .any(|p| ctx.categories.contains(&p.category));
        if !addressable {
            return RepairOutcome::GaveUp;
        }
        let mut files = Vec::new();
        let mut emitted = 0usize;
        let mut i = 0;
        while i < self.pending.len() {
            if !ctx.categories.contains(&self.pending[i].category) {
                // Not visible in this round's log (e.g. a code error hiding
                // behind a build-file failure): leave it for a later round.
                i += 1;
                continue;
            }
            let p_fix = self
                .profile
                .repair_fix_probability(self.pending[i].category);
            if self.rng.gen::<f64>() < p_fix {
                let fixed = self.pending.remove(i);
                // A repaired code file compiles, but correctness re-rolls
                // the cell's P(pass | build): fixing the compile error does
                // not grant skill the calibration says the model lacks.
                let mut text = if fixed.is_code && self.rng.gen::<f64>() >= self.p_pass_given_build
                {
                    let kind = Self::pick_functional(self.pair, &mut self.rng);
                    inject::inject_functional_error(&fixed.clean, kind)
                        .map_or(fixed.clean, Body::from)
                } else {
                    fixed.clean
                };
                // Repair writes go through the same editor as the original
                // translation: SWE-agent normalizes tabs on *every* write
                // (paper Sec. 3.3), so a simulated repair can never hand
                // back a tab-intact Makefile that editor would not produce.
                // (The oracle's perfect repair deliberately bypasses this —
                // it is the idealized upper bound.)
                if self.technique == Technique::SweAgent
                    && FileKind::of(&fixed.path) == FileKind::Makefile
                {
                    text = Body::from(text.replace('\t', "    "));
                }
                emitted += text.len();
                files.push((fixed.path, text));
            } else {
                // Failed attempt: the patch was generated (and is paid
                // for) but discarded, leaving the repo untouched.
                emitted += self.pending[i].broken.len();
                i += 1;
            }
        }
        self.charge_output(emitted);
        RepairOutcome::Revised(files)
    }
}

/// The default [`TranslationBackend`]: paper-calibrated simulation. Each
/// attempt is a fresh [`SimulatedModel`], so a grid run through this
/// backend is a pure function of its seeds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimulatedBackend;

impl TranslationBackend for SimulatedBackend {
    fn name(&self) -> &'static str {
        "simulated"
    }

    fn start_attempt(&self, spec: &AttemptSpec<'_>) -> Box<dyn Attempt> {
        Box::new(SimulatedModel::new(
            spec.model.clone(),
            spec.technique,
            spec.pair,
            spec.app_name,
            Arc::clone(&spec.source_repo),
            spec.seed,
            spec.sample,
        ))
    }
}

impl Backend for SimulatedModel {
    fn translate(&mut self, job: &FileJob) -> Result<BackendOutput, BackendError> {
        let AttemptPlan::Run {
            code,
            buildfile_error,
        } = self.plan.clone()
        else {
            return Err(self.infeasibility_error());
        };

        // Token accounting: the full prompt in, the emitted text out
        // (scaled by the model's verbosity/reasoning multiplier).
        self.usage.input += self.profile.tokens_for_len(job.prompt_len);

        let output = if job.kind.is_build_file() {
            let clean = transpile::translated_build_file(&self.source_repo, self.pair, &job.binary);
            let mut text = clean.text.clone();
            if let Some(category) = buildfile_error {
                // Fall back to a missing target when the sampled category
                // does not apply to this build system.
                let applied = [category, ErrorCategory::MakefileMissingTarget]
                    .into_iter()
                    .find_map(|c| {
                        inject::inject_buildfile_error(&clean.text, c, self.pair.to)
                            .map(|broken| (c, Body::from(broken)))
                    });
                if let Some((category, broken)) = applied {
                    text = broken.clone();
                    self.pending.push(PendingRepair {
                        category,
                        path: clean.path.clone(),
                        broken,
                        clean: clean.text,
                        is_code: false,
                    });
                }
            }
            BackendOutput {
                files: vec![(clean.path, text)],
                summary: "translated the build system".to_string(),
            }
        } else {
            // The memoised oracle transpile, emitted by handle unless an
            // injection lands on it.
            let r =
                transpile::transpile_file(&self.source_repo, &job.path, &job.contents, self.pair);
            let mut text = r.text.clone();
            // The file carrying the parallel construct is the one that
            // receives the code mutation.
            let apply_here = r.parallel;
            let mut injected_now = false;
            match &code {
                // A racy "correct" translation: drop the reduction clause
                // from the file carrying it. Repairable like any injected
                // error — the analyzer's findings arrive under the
                // OmpInvalidDirective category — but `is_code` is false:
                // the surrounding code was already correct, so a successful
                // repair restores the clause verbatim with no correctness
                // re-roll.
                CodePlan::Correct if self.race_plan && !self.mutation_done => {
                    if let Some(racy) = inject::inject_race_error(&r.text) {
                        text = Body::from(racy);
                        self.mutation_done = true;
                        injected_now = true;
                        let (broken, clean) = self.whole_file(&r.path, &text, &r.text);
                        self.pending.push(PendingRepair {
                            category: ErrorCategory::OmpInvalidDirective,
                            path: r.path.clone(),
                            broken,
                            clean,
                            is_code: false,
                        });
                    }
                }
                CodePlan::Correct => {}
                // Functional errors hit *every* file carrying the parallel
                // construct: a model that drops `target` does so throughout
                // its translation, and apps like llm.c spread kernels across
                // several files.
                CodePlan::WrongResult(kind) if apply_here => {
                    if let Some(wrong) = inject::inject_functional_error(&r.text, *kind) {
                        text = Body::from(wrong);
                        self.mutation_done = true;
                    }
                }
                // Build-breaking errors hit one file (the first eligible).
                CodePlan::BuildError(category) if apply_here && !self.mutation_done => {
                    let applied = [*category, ErrorCategory::CodeSyntax]
                        .into_iter()
                        .find_map(|c| inject::inject_code_error(&r.text, c).map(|m| (c, m)));
                    if let Some((category, broken)) = applied {
                        text = Body::from(broken);
                        self.mutation_done = true;
                        injected_now = true;
                        // Chunks of this file emitted before the injection
                        // landed are part of the merged file too.
                        let (broken, clean) = self.whole_file(&r.path, &text, &r.text);
                        self.pending.push(PendingRepair {
                            category,
                            path: r.path.clone(),
                            broken,
                            clean,
                            is_code: true,
                        });
                    }
                }
                _ => {}
            }
            // A pending repair must hold the *whole* file as the technique
            // will reassemble it, so chunks around the injected one are
            // tracked as well: earlier chunks accumulate in `prior_chunks`
            // until an injection lands on the file, later chunks extend the
            // pending entry directly.
            if !injected_now {
                if let Some(p) = self.pending.iter_mut().find(|p| p.path == r.path) {
                    p.broken.push_str(&text);
                    p.clean.push_str(&text);
                } else if (matches!(code, CodePlan::BuildError(_))
                    || (self.race_plan && matches!(code, CodePlan::Correct)))
                    && !self.mutation_done
                {
                    if let Some((_, prior)) =
                        self.prior_chunks.iter_mut().find(|(p, _)| *p == r.path)
                    {
                        prior.push_str(&text);
                    } else {
                        self.prior_chunks.push((r.path.clone(), text.clone()));
                    }
                }
            }
            // An unmutated body's line count was taken when it was
            // transpiled.
            let lines = if Body::ptr_eq(&text, &r.text) {
                r.lines
            } else {
                text.lines().count()
            };
            let summary = format!(
                "translated {} to {} ({lines} lines)",
                job.path, self.pair.to
            );
            BackendOutput {
                files: vec![(r.path, text)],
                summary,
            }
        };

        let emitted: usize = output.files.iter().map(|(_, c)| c.len()).sum();
        self.charge_output(emitted);
        Ok(output)
    }

    fn context_limit(&self) -> u64 {
        self.profile.context_limit
    }

    fn count_tokens(&self, text: &str) -> u64 {
        self.profile.count_tokens(text)
    }

    fn verbose_context(&self) -> bool {
        self.profile.verbose_context
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::model_by_name;
    use minihpc_build::{build_repo, BuildRequest};
    use pareval_translate::techniques::{translate_with, TranslationJob};

    fn attempt(
        model: &str,
        technique: Technique,
        app_name: &str,
        pair: TranslationPair,
        sample: u32,
    ) -> (pareval_translate::TranslationRun, TokenUsage) {
        let app = pareval_apps::by_name(app_name).unwrap();
        let repo = app.repo_arc(pair.from).unwrap();
        let mut backend = SimulatedModel::new(
            model_by_name(model).unwrap(),
            technique,
            pair,
            app_name,
            Arc::clone(&repo),
            20240612,
            sample,
        );
        let job = TranslationJob {
            app_name: &app.name,
            binary: &app.binary,
            source_repo: &repo,
            pair,
            cli_spec: &app.cli_spec,
            build_spec: &app.build_spec,
        };
        let run = translate_with(technique, &job, &mut backend);
        (run, backend.usage())
    }

    #[test]
    fn o4_mini_often_translates_nanoxor_correctly() {
        // o4-mini non-agentic nanoXOR offload: pass@1 code-only is 0.84 in
        // the paper, so most samples should build.
        let mut built = 0;
        for sample in 0..10 {
            let (run, usage) = attempt(
                "o4-mini",
                Technique::NonAgentic,
                "nanoXOR",
                TranslationPair::CUDA_TO_OMP_OFFLOAD,
                sample,
            );
            assert!(usage.input > 0 && usage.output > 0);
            let repo = run.repo.expect("feasible configuration completes");
            let out = build_repo(&repo, &BuildRequest::new("nanoxor"));
            if out.succeeded() {
                built += 1;
            }
        }
        assert!(built >= 5, "only {built}/10 built");
    }

    #[test]
    fn gemini_never_passes_nanoxor_offload() {
        // pass@1 = 0 for gemini on this cell: every sample must fail tests
        // or fail to build.
        let app = pareval_apps::by_name("nanoXOR").unwrap();
        let case = &app.tests[0];
        let expected = app.expected_output(case);
        for sample in 0..8 {
            let (run, _) = attempt(
                "gemini-1.5-flash",
                Technique::NonAgentic,
                "nanoXOR",
                TranslationPair::CUDA_TO_OMP_OFFLOAD,
                sample,
            );
            let repo = run.repo.unwrap();
            let out = build_repo(&repo, &BuildRequest::new("nanoxor"));
            let Some(exe) = out.executable else { continue };
            let r = minihpc_runtime::run(
                &exe,
                minihpc_runtime::RunConfig::with_args(case.args.iter().cloned()),
            );
            let passed = r.error.is_none() && r.stdout == expected && r.telemetry.ran_on_device();
            assert!(!passed, "sample {sample} unexpectedly passed");
        }
    }

    #[test]
    fn infeasible_cells_fail_to_complete() {
        // Gemini XSBench CUDA→offload non-agentic: not runnable (paper).
        let (run, _) = attempt(
            "gemini-1.5-flash",
            Technique::NonAgentic,
            "XSBench",
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            0,
        );
        assert!(!run.completed());
        assert!(run.failure.unwrap().contains("context window"));

        // QwQ XSBench top-down: node-hour budget.
        let (run, _) = attempt(
            "qwq-32b-q8_0",
            Technique::TopDownAgentic,
            "XSBench",
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            0,
        );
        assert!(!run.completed());
        assert!(run.failure.unwrap().contains("budget"));
    }

    #[test]
    fn qwq_burns_far_more_tokens_than_gemini() {
        let (_, qwq) = attempt(
            "qwq-32b-q8_0",
            Technique::NonAgentic,
            "nanoXOR",
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            0,
        );
        let (_, gem) = attempt(
            "gemini-1.5-flash",
            Technique::NonAgentic,
            "nanoXOR",
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            0,
        );
        assert!(
            qwq.output > gem.output * 10,
            "qwq {} vs gemini {}",
            qwq.output,
            gem.output
        );
    }

    #[test]
    fn repair_rounds_eventually_fix_injected_build_errors() {
        use crate::attempt::{RepairContext, RepairOutcome};
        use minihpc_build::ErrorCategory;

        // gemini nanoXOR offload: build_code = 1.0 but build_overall =
        // 0.58, so broken build files are common. Find a sample whose
        // translation fails to build, then drive repair rounds by hand.
        let app = pareval_apps::by_name("nanoXOR").unwrap();
        let repo = Arc::new(
            app.repo(TranslationPair::CUDA_TO_OMP_OFFLOAD.from)
                .unwrap()
                .clone(),
        );
        let mut fixed_any = false;
        for sample in 0..12 {
            let mut backend = SimulatedModel::new(
                model_by_name("gemini-1.5-flash").unwrap(),
                Technique::NonAgentic,
                TranslationPair::CUDA_TO_OMP_OFFLOAD,
                "nanoXOR",
                Arc::clone(&repo),
                20240612,
                sample,
            );
            let job = TranslationJob {
                app_name: &app.name,
                binary: &app.binary,
                source_repo: &repo,
                pair: TranslationPair::CUDA_TO_OMP_OFFLOAD,
                cli_spec: &app.cli_spec,
                build_spec: &app.build_spec,
            };
            let run = translate_with(Technique::NonAgentic, &job, &mut backend);
            let mut translated = run.repo.unwrap();
            let mut out = build_repo(&translated, &BuildRequest::new("nanoxor"));
            if out.succeeded() {
                continue;
            }
            let before = backend.usage();
            for round in 1..=6u32 {
                let categories: Vec<ErrorCategory> = out.log.errors().map(|d| d.category).collect();
                let files: Vec<String> = out.log.errors().map(|d| d.file.clone()).collect();
                let ctx = RepairContext {
                    round,
                    categories,
                    files,
                    diagnostics: out.log.errors().map(|d| d.to_string()).collect(),
                    race_findings: Vec::new(),
                    fixits: Vec::new(),
                    fixit_sources: Vec::new(),
                };
                match backend.repair(&ctx) {
                    RepairOutcome::GaveUp => break,
                    RepairOutcome::Revised(revised) => {
                        for (p, c) in revised {
                            translated.add(p, c);
                        }
                    }
                }
                out = build_repo(&translated, &BuildRequest::new("nanoxor"));
                if out.succeeded() {
                    fixed_any = true;
                    break;
                }
            }
            // Repair rounds must cost tokens whether or not they succeed.
            assert!(backend.usage().input > before.input);
        }
        assert!(fixed_any, "no failing sample was repaired in 6 rounds");
    }

    #[test]
    fn race_rate_one_yields_building_translations_without_reductions() {
        use crate::attempt::{RepairContext, RepairOutcome};
        // XSBench omp-threads→offload is the cell whose oracle output
        // carries a reduction clause; with race_rate = 1.0 every sample
        // must emit a building repo whose clause is gone.
        let app = pareval_apps::by_name("XSBench").unwrap();
        let pair = TranslationPair::OMP_THREADS_TO_OFFLOAD;
        let repo = app.repo_arc(pair.from).unwrap();
        let mut repaired_any = false;
        for sample in 0..6 {
            let mut backend = SimulatedModel::new(
                model_by_name("o4-mini").unwrap().with_race_rate(1.0),
                Technique::NonAgentic,
                pair,
                "XSBench",
                Arc::clone(&repo),
                20240612,
                sample,
            );
            let job = TranslationJob {
                app_name: &app.name,
                binary: &app.binary,
                source_repo: &repo,
                pair,
                cli_spec: &app.cli_spec,
                build_spec: &app.build_spec,
            };
            let run = translate_with(Technique::NonAgentic, &job, &mut backend);
            let translated = run.repo.expect("race plan forces a runnable attempt");
            assert!(
                !translated.iter().any(|(_, t)| t.contains("reduction(")),
                "sample {sample} kept its reduction clause"
            );
            let out = build_repo(&translated, &BuildRequest::new(&*app.binary));
            assert!(out.succeeded(), "racy sample {sample} must still build");
            // The analyzer's findings arrive under OmpInvalidDirective; a
            // successful repair restores the clause verbatim.
            let ctx = RepairContext {
                round: 1,
                categories: vec![ErrorCategory::OmpInvalidDirective],
                files: Vec::new(),
                diagnostics: Vec::new(),
                race_findings: vec!["[raw-reduction] verification".to_string()],
                fixits: Vec::new(),
                fixit_sources: Vec::new(),
            };
            if let RepairOutcome::Revised(files) = backend.repair(&ctx) {
                if files.iter().any(|(_, t)| t.contains("reduction(")) {
                    repaired_any = true;
                }
            }
        }
        assert!(repaired_any, "no sample repaired its race in one round");
    }

    /// Two samples with the same plan share every translated body they
    /// did not mutate by handle, the clean build file included, and the
    /// second sample derives nothing cold. Injected bodies are derived per
    /// sample. A successful repair re-emits the memo's clean body, or a
    /// fresh functional re-roll of it.
    #[test]
    fn repeated_samples_carry_memoised_bodies() {
        use crate::attempt::{RepairContext, RepairOutcome};
        use pareval_translate::transpile::{BuildFile, FileResult};
        let app = pareval_apps::by_name("microXOR").unwrap();
        let pair = TranslationPair::CUDA_TO_OMP_OFFLOAD;
        // A verbatim file as well, which must be carried from the source.
        let repo = app.repo(pair.from).unwrap().clone();
        let repo = Arc::new(repo.with_file("README.md", "# microXOR\n"));
        let job = TranslationJob {
            app_name: &app.name,
            binary: &app.binary,
            source_repo: &repo,
            pair,
            cli_spec: &app.cli_spec,
            build_spec: &app.build_spec,
        };
        let translate = |sample| {
            let mut model = SimulatedModel::new(
                model_by_name("gemini-1.5-flash").unwrap(),
                Technique::NonAgentic,
                pair,
                "microXOR",
                Arc::clone(&repo),
                20240612,
                sample,
            );
            let run = translate_with(Technique::NonAgentic, &job, &mut model);
            (model, run.repo.unwrap())
        };
        let cold = || {
            [
                repo.cold_derivations::<FileResult>(),
                repo.cold_derivations::<BuildFile>(),
            ]
        };
        // The memo's clean bodies, by handle.
        let oracle = transpile::transpile_repo(&repo, pair, &app.binary);
        let (mut clean, mut injected, mut restored) = (0, 0, 0);
        for sample in 0..16 {
            let (_, a) = translate(sample);
            let before = cold();
            let (mut second, b) = translate(sample);
            assert_eq!(cold(), before, "sample {sample} derived cold");
            assert_eq!(a, b);
            let readme = b.get_body("README.md").unwrap();
            assert!(Body::ptr_eq(readme, repo.get_body("README.md").unwrap()));
            for (path, body) in b.iter_bodies() {
                let memo = oracle.get_body(path).unwrap();
                if body == memo {
                    let from_a = a.get_body(path).unwrap();
                    assert!(
                        Body::ptr_eq(body, memo) && Body::ptr_eq(body, from_a),
                        "sample {sample}: {path} was copied"
                    );
                    clean += 1;
                } else {
                    injected += 1;
                }
            }
            // One repair round on every pending error.
            let ctx = RepairContext {
                round: 1,
                categories: second.pending.iter().map(|p| p.category).collect(),
                files: Vec::new(),
                diagnostics: Vec::new(),
                race_findings: Vec::new(),
                fixits: Vec::new(),
                fixit_sources: Vec::new(),
            };
            let RepairOutcome::Revised(files) = second.repair(&ctx) else {
                continue;
            };
            for (path, body) in files {
                let memo = oracle.get_body(&path).unwrap();
                if Body::ptr_eq(&body, memo) {
                    restored += 1;
                } else {
                    // A repaired code file whose correctness re-rolled.
                    assert!(FileKind::of(&path).is_code(), "{path}");
                    assert_ne!(body, *memo);
                }
            }
        }
        assert!(
            clean > 0 && injected > 0 && restored > 0,
            "{clean} clean, {injected} injected, {restored} restored"
        );
    }

    #[test]
    fn deterministic_given_seed_and_sample() {
        let (a, ua) = attempt(
            "gpt-4o-mini",
            Technique::NonAgentic,
            "microXOR",
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            3,
        );
        let (b, ub) = attempt(
            "gpt-4o-mini",
            Technique::NonAgentic,
            "microXOR",
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            3,
        );
        assert_eq!(a.repo, b.repo);
        assert_eq!(ua, ub);
    }
}
