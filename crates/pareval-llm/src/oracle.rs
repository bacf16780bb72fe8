//! The always-correct backend: the reference transpiler with zero injected
//! errors — an upper-bound workload the paper itself cannot measure.
//!
//! Where [`SimulatedBackend`](crate::SimulatedBackend) reproduces the
//! paper's observed pass rates, [`OracleBackend`] answers "what would a
//! perfect translator score on this harness?": pass@1 = 1.0 under the
//! Code-only scoring on every cell it can run. (Overall can still fall
//! short — the SWE-agent technique corrupts Makefile recipes regardless of
//! translation quality, which is exactly the headroom the oracle makes
//! visible.)

use crate::attempt::{Attempt, AttemptSpec, RepairContext, RepairOutcome, TranslationBackend};
use crate::backend::TokenUsage;
use crate::profiles::ModelProfile;
use minihpc_lang::fnv::Fnv128;
use minihpc_lang::model::TranslationPair;
use minihpc_lang::repo::{Body, FileKind, SourceRepo};
use pareval_translate::techniques::{Backend, BackendError, BackendOutput, FileJob};
use pareval_translate::{transpile, Technique};
use std::sync::Arc;

/// Large enough that the chunk agent never splits a file, small enough that
/// `chunk_file`'s character-budget arithmetic cannot overflow or truncate,
/// even on 32-bit targets.
const ORACLE_CONTEXT: u64 = u32::MAX as u64;

/// Can the reference transpiler itself solve this task? Two tasks cannot be
/// translated by anyone — the paper records them as unsolved across every
/// model and technique, and `pareval-translate/tests/oracle.rs` asserts the
/// transpiler fails them the same way (cuRAND state through Kokkos views;
/// pointer arithmetic on device helpers).
fn oracle_solvable(pair: TranslationPair, app: &str) -> bool {
    !(pair == TranslationPair::CUDA_TO_KOKKOS && matches!(app, "XSBench" | "SimpleMOC-kernel"))
}

/// A [`TranslationBackend`] that always emits the reference translation.
///
/// Feasibility ignores the paper's context/budget limits: the oracle runs
/// every cell its transpiler can solve, including configurations no real
/// model could attempt. Token accounting is deterministic (no verbosity
/// noise), so oracle grids are fully reproducible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleBackend;

impl TranslationBackend for OracleBackend {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn start_attempt(&self, spec: &AttemptSpec<'_>) -> Box<dyn Attempt> {
        Box::new(OracleAttempt {
            model: spec.model.clone(),
            pair: spec.pair,
            source_repo: Arc::clone(&spec.source_repo),
            solvable: oracle_solvable(spec.pair, spec.app_name),
            translated: None,
            usage: TokenUsage::default(),
        })
    }

    fn cell_feasible(
        &self,
        pair: TranslationPair,
        _technique: Technique,
        _model: &str,
        app: &str,
    ) -> bool {
        oracle_solvable(pair, app)
    }
}

/// One oracle attempt: the transpiler, the model's tokenizer, no errors.
struct OracleAttempt {
    model: ModelProfile,
    pair: TranslationPair,
    source_repo: Arc<SourceRepo>,
    solvable: bool,
    /// The whole-repo reference translation, fetched on first use and
    /// served file by file. Going through [`transpile::transpile_repo`]
    /// (rather than per-file transpile calls) keeps repo-level passes —
    /// e.g. injecting the portable-RNG helpers into exactly one file —
    /// intact, so oracle output is exactly the artifact the transpiler's
    /// own integration tests verify.
    translated: Option<Arc<SourceRepo>>,
    usage: TokenUsage,
}

/// The memoised reference translation: a type of its own, so its memo
/// entry is told apart from other results by type.
#[derive(Clone)]
struct Reference(Arc<SourceRepo>);

/// The reference translation of `source_repo` under `pair`, memoised on
/// `source_repo` under the [`Fnv128`] hash of (`pair`, `binary`).
/// `transpile_repo` is pure, so every attempt on the same app shares one
/// translation: only the first assembles it, and every later attempt
/// serves the same bodies by handle, with their hashes.
fn reference(source_repo: &SourceRepo, pair: TranslationPair, binary: &str) -> Arc<SourceRepo> {
    let mut key = Fnv128::new();
    key.field(pair.from.id().as_bytes());
    key.field(pair.to.id().as_bytes());
    key.field(binary.as_bytes());
    let derive = || {
        Reference(Arc::new(transpile::transpile_repo(
            source_repo,
            pair,
            binary,
        )))
    };
    source_repo.memoized(key.finish(), derive).0
}

impl OracleAttempt {
    /// This attempt's reference translation, shared with every attempt on
    /// the same source repo, pair and binary.
    fn translated(&mut self, binary: &str) -> &SourceRepo {
        self.translated
            .get_or_insert_with(|| reference(&self.source_repo, self.pair, binary))
    }
}

impl Backend for OracleAttempt {
    fn translate(&mut self, job: &FileJob) -> Result<BackendOutput, BackendError> {
        if !self.solvable {
            // Unsolvable tasks are excluded at plan time; a direct caller
            // bypassing the plan still gets a clean failure.
            return Err(BackendError::BudgetExhausted);
        }
        self.usage.input += self.model.tokens_for_len(job.prompt_len);
        let pair = self.pair;
        let reference = self.translated(&job.binary);
        // Reference bodies are served by handle, with their hashes.
        let output = if job.kind.is_build_file() {
            let (path, text) = reference
                .iter_bodies()
                .find(|(p, _)| FileKind::of(p).is_build_file())
                .map(|(p, t)| (p.to_string(), t.clone()))
                .expect("reference translation has a build file");
            BackendOutput {
                files: vec![(path, text)],
                summary: "translated the build system".to_string(),
            }
        } else {
            let path = transpile::rename_for_target(&job.path, pair.to);
            let text = reference
                .get_body(&path)
                .unwrap_or_else(|| panic!("reference translation lacks {path}"))
                .clone();
            let summary = format!("translated {} to {}", job.path, pair.to);
            BackendOutput {
                files: vec![(path, text)],
                summary,
            }
        };
        let emitted: usize = output.files.iter().map(|(_, c)| c.len()).sum();
        self.usage.output += self.model.tokens_for_len(emitted);
        Ok(output)
    }

    fn context_limit(&self) -> u64 {
        ORACLE_CONTEXT
    }

    fn count_tokens(&self, text: &str) -> u64 {
        self.model.count_tokens(text)
    }
}

impl Attempt for OracleAttempt {
    fn feasible(&self) -> bool {
        self.solvable
    }

    fn usage(&self) -> TokenUsage {
        self.usage
    }

    /// Perfect repair: re-emit the reference translation of every file the
    /// diagnostics point at. The oracle's own output always builds, so this
    /// only ever fires on damage applied *after* the backend ran — e.g. the
    /// SWE-agent technique's tab-normalized Makefiles — which one round
    /// undoes completely.
    fn repair(&mut self, ctx: &RepairContext) -> RepairOutcome {
        self.usage.input += self.model.tokens_for_len(ctx.prompt_len());
        // Guided repair: when the harness hands over analyzer fix-its,
        // apply them deterministically. The oracle faithfully transpiles
        // whatever source it is given — a racy generated app stays racy
        // through any number of blind re-emits — so the fix-it path is the
        // only way it ever cures a source-level directive race.
        if !ctx.fixits.is_empty() {
            let revised = crate::attempt::apply_fixits(ctx);
            if !revised.is_empty() {
                let emitted: usize = revised.iter().map(|(_, c)| c.len()).sum();
                self.usage.output += self.model.tokens_for_len(emitted);
                return RepairOutcome::Revised(revised);
            }
        }
        let Some(reference) = self.translated.as_ref() else {
            return RepairOutcome::GaveUp;
        };
        let files: Vec<(String, Body)> = ctx
            .files
            .iter()
            .filter_map(|p| reference.get_body(p).map(|t| (p.clone(), t.clone())))
            .collect();
        if files.is_empty() {
            return RepairOutcome::GaveUp;
        }
        let emitted: usize = files.iter().map(|(_, c)| c.len()).sum();
        self.usage.output += self.model.tokens_for_len(emitted);
        RepairOutcome::Revised(files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::model_by_name;
    use minihpc_build::{build_repo, BuildRequest};
    use pareval_translate::techniques::{translate_with, TranslationJob};

    fn oracle_run(
        app_name: &str,
        pair: TranslationPair,
        technique: Technique,
    ) -> (pareval_translate::TranslationRun, TokenUsage) {
        let app = pareval_apps::by_name(app_name).unwrap();
        let repo = app.repo_arc(pair.from).unwrap();
        let model = model_by_name("gpt-4o-mini").unwrap();
        let spec = AttemptSpec {
            model: &model,
            technique,
            pair,
            app_name: &app.name,
            source_repo: Arc::clone(&repo),
            seed: 1,
            sample: 0,
        };
        let mut attempt = OracleBackend.start_attempt(&spec);
        let job = TranslationJob {
            app_name: &app.name,
            binary: &app.binary,
            source_repo: &repo,
            pair,
            cli_spec: &app.cli_spec,
            build_spec: &app.build_spec,
        };
        let run = translate_with(technique, &job, &mut attempt);
        (run, attempt.usage())
    }

    #[test]
    fn oracle_output_always_builds() {
        for technique in [Technique::NonAgentic, Technique::TopDownAgentic] {
            let (run, usage) =
                oracle_run("nanoXOR", TranslationPair::CUDA_TO_OMP_OFFLOAD, technique);
            let repo = run.repo.expect("oracle completes");
            let out = build_repo(&repo, &BuildRequest::new("nanoxor"));
            assert!(out.succeeded(), "{technique}: {}", out.log.text());
            assert!(usage.input > 0 && usage.output > 0);
        }
    }

    #[test]
    fn oracle_runs_cells_the_paper_could_not() {
        // Gemini XSBench CUDA→offload non-agentic is infeasible for the
        // simulation (context window), feasible for the oracle.
        let pair = TranslationPair::CUDA_TO_OMP_OFFLOAD;
        assert!(!crate::calibration::cell_feasible(
            pair,
            Technique::NonAgentic,
            "gemini-1.5-flash",
            "XSBench"
        ));
        assert!(OracleBackend.cell_feasible(
            pair,
            Technique::NonAgentic,
            "gemini-1.5-flash",
            "XSBench"
        ));
    }

    #[test]
    fn oracle_declines_the_unsolvable_kokkos_tasks() {
        for app in ["XSBench", "SimpleMOC-kernel"] {
            assert!(!OracleBackend.cell_feasible(
                TranslationPair::CUDA_TO_KOKKOS,
                Technique::TopDownAgentic,
                "o4-mini",
                app
            ));
        }
        // ...but solves them under CUDA→offload.
        assert!(OracleBackend.cell_feasible(
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::TopDownAgentic,
            "o4-mini",
            "XSBench"
        ));
    }

    #[test]
    fn oracle_attempts_on_one_app_share_one_reference_translation() {
        // SimpleMOC-kernel uses cuRAND, so its translation prefixes the
        // portable-RNG helpers to the files that used it: bodies that only
        // the whole-repo pass derives.
        let app = pareval_apps::by_name("SimpleMOC-kernel").unwrap();
        let pair = TranslationPair::CUDA_TO_OMP_OFFLOAD;
        let repo = app.repo_arc(pair.from).unwrap();
        let model = model_by_name("gpt-4o-mini").unwrap();
        let translate = || {
            let spec = AttemptSpec {
                model: &model,
                technique: Technique::NonAgentic,
                pair,
                app_name: &app.name,
                source_repo: Arc::clone(&repo),
                seed: 1,
                sample: 0,
            };
            let job = TranslationJob {
                app_name: &app.name,
                binary: &app.binary,
                source_repo: &repo,
                pair,
                cli_spec: &app.cli_spec,
                build_spec: &app.build_spec,
            };
            let mut attempt = OracleBackend.start_attempt(&spec);
            let run = translate_with(Technique::NonAgentic, &job, &mut attempt);
            run.repo.expect("oracle completes")
        };
        let cold = || {
            [
                repo.cold_derivations::<Reference>(),
                repo.cold_derivations::<transpile::FileResult>(),
                repo.cold_derivations::<transpile::BuildFile>(),
            ]
        };
        let first = translate();
        let before = cold();
        assert_eq!(before[0], 1);
        let second = translate();
        assert_eq!(cold(), before, "the second attempt derived cold");
        assert!(first.iter().any(|(_, text)| text.contains("rng_uniform")));
        assert_eq!(first.len(), second.len());
        for (path, body) in second.iter_bodies() {
            let shared = first.get_body(path).unwrap();
            assert!(Body::ptr_eq(body, shared), "{path} was copied");
        }
    }

    #[test]
    fn oracle_is_deterministic() {
        let (a, ua) = oracle_run(
            "microXOR",
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::NonAgentic,
        );
        let (b, ub) = oracle_run(
            "microXOR",
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            Technique::NonAgentic,
        );
        assert_eq!(a.repo, b.repo);
        assert_eq!(ua, ub);
    }
}
