//! The traced run: the same samples as an untraced serial run, driven
//! through each layer's public functions by a mirror of
//! `EvalPipeline::run_sample`, with a span and a counter at every call.
//!
//! Spans nest on one stack, and each clock read charges the time since
//! the previous read to the span on top. Every layer's figure is thus its
//! self time, and the layers partition each sample's wall time. What no
//! layer claims is glue: the mirror's own bookkeeping between calls.
//!
//! The mirror keeps its own outcome memo, keyed like the pipeline's cache
//! on task, repo content and eval settings, and compiles through a
//! counting wrapper around a fresh `BuildCache`'s file tier. It writes no
//! outcomes to a disk tier (the entry codec is private to the pipeline),
//! so on `gen-stress` it skips that part of the untraced run's work.

use crate::digest::{record_digest, SampleDigests};
use crate::workload::Workload;
use minihpc_analyze::AnalysisFinding;
use minihpc_build::preprocess::ParsedFile;
use minihpc_build::{build_repo_with, BuildRequest, CompiledUnit, ErrorCategory, UnitCache};
use minihpc_lang::repo::{FileKind, SourceRepo};
use minihpc_runtime::{run, RunConfig};
use pareval_core::{
    BuildCache, CellKey, EvalConfig, EvalOutcome, ExperimentResults, JournalSink, NullSink,
    ProgressSink, RepairRound, SampleRecord, SampleResult, Task,
};
use pareval_llm::{
    Attempt, AttemptSpec, ModelProfile, RepairContext, RepairOutcome, SimulatedBackend, TokenUsage,
    TranslationBackend,
};
use pareval_translate::techniques::{
    translate_with, Backend, BackendError, BackendOutput, FileJob, TranslationJob,
};
use pareval_translate::Technique;
use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layers a sample's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Between layer calls: the mirror's own bookkeeping.
    Glue,
    /// `start_attempt`, `Attempt::translate` and the model's tokenizer.
    LlmTranslate,
    /// `Attempt::repair`.
    LlmRepair,
    /// `translate_with` minus the backend calls.
    TranslateSelf,
    /// Outcome and analysis memo: key hashing, lookup, insert and clone.
    CacheKey,
    /// The Code-only overlay of the ground-truth build file.
    CacheOverlay,
    /// `build_repo_with`, including its unit-tier lookups.
    Build,
    /// `Application::expected_output`.
    Reference,
    /// `minihpc_runtime::run` of a candidate.
    Runtime,
    /// The analyze stage: its gate, and `analyze_repo` when on.
    Analyze,
    /// The repair stage minus the backend and the re-evaluations.
    Repair,
    /// Delivering the record to the `ProgressSink`.
    Sink,
}

const LAYERS: usize = 12;

/// Self nanoseconds per layer, indexed by `Layer as usize`.
pub type LayerNanos = [u64; LAYERS];

struct Clock {
    stack: Vec<Layer>,
    last: Instant,
    nanos: LayerNanos,
}

/// The span stack. A `Mutex` because the unit-cache seam must be `Sync`;
/// the traced run is serial, so it is never contended.
struct Spans(Mutex<Clock>);

impl Spans {
    fn new() -> Self {
        Spans(Mutex::new(Clock {
            stack: Vec::new(),
            last: Instant::now(),
            nanos: [0; LAYERS],
        }))
    }

    /// Charge the time since the last clock read to the top span, then
    /// push (`Some`) or pop (`None`).
    fn mark(&self, push: Option<Layer>) {
        let mut clock = self.0.lock().expect("span stack poisoned");
        let now = Instant::now();
        if let Some(&top) = clock.stack.last() {
            let elapsed = now.duration_since(clock.last).as_nanos() as u64;
            clock.nanos[top as usize] += elapsed;
        }
        clock.last = now;
        match push {
            Some(layer) => clock.stack.push(layer),
            None => {
                clock.stack.pop();
            }
        }
    }

    fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.mark(Some(layer));
        let out = f();
        self.mark(None);
        out
    }

    fn nanos(&self) -> LayerNanos {
        self.0.lock().expect("span stack poisoned").nanos
    }
}

/// Work counts of one traced run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub translate_calls: u64,
    /// `Attempt::repair` calls, one per repair round.
    pub repair_calls: u64,
    pub reference_calls: u64,
    pub runtime_calls: u64,
    /// Candidate runs that errored, exited non-zero, printed the wrong
    /// output or stayed off the device.
    pub runtime_failed: u64,
    pub build_calls: u64,
    /// Builds that produced no executable.
    pub build_failed: u64,
    pub parse_calls: u64,
    pub unit_hits: u64,
    pub unit_misses: u64,
    pub outcome_hits: u64,
    pub outcome_misses: u64,
    pub analyze_calls: u64,
    /// Rounds after which a failing Overall build built.
    pub repair_fixed: u64,
}

/// Counting wrapper around a `BuildCache`'s file tier.
struct CountingUnits {
    inner: BuildCache,
    parses: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl UnitCache for CountingUnits {
    fn parse_file(&self, text: &str) -> ParsedFile {
        self.parses.fetch_add(1, Ordering::Relaxed);
        self.inner.parse_file(text)
    }

    fn lookup_unit(&self, key: u128) -> Option<CompiledUnit> {
        let hit = self.inner.lookup_unit(key);
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    fn store_unit(&self, key: u128, unit: &CompiledUnit) {
        self.inner.store_unit(key, unit);
    }
}

/// An attempt whose backend calls are spans and counts.
struct TracedAttempt<'a> {
    inner: Box<dyn Attempt>,
    spans: &'a Spans,
    translates: &'a Cell<u64>,
}

impl Backend for TracedAttempt<'_> {
    fn translate(&mut self, job: &FileJob) -> Result<BackendOutput, BackendError> {
        self.translates.set(self.translates.get() + 1);
        self.spans
            .span(Layer::LlmTranslate, || self.inner.translate(job))
    }

    fn context_limit(&self) -> u64 {
        self.inner.context_limit()
    }

    fn count_tokens(&self, text: &str) -> u64 {
        self.spans
            .span(Layer::LlmTranslate, || self.inner.count_tokens(text))
    }

    fn verbose_context(&self) -> bool {
        self.inner.verbose_context()
    }
}

/// The pipeline mirror: eval knobs, memos and counters of one traced run.
struct Mirror<'a> {
    eval: &'a EvalConfig,
    spans: &'a Spans,
    units: &'a CountingUnits,
    outcomes: HashMap<u128, EvalOutcome>,
    analysis: HashMap<u128, Vec<AnalysisFinding>>,
    counts: Counts,
    translates: &'a Cell<u64>,
}

impl Mirror<'_> {
    /// `EvalPipeline::run_sample`, call for call (blind repair only).
    fn run_sample(
        &mut self,
        task: &Task,
        technique: Technique,
        model: &ModelProfile,
        backend: &dyn TranslationBackend,
        seed: u64,
        sample: u32,
    ) -> SampleResult {
        let source_repo = match task.app.repo_arc(task.pair.from) {
            Ok(repo) => repo,
            Err(err) => return infeasible(Some(err.to_string()), TokenUsage::default()),
        };
        let spec = AttemptSpec {
            model,
            technique,
            pair: task.pair,
            app_name: &task.app.name,
            source_repo: Arc::clone(&source_repo),
            seed,
            sample,
        };
        let spans = self.spans;
        let inner = spans.span(Layer::LlmTranslate, || backend.start_attempt(&spec));
        let mut attempt = TracedAttempt {
            inner,
            spans,
            translates: self.translates,
        };
        let job = TranslationJob {
            app_name: &task.app.name,
            binary: &task.app.binary,
            source_repo: &source_repo,
            pair: task.pair,
            cli_spec: &task.app.cli_spec,
            build_spec: &task.app.build_spec,
        };
        let run_result = spans.span(Layer::TranslateSelf, || {
            translate_with(technique, &job, &mut attempt)
        });
        let Some(mut repo) = run_result.repo else {
            return infeasible(run_result.failure, attempt.inner.usage());
        };

        let mut overall = self.evaluate(task, &repo);
        let mut code_only = self.code_only_outcome(task, &repo, &overall);
        let mut analysis = self.analyze(task, &repo);

        fn needs_repair(overall: &EvalOutcome, analysis: &[AnalysisFinding]) -> bool {
            !overall.built || analysis.iter().any(|f| f.is_error())
        }

        let mut rounds = Vec::new();
        spans.mark(Some(Layer::Repair));
        if self.eval.repair_budget > 0 && needs_repair(&overall, &analysis) {
            rounds.push(RepairRound {
                round: 0,
                gave_up: false,
                code_only: code_only.clone(),
                overall: overall.clone(),
                tokens: attempt.inner.usage(),
            });
            for round in 1..=self.eval.repair_budget {
                let mut ctx = repair_context(&overall, round, self.eval.repair_diag_lines);
                let race: Vec<String> = analysis
                    .iter()
                    .filter(|f| f.is_error())
                    .map(AnalysisFinding::render)
                    .collect();
                if !race.is_empty() && !ctx.categories.contains(&ErrorCategory::OmpInvalidDirective)
                {
                    ctx.categories.push(ErrorCategory::OmpInvalidDirective);
                }
                ctx.race_findings = race;
                self.counts.repair_calls += 1;
                let outcome = spans.span(Layer::LlmRepair, || attempt.inner.repair(&ctx));
                let was_built = overall.built;
                match outcome {
                    RepairOutcome::GaveUp => {
                        rounds.push(RepairRound {
                            round,
                            gave_up: true,
                            code_only: code_only.clone(),
                            overall: overall.clone(),
                            tokens: attempt.inner.usage(),
                        });
                        break;
                    }
                    RepairOutcome::Revised(files) => {
                        if !files.is_empty() {
                            for (p, c) in files {
                                repo.add(p, c);
                            }
                            overall = self.evaluate(task, &repo);
                            code_only = self.code_only_outcome(task, &repo, &overall);
                            analysis = self.analyze(task, &repo);
                        }
                        if !was_built && overall.built {
                            self.counts.repair_fixed += 1;
                        }
                        rounds.push(RepairRound {
                            round,
                            gave_up: false,
                            code_only: code_only.clone(),
                            overall: overall.clone(),
                            tokens: attempt.inner.usage(),
                        });
                    }
                }
                if !needs_repair(&overall, &analysis) {
                    break;
                }
            }
        }
        spans.mark(None);

        SampleResult {
            feasible: true,
            failure_reason: None,
            code_only: Some(code_only),
            overall: Some(overall),
            tokens: attempt.inner.usage(),
            rounds,
            analysis,
        }
    }

    /// `EvalPipeline::analyze`: the analyzer verdict, memoized by the
    /// outcome key.
    fn analyze(&mut self, task: &Task, repo: &SourceRepo) -> Vec<AnalysisFinding> {
        let spans = self.spans;
        spans.span(Layer::Analyze, || {
            if !self.eval.analyze {
                return Vec::new();
            }
            let key = spans.span(Layer::CacheKey, || {
                let key = outcome_key(task, repo, self.eval);
                (key, self.analysis.get(&key).cloned())
            });
            let (key, hit) = key;
            if let Some(hit) = hit {
                return hit;
            }
            self.counts.analyze_calls += 1;
            let mut findings = minihpc_analyze::analyze_repo(repo);
            findings.truncate(self.eval.analyze_max_findings);
            spans.span(Layer::CacheKey, || {
                self.analysis.insert(key, findings.clone());
            });
            findings
        })
    }

    /// `EvalPipeline::code_only_outcome`: swap in the ground-truth build
    /// file and evaluate.
    fn code_only_outcome(
        &mut self,
        task: &Task,
        translated: &SourceRepo,
        overall: &EvalOutcome,
    ) -> EvalOutcome {
        match task.app.ground_truth_build.get(&task.pair.to) {
            Some((gt_path, gt_text)) => {
                let repo = self.spans.span(Layer::CacheOverlay, || {
                    let mut repo = translated.clone();
                    let build_files: Vec<String> = repo
                        .iter()
                        .filter(|(p, _)| FileKind::of(p).is_build_file())
                        .map(|(p, _)| p.to_string())
                        .collect();
                    for p in build_files {
                        repo.remove(&p);
                    }
                    repo.add(gt_path.clone(), gt_text.clone());
                    repo
                });
                self.evaluate(task, &repo)
            }
            None => overall.clone(),
        }
    }

    /// `EvalPipeline::evaluate` through the mirror's memo.
    fn evaluate(&mut self, task: &Task, repo: &SourceRepo) -> EvalOutcome {
        let spans = self.spans;
        let (key, hit) = spans.span(Layer::CacheKey, || {
            let key = outcome_key(task, repo, self.eval);
            (key, self.outcomes.get(&key).cloned())
        });
        if let Some(hit) = hit {
            self.counts.outcome_hits += 1;
            return hit;
        }
        self.counts.outcome_misses += 1;
        let outcome = self.evaluate_uncached(task, repo);
        spans.span(Layer::CacheKey, || {
            self.outcomes.insert(key, outcome.clone());
        });
        outcome
    }

    /// The pipeline's cold path: build, target-model check, test runs.
    fn evaluate_uncached(&mut self, task: &Task, repo: &SourceRepo) -> EvalOutcome {
        let spans = self.spans;
        let units: &dyn UnitCache = self.units;
        self.counts.build_calls += 1;
        let (outcome, build_log) = spans.span(Layer::Build, || {
            let outcome = build_repo_with(repo, &BuildRequest::new(&*task.app.binary), Some(units));
            let log = outcome.log.text();
            (outcome, log)
        });
        let Some(exe) = outcome.executable else {
            self.counts.build_failed += 1;
            return EvalOutcome {
                built: false,
                passed: false,
                error_category: outcome.log.first_error_category(),
                build_log,
                error_diagnostics: outcome.log.errors().cloned().collect(),
            };
        };
        if !exe.usage.conforms_to(task.pair.to) {
            return EvalOutcome {
                built: true,
                passed: false,
                error_category: None,
                build_log,
                error_diagnostics: Vec::new(),
            };
        }
        let mut passed = true;
        for case in task.app.tests.iter().take(self.eval.max_cases) {
            self.counts.reference_calls += 1;
            let expected = spans.span(Layer::Reference, || task.app.expected_output(case));
            let mut cfg = RunConfig::with_args(case.args.iter().cloned());
            cfg.max_steps = self.eval.max_steps;
            self.counts.runtime_calls += 1;
            let r = spans.span(Layer::Runtime, || run(&exe, cfg));
            let ok = r.error.is_none()
                && r.exit_code == 0
                && r.stdout == expected
                && (!task.pair.to.is_gpu() || r.telemetry.ran_on_device());
            if !ok {
                self.counts.runtime_failed += 1;
                passed = false;
                break;
            }
        }
        EvalOutcome {
            built: true,
            passed,
            error_category: None,
            build_log,
            error_diagnostics: Vec::new(),
        }
    }
}

fn infeasible(failure_reason: Option<String>, tokens: TokenUsage) -> SampleResult {
    SampleResult {
        feasible: false,
        failure_reason,
        code_only: None,
        overall: None,
        tokens,
        rounds: Vec::new(),
        analysis: Vec::new(),
    }
}

/// The pipeline's repair feedback: distinct categories and files in
/// first-occurrence order, plus the first `max_lines` diagnostics.
fn repair_context(outcome: &EvalOutcome, round: u32, max_lines: usize) -> RepairContext {
    let mut categories = Vec::new();
    let mut files = Vec::new();
    for d in &outcome.error_diagnostics {
        if !categories.contains(&d.category) {
            categories.push(d.category);
        }
        if !files.contains(&d.file) {
            files.push(d.file.clone());
        }
    }
    RepairContext {
        round,
        categories,
        files,
        diagnostics: outcome
            .error_diagnostics
            .iter()
            .take(max_lines)
            .map(|d| d.to_string())
            .collect(),
        race_findings: Vec::new(),
        fixits: Vec::new(),
        fixit_sources: Vec::new(),
    }
}

/// The outcome memo key, built like the pipeline's: a 128-bit FNV-1a over
/// the task, every result-affecting eval knob, and every file.
fn outcome_key(task: &Task, repo: &SourceRepo, eval: &EvalConfig) -> u128 {
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u128::from(b)).wrapping_mul(PRIME);
        }
        h = (h ^ 0xff).wrapping_mul(PRIME);
    };
    write(task.app.binary.as_bytes());
    write(task.app.name.as_bytes());
    write(task.pair.id().as_bytes());
    write(&eval.max_cases.to_le_bytes());
    write(&eval.max_steps.to_le_bytes());
    write(&eval.repair_budget.to_le_bytes());
    write(&eval.repair_diag_lines.to_le_bytes());
    if eval.analyze {
        write(b"analyze");
        write(&eval.analyze_max_findings.to_le_bytes());
    }
    if eval.repair_guided {
        write(b"repair-guided");
    }
    for (path, contents) in repo.iter() {
        write(path.as_bytes());
        write(contents.as_bytes());
    }
    h
}

/// One traced run of a grid.
pub struct Traced {
    pub counts: Counts,
    /// Self nanoseconds per layer over every sample.
    pub layers: LayerNanos,
    /// Wall nanoseconds of every sample, start to sink delivery.
    pub sample_nanos: u64,
    pub gen_s: f64,
    pub plan_s: f64,
    pub collect_s: f64,
    pub digests: SampleDigests,
}

impl Traced {
    /// The share of the traced per-sample wall time the layers claim.
    pub fn coverage(&self) -> f64 {
        1.0 - self.layers[Layer::Glue as usize] as f64 / self.sample_nanos as f64
    }
}

/// Trace every sample of the grid at `plan_seed` in `order` (the delivery
/// order of an untraced serial run, so the memos see the same sequence).
pub fn run_traced(
    workload: Workload,
    plan_seed: u64,
    order: &[(CellKey, u32)],
    dir: &Path,
) -> Traced {
    let start = Instant::now();
    let generated = workload
        .gen_specs(plan_seed)
        .iter()
        .map(pareval_apps::generated_app)
        .collect();
    let gen_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let plan = workload.plan(plan_seed, generated, Arc::new(SimulatedBackend), None);
    let plan_s = start.elapsed().as_secs_f64();
    assert!(
        !plan.eval().repair_guided,
        "the mirror does not model guided repair"
    );

    let journal = workload.journaled().then(|| {
        std::fs::create_dir_all(dir).expect("create the traced run's directory");
        JournalSink::create(&dir.join("journal"), &plan)
            .expect("create the traced run's journal")
            .with_sync_every(0)
    });
    let sink: &dyn ProgressSink = match &journal {
        Some(journal) => journal,
        None => &NullSink,
    };
    let cells: HashMap<CellKey, usize> = plan
        .cells()
        .iter()
        .enumerate()
        .map(|(i, c)| (c.key, i))
        .collect();

    let spans = Spans::new();
    let translates = Cell::new(0);
    let units = CountingUnits {
        inner: BuildCache::new(),
        parses: AtomicU64::new(0),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    };
    let mut mirror = Mirror {
        eval: plan.eval(),
        spans: &spans,
        units: &units,
        outcomes: HashMap::new(),
        analysis: HashMap::new(),
        counts: Counts::default(),
        translates: &translates,
    };
    let mut records = Vec::with_capacity(order.len());
    let mut digests = SampleDigests::new();
    for &(key, index) in order {
        let cell = &plan.cells()[cells[&key]];
        spans.mark(Some(Layer::Glue));
        let result = mirror.run_sample(
            plan.task_of(cell),
            cell.key.technique,
            plan.model_of(cell),
            plan.backend_of(cell),
            plan.seed(),
            index,
        );
        let record = SampleRecord {
            key,
            sample_index: index,
            result,
        };
        spans.span(Layer::Sink, || sink.on_sample(&record));
        spans.mark(None);
        digests.push(record_digest(&record));
        records.push(record);
    }
    let start = Instant::now();
    std::hint::black_box(ExperimentResults::from_records(&plan, records));
    let collect_s = start.elapsed().as_secs_f64();
    drop(journal);
    digests.sort_unstable();

    let layers = spans.nanos();
    let mut counts = mirror.counts;
    counts.translate_calls = translates.get();
    counts.parse_calls = units.parses.load(Ordering::Relaxed);
    counts.unit_hits = units.hits.load(Ordering::Relaxed);
    counts.unit_misses = units.misses.load(Ordering::Relaxed);
    Traced {
        counts,
        sample_nanos: layers.iter().sum(),
        layers,
        gen_s,
        plan_s,
        collect_s,
        digests,
    }
}
