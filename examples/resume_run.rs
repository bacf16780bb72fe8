//! Durable grid runs end to end: journal a run, crash it partway through,
//! resume from the journal, and verify the resumed results are
//! byte-identical to an uninterrupted run.
//!
//! 1. attach a [`JournalSink`] so every completed sample hits disk as it
//!    finishes (with a disk-backed build cache sharing builds across the
//!    crash boundary),
//! 2. inject a crash — a backend wrapper that panics partway stands in for
//!    a ctrl-c / OOM / power cut,
//! 3. [`Runner::resume`] skips everything the journal already holds, runs
//!    only the remainder, and replays the journal into the collector.
//!
//! Run with: `cargo run --release --example resume_run`
//! (`make examples` runs it; a failed assert is a non-zero exit.)

use minihpc_lang::model::TranslationPair;
use pareval_core::{
    journal, report, CountingSink, EvalConfig, EvalPipeline, ExperimentPlan, JournalSink, Runner,
    ScheduledRunner,
};
use pareval_llm::{Attempt, AttemptSpec, SimulatedBackend, TranslationBackend};
use pareval_translate::Technique;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Panics when the `allowed`-th attempt starts — the stand-in for any
/// mid-run failure. `name`/`cell_feasible` delegate to the real backend,
/// so the journal written under this wrapper fingerprints identically to
/// the clean plan we resume with.
struct CrashInjector {
    inner: SimulatedBackend,
    allowed: u64,
    started: AtomicU64,
}

impl TranslationBackend for CrashInjector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn start_attempt(&self, spec: &AttemptSpec<'_>) -> Box<dyn Attempt> {
        if self.started.fetch_add(1, Ordering::SeqCst) >= self.allowed {
            panic!("simulated power cut");
        }
        self.inner.start_attempt(spec)
    }

    fn cell_feasible(
        &self,
        pair: TranslationPair,
        technique: Technique,
        model: &str,
        app: &str,
    ) -> bool {
        self.inner.cell_feasible(pair, technique, model, app)
    }
}

fn plan_with(backend: Arc<dyn TranslationBackend>, cache_dir: &std::path::Path) -> ExperimentPlan {
    ExperimentPlan::builder()
        .samples(3)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .techniques([Technique::NonAgentic, Technique::TopDownAgentic])
        .apps(["nanoXOR", "microXORh", "microXOR"])
        .eval(EvalConfig {
            max_cases: 1,
            disk_cache_dir: Some(cache_dir.to_path_buf()),
            ..EvalConfig::default()
        })
        .backend(backend)
        .build()
}

fn main() {
    let scratch = std::env::temp_dir().join(format!("pareval-resume-run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let journal_path = scratch.join("grid.journal");
    let cache_dir = scratch.join("build-cache");

    // --- Run 1: journaled, crashes after 11 completed samples. ----------
    let crashing = plan_with(
        Arc::new(CrashInjector {
            inner: SimulatedBackend,
            allowed: 11,
            started: AtomicU64::new(0),
        }),
        &cache_dir,
    );
    let total = crashing.total_samples();
    println!(
        "grid: {total} samples, journaling to {}",
        journal_path.display()
    );

    let sink = JournalSink::create(&journal_path, &crashing).expect("create journal");
    let pipeline = EvalPipeline::new(crashing.eval().clone());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the injected crash quiet
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        ScheduledRunner::new(4).run_with(&crashing, &pipeline, &sink);
    }))
    .is_err();
    std::panic::set_hook(hook);
    drop(sink);
    assert!(crashed, "the injected crash should have fired");

    // --- Resume: skip the journaled prefix, run only the remainder. -----
    let plan = plan_with(Arc::new(SimulatedBackend), &cache_dir);
    let replay = journal::scan(&journal_path, &plan).expect("scan journal");
    println!(
        "crashed mid-run; journal recovered {} completed samples",
        replay.completed.len()
    );

    let sink = JournalSink::append(&journal_path, &plan).expect("reopen journal");
    let pipeline = EvalPipeline::new(plan.eval().clone());
    let counting = CountingSink::new();
    struct Both<'a>(&'a JournalSink, &'a CountingSink);
    impl pareval_core::ProgressSink for Both<'_> {
        fn on_sample(&self, record: &pareval_core::SampleRecord) {
            self.0.on_sample(record);
            self.1.on_sample(record);
        }
    }
    let resumed = ScheduledRunner::new(4)
        .resume(&plan, &journal_path, &pipeline, &Both(&sink, &counting))
        .expect("resume");
    drop(sink);
    let stats = pipeline.cache_stats();
    println!(
        "resumed: {} fresh samples, {} replayed ({} disk-cache hits carried across the crash)",
        counting.completed(),
        replay.completed.len(),
        stats.disk_hits,
    );

    // --- Proof: byte-identical to a run that never crashed. -------------
    let uninterrupted = ScheduledRunner::new(1).run(&plan);
    let resumed_report = report::table2(&resumed);
    let serial_report = report::table2(&uninterrupted);
    assert_eq!(uninterrupted, resumed, "resume diverged from serial");
    assert_eq!(serial_report, resumed_report);
    println!(
        "report bytes identical ({} replayed + {} fresh = {} samples)",
        replay.completed.len(),
        counting.completed(),
        total,
    );

    let _ = std::fs::remove_dir_all(&scratch);
}
