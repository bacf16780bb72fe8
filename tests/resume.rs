//! Crash/fault-injection suite for the durability layer: a run that
//! journals its progress, crashes anywhere, and resumes must produce
//! results byte-identical to an uninterrupted serial reference run
//! (`common::serial_reference`) — across worker counts, repair budgets,
//! torn journal tails, flipped checksum bytes, and repeated crash/resume
//! cycles. Wrong-plan journals are refused with a
//! typed error, never silently resumed.

mod common;

use common::{lpt_order, serial_reference_of, with_quiet_panics, DeliverySink, TestDir};
use minihpc_lang::model::TranslationPair;
use pareval_core::{
    journal, report, CountingSink, EvalConfig, EvalPipeline, ExperimentPlan, ExperimentResults,
    JournalError, JournalSink, NullSink, ProgressSink, Runner, ScheduledRunner,
};
use pareval_llm::{Attempt, AttemptSpec, SimulatedBackend, TranslationBackend};
use pareval_repo as _;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fault injection: delegates to an inner backend but panics when the
/// `n`th attempt starts — "a bug anywhere inside one sample's evaluation",
/// placed deterministically. `name` and `cell_feasible` delegate too, so a
/// plan built on this wrapper has the *same fingerprint* as one built on
/// the clean inner backend: the resumed plan does not need to re-create
/// the crash to match the journal.
struct PanicAfterN {
    inner: Arc<dyn TranslationBackend>,
    allowed: u64,
    started: AtomicU64,
}

impl PanicAfterN {
    fn new(inner: Arc<dyn TranslationBackend>, allowed: u64) -> Self {
        PanicAfterN {
            inner,
            allowed,
            started: AtomicU64::new(0),
        }
    }
}

impl TranslationBackend for PanicAfterN {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn start_attempt(&self, spec: &AttemptSpec<'_>) -> Box<dyn Attempt> {
        if self.started.fetch_add(1, Ordering::SeqCst) >= self.allowed {
            panic!("injected crash after {} samples", self.allowed);
        }
        self.inner.start_attempt(spec)
    }

    fn cell_feasible(
        &self,
        pair: TranslationPair,
        technique: pareval_translate::Technique,
        model: &str,
        app: &str,
    ) -> bool {
        self.inner.cell_feasible(pair, technique, model, app)
    }
}

/// The grid every test here runs: one pair, two apps, all techniques and
/// models, 2 samples per feasible cell — small enough to run dozens of
/// times, big enough to have a real remainder at any crash point.
fn plan_with(backend: Arc<dyn TranslationBackend>, repair_budget: u32) -> ExperimentPlan {
    ExperimentPlan::builder()
        .samples(2)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .apps(["nanoXOR", "microXOR"])
        .eval(EvalConfig {
            max_cases: 1,
            repair_budget,
            ..EvalConfig::default()
        })
        .backend(backend)
        .build()
}

fn clean_plan(repair_budget: u32) -> ExperimentPlan {
    plan_with(Arc::new(SimulatedBackend), repair_budget)
}

/// Run `plan` journaling to `journal_path` until the injected crash fires;
/// asserts the crash actually happened.
fn run_to_crash(plan: &ExperimentPlan, journal_path: &Path, workers: usize) {
    let sink = JournalSink::create(journal_path, plan).expect("create journal");
    let pipeline = EvalPipeline::new(plan.eval().clone());
    let crashed = with_quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            ScheduledRunner::new(workers).run_with(plan, &pipeline, &sink);
        }))
        .is_err()
    });
    assert!(crashed, "crash injection did not fire");
}

/// The byte-identity surface: every report the harness renders.
fn full_report_text(results: &ExperimentResults) -> String {
    let mut text = String::new();
    for code_only in [false, true] {
        text.push_str(&report::fig2(
            results,
            TranslationPair::CUDA_TO_OMP_OFFLOAD,
            code_only,
        ));
    }
    text.push_str(&report::fig3(results));
    text.push_str(&report::fig4(results));
    text.push_str(&report::fig5(results));
    text.push_str(&report::table2(results));
    text.push_str(&report::repair_report(results));
    text
}

#[test]
fn crash_then_resume_is_byte_identical_and_skips_completed_work() {
    let dir = TestDir::new("resume");
    let journal_path = dir.file("run.journal");
    let crashing = plan_with(Arc::new(PanicAfterN::new(Arc::new(SimulatedBackend), 3)), 0);
    run_to_crash(&crashing, &journal_path, 2);

    let plan = clean_plan(0);
    let total = plan.total_samples();
    let replay = journal::scan(&journal_path, &plan).unwrap();
    let recovered = replay.completed.len();
    assert!(
        recovered > 0 && recovered < total,
        "want a genuine partial journal, got {recovered}/{total}"
    );

    let serial = serial_reference_of(&plan);
    let sink = DeliverySink::default();
    let resumed = ScheduledRunner::new(1)
        .resume(
            &plan,
            &journal_path,
            &EvalPipeline::new(plan.eval().clone()),
            &sink,
        )
        .unwrap();
    // Only the remainder ran, re-seeded most-expensive first; replayed
    // records are not re-delivered.
    let remainder = plan
        .sample_specs()
        .into_iter()
        .filter(|spec| {
            !replay
                .completed
                .contains(&(plan.cells()[spec.cell].key, spec.sample_index))
        })
        .collect();
    let seen = sink.seen.into_inner().unwrap();
    assert_eq!(seen.len(), total - recovered);
    assert_eq!(seen, lpt_order(&plan, remainder), "remainder not LPT");
    assert_eq!(serial, resumed);
    assert_eq!(format!("{serial:?}"), format!("{resumed:?}"));
    assert_eq!(full_report_text(&serial), full_report_text(&resumed));
}

#[test]
fn resume_of_a_completed_journal_reruns_nothing() {
    let dir = TestDir::new("resume-noop");
    let journal_path = dir.file("run.journal");
    let plan = clean_plan(0);
    let sink = JournalSink::create(&journal_path, &plan).unwrap();
    let uninterrupted =
        ScheduledRunner::new(1).run_with(&plan, &EvalPipeline::new(plan.eval().clone()), &sink);
    drop(sink);

    let counting = CountingSink::new();
    let resumed = ScheduledRunner::new(1)
        .resume(
            &plan,
            &journal_path,
            &EvalPipeline::new(plan.eval().clone()),
            &counting,
        )
        .unwrap();
    assert_eq!(counting.completed(), 0, "nothing was left to run");
    assert_eq!(uninterrupted, resumed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole guarantee, drawn over the fault space: crash after any
    /// number of completed samples (including zero), under any worker
    /// count 1..8 on both sides of the crash, with and without repair
    /// rounds — the resumed results and every rendered report are
    /// byte-identical to an uninterrupted serial run.
    #[test]
    fn crashed_run_resumes_byte_identically(
        crash_salt in 0usize..10_000,
        workers in 1usize..8,
        resume_workers in 1usize..8,
        budget_is_2 in any::<bool>(),
    ) {
        let repair_budget = if budget_is_2 { 2 } else { 0 };
        let plan = clean_plan(repair_budget);
        let total = plan.total_samples();
        let allowed = (crash_salt % total) as u64;

        let dir = TestDir::new("resume-prop");
        let journal_path = dir.file("run.journal");
        let crashing = plan_with(
            Arc::new(PanicAfterN::new(Arc::new(SimulatedBackend), allowed)),
            repair_budget,
        );
        run_to_crash(&crashing, &journal_path, workers);

        let serial = serial_reference_of(&plan);
        let resumed = ScheduledRunner::new(resume_workers)
            .resume(&plan, &journal_path, &EvalPipeline::new(plan.eval().clone()), &NullSink)
            .unwrap();
        prop_assert_eq!(&serial, &resumed);
        prop_assert_eq!(
            full_report_text(&serial),
            full_report_text(&resumed),
            "report bytes diverged (crash after {} of {}, {} -> {} workers, budget {})",
            allowed, total, workers, resume_workers, repair_budget
        );
    }
}

#[test]
fn two_crashes_one_journal_still_converges() {
    // Crash, resume into a second crash (appending to the same journal),
    // then resume to completion: the normal arrangement under repeated
    // failures. The journal absorbs both partial runs.
    let dir = TestDir::new("resume-twice");
    let journal_path = dir.file("run.journal");
    run_to_crash(
        &plan_with(Arc::new(PanicAfterN::new(Arc::new(SimulatedBackend), 2)), 0),
        &journal_path,
        3,
    );

    let plan = clean_plan(0);
    let first = journal::scan(&journal_path, &plan).unwrap().completed.len();

    // Second run: resume with an appending sink, crash again after 2 more.
    let crashing = plan_with(Arc::new(PanicAfterN::new(Arc::new(SimulatedBackend), 2)), 0);
    let sink = JournalSink::append(&journal_path, &crashing).unwrap();
    let crashed = with_quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            ScheduledRunner::new(2)
                .resume(
                    &crashing,
                    &journal_path,
                    &EvalPipeline::new(crashing.eval().clone()),
                    &sink,
                )
                .unwrap();
        }))
        .is_err()
    });
    drop(sink);
    assert!(crashed, "second crash did not fire");

    let second = journal::scan(&journal_path, &plan).unwrap().completed.len();
    assert!(
        second > first,
        "second run made no journaled progress ({first} -> {second})"
    );

    let resumed = ScheduledRunner::new(1)
        .resume(
            &plan,
            &journal_path,
            &EvalPipeline::new(plan.eval().clone()),
            &NullSink,
        )
        .unwrap();
    assert_eq!(serial_reference_of(&plan), resumed);
}

/// Truncate or corrupt the journal and check resume recovers the intact
/// prefix and re-runs the rest.
fn assert_degraded_journal_still_resumes(mutate: impl FnOnce(&mut Vec<u8>), tag: &str) {
    let dir = TestDir::new(tag);
    let journal_path = dir.file("run.journal");
    let plan = clean_plan(0);
    let sink = JournalSink::create(&journal_path, &plan).unwrap();
    ScheduledRunner::new(1).run_with(&plan, &EvalPipeline::new(plan.eval().clone()), &sink);
    drop(sink);
    let total = plan.total_samples();
    assert_eq!(
        journal::scan(&journal_path, &plan).unwrap().completed.len(),
        total
    );

    let mut bytes = std::fs::read(&journal_path).unwrap();
    mutate(&mut bytes);
    std::fs::write(&journal_path, &bytes).unwrap();

    let recovered = journal::scan(&journal_path, &plan).unwrap().completed.len();
    assert!(
        recovered < total,
        "{tag}: corruption went unnoticed ({recovered}/{total})"
    );
    let counting = CountingSink::new();
    let resumed = ScheduledRunner::new(1)
        .resume(
            &plan,
            &journal_path,
            &EvalPipeline::new(plan.eval().clone()),
            &counting,
        )
        .unwrap();
    assert_eq!(counting.completed() as usize, total - recovered);
    assert_eq!(
        serial_reference_of(&plan),
        resumed,
        "{tag}: resumed results diverged"
    );
}

#[test]
fn truncation_mid_record_recovers_the_intact_prefix() {
    // Cut inside the last record's payload — a torn write at crash time.
    assert_degraded_journal_still_resumes(|bytes| bytes.truncate(bytes.len() - 11), "resume-torn");
}

#[test]
fn truncation_to_bare_header_resumes_from_scratch() {
    let dir = TestDir::new("resume-header");
    let journal_path = dir.file("run.journal");
    let plan = clean_plan(0);
    let sink = JournalSink::create(&journal_path, &plan).unwrap();
    ScheduledRunner::new(1).run_with(&plan, &EvalPipeline::new(plan.eval().clone()), &sink);
    drop(sink);

    let bytes = std::fs::read(&journal_path).unwrap();
    std::fs::write(&journal_path, &bytes[..24]).unwrap();
    assert_eq!(journal::scan(&journal_path, &plan).unwrap().records, 0);
    let counting = CountingSink::new();
    let resumed = ScheduledRunner::new(1)
        .resume(
            &plan,
            &journal_path,
            &EvalPipeline::new(plan.eval().clone()),
            &counting,
        )
        .unwrap();
    assert_eq!(counting.completed() as usize, plan.total_samples());
    assert_eq!(serial_reference_of(&plan), resumed);
}

#[test]
fn checksum_byte_flip_drops_the_corrupt_suffix_not_the_run() {
    // Flip one payload byte ~60% in: every record before it replays, the
    // flipped one and everything after re-run (replay cannot re-sync past
    // an unframed corruption, and correctness never depends on trying).
    assert_degraded_journal_still_resumes(
        |bytes| {
            let at = bytes.len() * 3 / 5;
            bytes[at] ^= 0x40;
        },
        "resume-flip",
    );
}

#[test]
fn appending_sink_truncates_a_torn_tail() {
    // A crashed append leaves garbage after the last intact record;
    // reopening the journal for append must cut it so the next record
    // starts on a clean frame boundary.
    let dir = TestDir::new("resume-tail");
    let journal_path = dir.file("run.journal");
    let crashing = plan_with(Arc::new(PanicAfterN::new(Arc::new(SimulatedBackend), 4)), 0);
    run_to_crash(&crashing, &journal_path, 2);
    let plan = clean_plan(0);
    let intact = journal::scan(&journal_path, &plan).unwrap().records;

    let mut bytes = std::fs::read(&journal_path).unwrap();
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01]);
    std::fs::write(&journal_path, &bytes).unwrap();

    let sink = JournalSink::append(&journal_path, &plan).unwrap();
    drop(sink);
    assert_eq!(
        std::fs::metadata(&journal_path).unwrap().len(),
        clean_len as u64,
        "torn tail survived reopen"
    );
    assert_eq!(journal::scan(&journal_path, &plan).unwrap().records, intact);

    // And the reopened journal keeps absorbing records: resume through it,
    // then the journal alone reconstructs the full run.
    let sink = JournalSink::append(&journal_path, &plan).unwrap();
    let resumed = ScheduledRunner::new(1)
        .resume(
            &plan,
            &journal_path,
            &EvalPipeline::new(plan.eval().clone()),
            &sink,
        )
        .unwrap();
    drop(sink);
    assert_eq!(serial_reference_of(&plan), resumed);
    assert_eq!(
        journal::scan(&journal_path, &plan).unwrap().completed.len(),
        plan.total_samples()
    );
}

#[test]
fn plan_fingerprint_mismatch_is_a_typed_error() {
    let dir = TestDir::new("resume-mismatch");
    let journal_path = dir.file("run.journal");
    let plan = clean_plan(0);
    let sink = JournalSink::create(&journal_path, &plan).unwrap();
    ScheduledRunner::new(1).run_with(&plan, &EvalPipeline::new(plan.eval().clone()), &sink);
    drop(sink);

    // A different seed and a different repair budget are both different
    // grids: resume refuses each with PlanMismatch, not silent mixing.
    let reseeded = ExperimentPlan::builder()
        .samples(2)
        .seed(7)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .apps(["nanoXOR", "microXOR"])
        .build();
    let rebudgeted = clean_plan(2);
    for other in [&reseeded, &rebudgeted] {
        let err = ScheduledRunner::new(1)
            .resume(
                other,
                &journal_path,
                &EvalPipeline::new(other.eval().clone()),
                &NullSink,
            )
            .unwrap_err();
        assert!(
            matches!(err, JournalError::PlanMismatch { .. }),
            "wanted PlanMismatch, got {err}"
        );
    }

    // Not-a-journal and missing-file are also typed, not panics.
    let garbage = dir.file("garbage.bin");
    std::fs::write(&garbage, b"hello").unwrap();
    assert!(matches!(
        ScheduledRunner::new(1)
            .resume(
                &plan,
                &garbage,
                &EvalPipeline::new(plan.eval().clone()),
                &NullSink
            )
            .unwrap_err(),
        JournalError::NotAJournal { .. }
    ));
    assert!(matches!(
        ScheduledRunner::new(1)
            .resume(
                &plan,
                &dir.file("missing.journal"),
                &EvalPipeline::new(plan.eval().clone()),
                &NullSink
            )
            .unwrap_err(),
        JournalError::Io(_)
    ));
}

#[test]
fn collector_consumes_records_in_one_pass_and_retains_no_duplicates() {
    // The iterator-based collector contract the resume path relies on:
    // each record is pulled from the source exactly once (no second
    // buffered copy of the input), and a journal holding duplicate records
    // (left by crash/append cycles) resumes to exactly total-samples
    // retained records — peak retained = final per-cell total, duplicates
    // dropped in-stream.
    let plan = clean_plan(0);
    let pipeline = EvalPipeline::new(plan.eval().clone());
    let records: Vec<_> = plan
        .sample_specs()
        .iter()
        .map(|s| pipeline.execute(&plan, s))
        .collect();
    let n = records.len();

    let pulled = AtomicU64::new(0);
    let results = ExperimentResults::from_records(
        &plan,
        records.clone().into_iter().inspect(|_| {
            pulled.fetch_add(1, Ordering::Relaxed);
        }),
    );
    assert_eq!(pulled.load(Ordering::Relaxed) as usize, n);
    assert_eq!(
        results,
        ExperimentResults::from_records(&plan, records.clone())
    );

    // Journal every record twice, then resume: retained == total, not 2x.
    let dir = TestDir::new("resume-dup");
    let journal_path = dir.file("run.journal");
    let sink = JournalSink::create(&journal_path, &plan).unwrap();
    for record in &records {
        sink.on_sample(record);
        sink.on_sample(record);
    }
    drop(sink);
    let replay = journal::scan(&journal_path, &plan).unwrap();
    assert_eq!(replay.records as usize, 2 * n);
    assert_eq!(replay.completed.len(), n);
    let resumed = ScheduledRunner::new(1)
        .resume(&plan, &journal_path, &pipeline, &NullSink)
        .unwrap();
    let retained: u64 = resumed.cells.values().map(|c| c.samples()).sum();
    assert_eq!(retained as usize, n);
    assert_eq!(resumed, results);
}
