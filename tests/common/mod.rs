//! Shared helpers for the integration test suites: scratch directories and
//! quiet panics for the durability suites (`tests/resume.rs`,
//! `tests/disk_cache.rs`), the independent serial reference the
//! determinism suites compare the runner against, and the delivery
//! recorder the scheduler and resume suites pin LPT order with.
//!
//! Each integration-test binary compiles its own copy and uses a different
//! subset, so unused-item lints are off for the whole module.
#![allow(dead_code)]

use pareval_core::{
    CellKey, EvalPipeline, ExperimentPlan, ExperimentResults, ProgressSink, SampleRecord,
    SampleSpec,
};
use std::cmp::Reverse;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A unique scratch directory under the system temp dir, removed on drop.
/// (The workspace vendors its few dependencies, so no `tempfile` crate —
/// process id + a global counter keep concurrent test binaries apart.)
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    pub fn new(tag: &str) -> TestDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "pareval-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create test dir");
        TestDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Run `f` with the default panic hook silenced, restoring it afterwards —
/// the fault-injection tests unwind on purpose dozens of times and the
/// backtrace spam would drown real failures. Serialized by a lock so
/// parallel tests don't race on the global hook.
pub fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    let guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(hook);
    drop(guard);
    result
}

/// The reference result of `plan`, computed without the runner: a plain
/// loop over `plan.sample_specs()` in enumeration order, each spec through
/// [`EvalPipeline::execute`], collected by
/// [`ExperimentResults::from_records`]. No threads, no cost-hint sort, no
/// sink — so a scheduler bug cannot hide in both sides of a comparison.
pub fn serial_reference(plan: &ExperimentPlan, pipeline: &EvalPipeline) -> ExperimentResults {
    let specs = plan.sample_specs();
    let records = specs.iter().map(|spec| pipeline.execute(plan, spec));
    ExperimentResults::from_records(plan, records)
}

/// [`serial_reference`] through a fresh pipeline built from the plan's
/// `EvalConfig`.
pub fn serial_reference_of(plan: &ExperimentPlan) -> ExperimentResults {
    serial_reference(plan, &EvalPipeline::new(plan.eval().clone()))
}

/// Records every `(CellKey, sample_index)` the sink observes, in delivery
/// order.
#[derive(Default)]
pub struct DeliverySink {
    pub seen: Mutex<Vec<(CellKey, u32)>>,
}

impl ProgressSink for DeliverySink {
    fn on_sample(&self, record: &SampleRecord) {
        self.seen
            .lock()
            .unwrap()
            .push((record.key, record.sample_index));
    }
}

/// The order a one-worker `ScheduledRunner` delivers `specs` in: LPT
/// seeding, a stable sort by descending `cost_hint`, so equal hints keep
/// the given order.
pub fn lpt_order(plan: &ExperimentPlan, mut specs: Vec<SampleSpec>) -> Vec<(CellKey, u32)> {
    specs.sort_by_key(|spec| Reverse(spec.cost_hint));
    specs
        .iter()
        .map(|spec| (plan.cells()[spec.cell].key, spec.sample_index))
        .collect()
}
