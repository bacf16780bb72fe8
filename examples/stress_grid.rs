//! Thousand-cell generated-grid stress run:
//!
//! 1. expand the suite with ~100 `minihpc-gen` synthetic applications via
//!    `pareval_apps::suite_with_generated` (Clean error profile, OpenMP
//!    threads pragma model, Make build system — the grid-registrable
//!    subset of the generator's knob space),
//! 2. run the resulting ≥1000-cell threads→offload grid through
//!    [`ScheduledRunner`] at 1, 4, and 8 workers, each run in streaming
//!    aggregation mode with a journal and a disk-backed build cache,
//! 3. assert the three runs' results are byte-identical, that no raw
//!    records were retained, and that peak in-flight records stayed
//!    bounded by the worker count.
//!
//! Run with: `cargo run --release --example stress_grid`
//! (`make examples` runs it; a failed assert is a non-zero exit.)

use minihpc_gen::{GenSpec, KernelKind};
use minihpc_lang::model::TranslationPair;
use pareval_core::{
    EvalConfig, EvalPipeline, ExperimentPlan, ExperimentResults, JournalSink, ProgressSink, Runner,
    SampleRecord, ScheduledRunner,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How many synthetic applications to register. 100 apps × 1 pair ×
/// 3 techniques × 5 models = 1500 cells.
const GENERATED_APPS: u64 = 100;

/// The grid-registrable corner of the generator's knob space: every spec
/// here must build and run clean (the registry derives ground-truth output
/// from the repo), so error profiles stay `Clean`; file counts and kernel
/// mixes rotate with the seed for cost heterogeneity.
fn stress_specs() -> Vec<GenSpec> {
    (0..GENERATED_APPS)
        .map(|i| {
            let spec = GenSpec::new(0xC0DE_0000 + i).with_files(1 + (i as usize % 4));
            match i % 3 {
                0 => spec, // kernel kinds drawn from the seed
                1 => spec.with_kernels([KernelKind::Stencil, KernelKind::Reduction]),
                _ => spec.with_kernels([KernelKind::GemmLike, KernelKind::MemcpyBound]),
            }
        })
        .collect()
}

fn stress_plan(specs: &[GenSpec], disk_cache: &Path) -> ExperimentPlan {
    let generated = pareval_apps::suite_with_generated(specs)
        .into_iter()
        .filter(|app| app.gen_digest.is_some());
    ExperimentPlan::builder()
        .samples(1)
        .pairs([TranslationPair::OMP_THREADS_TO_OFFLOAD])
        .apps(["XSBench"])
        .extend_apps(generated)
        .eval(EvalConfig {
            max_cases: 1,
            disk_cache_dir: Some(disk_cache.to_path_buf()),
            ..EvalConfig::default()
        })
        .streaming(true)
        .build()
}

/// Forwards to the journal while tracking how many records are in flight
/// (alive between creation and the end of their `on_sample` delivery) —
/// the streaming-mode guarantee under test is that this peak is bounded by
/// the worker count, not the 1500-sample grid.
struct GaugeSink<'a> {
    inner: &'a dyn ProgressSink,
    in_flight: AtomicU64,
    peak: AtomicU64,
}

impl<'a> GaugeSink<'a> {
    fn new(inner: &'a dyn ProgressSink) -> Self {
        GaugeSink {
            inner,
            in_flight: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

impl ProgressSink for GaugeSink<'_> {
    fn on_sample(&self, record: &SampleRecord) {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        self.inner.on_sample(record);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

struct RunOutcome {
    results: ExperimentResults,
    peak_in_flight: u64,
    hit_rate: f64,
    secs: f64,
}

fn run_once(specs: &[GenSpec], workers: usize, scratch: &Path) -> RunOutcome {
    let disk_cache = scratch.join(format!("cache-{workers}"));
    let journal = scratch.join(format!("run-{workers}.journal"));
    let plan = stress_plan(specs, &disk_cache);
    let pipeline = EvalPipeline::new(plan.eval().clone());
    let sink = JournalSink::create(&journal, &plan).expect("create journal");
    let gauge = GaugeSink::new(&sink);
    let start = Instant::now();
    let results = ScheduledRunner::new(workers).run_with(&plan, &pipeline, &gauge);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(
        sink.records_written() as usize,
        plan.total_samples(),
        "journal missed samples"
    );
    RunOutcome {
        results,
        peak_in_flight: gauge.peak(),
        hit_rate: pipeline.cache_stats().hit_rate(),
        secs,
    }
}

fn main() {
    let scratch = std::env::temp_dir().join(format!("pareval-stress-grid-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    let specs = stress_specs();
    let plan = stress_plan(&specs, &scratch.join("probe"));
    let cells = plan.cells().len();
    let samples = plan.total_samples();
    println!("grid: {cells} cells, {samples} samples, streaming aggregation on");
    assert!(
        cells >= 1000,
        "stress grid must span >=1000 cells, got {cells}"
    );

    let worker_counts = [1usize, 4, 8];
    let mut outcomes = Vec::new();
    for &workers in &worker_counts {
        let outcome = run_once(&specs, workers, &scratch);
        println!(
            "workers={workers}: {:.1} cells/s, peak in-flight records {}, cache hit rate {:.3}",
            cells as f64 / outcome.secs,
            outcome.peak_in_flight,
            outcome.hit_rate,
        );
        assert!(
            outcome.peak_in_flight <= workers as u64,
            "streaming retained {} records at once with {workers} workers",
            outcome.peak_in_flight
        );
        outcomes.push((workers, outcome));
    }

    // Determinism: completion order and worker count must not leak into
    // the aggregated results.
    let (_, baseline) = &outcomes[0];
    for (workers, outcome) in &outcomes[1..] {
        assert_eq!(
            baseline.results, outcome.results,
            "results diverged at {workers} workers"
        );
        assert_eq!(
            format!("{:?}", baseline.results),
            format!("{:?}", outcome.results),
            "debug rendering diverged at {workers} workers"
        );
    }

    // Streaming kept sufficient statistics only: every feasible cell
    // answers rate queries but retains zero raw records.
    let sample_cell = baseline
        .results
        .cells
        .values()
        .find(|c| c.feasible())
        .expect("no feasible cell");
    assert!(sample_cell.records().is_empty());
    let retained: usize = baseline
        .results
        .cells
        .values()
        .map(|c| c.records().len())
        .sum();
    assert_eq!(retained, 0, "streaming run retained raw records");

    let _ = std::fs::remove_dir_all(&scratch);

    let (_, eight) = outcomes.last().expect("outcomes");
    println!(
        "{cells} cells byte-identical across workers {:?}; peak in-flight records {}",
        worker_counts, eight.peak_in_flight
    );
}
