//! Scheduler-specific behaviour of the runner layer: worker-panic context,
//! degenerate worker/sample shapes on both parallel runners, exactly-once
//! progress delivery under stealing, and scheduling counters.
//!
//! (Byte-identity of scheduled results against serial lives in
//! `tests/determinism.rs`; this file covers everything else the
//! work-stealing rewrite promised.)

use minihpc_lang::model::TranslationPair;
use pareval_core::{
    CountingSink, ExperimentPlan, NullSink, ProgressSink, RoundRobinRunner, Runner, SampleRecord,
    ScheduledRunner, SerialRunner,
};
use pareval_llm::{all_models, Attempt, AttemptSpec, TranslationBackend};
use pareval_repo as _;
use pareval_translate::Technique;
use std::sync::{Arc, Mutex};

/// A backend whose every attempt panics — the stand-in for "a bug anywhere
/// inside one sample's evaluation".
struct PanickingBackend;

impl TranslationBackend for PanickingBackend {
    fn name(&self) -> &'static str {
        "panicking"
    }

    fn start_attempt(&self, _spec: &AttemptSpec<'_>) -> Box<dyn Attempt> {
        panic!("boom");
    }
}

/// One feasible cell (o4-mini × nanoXOR × non-agentic) on the panicking
/// backend, `samples` generations.
fn panicking_plan(samples: u32) -> ExperimentPlan {
    ExperimentPlan::builder()
        .samples(samples)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .techniques([Technique::NonAgentic])
        .models(all_models().into_iter().filter(|m| m.name == "o4-mini"))
        .apps(["nanoXOR"])
        .backend(Arc::new(PanickingBackend))
        .build()
}

// The panic-context contract: a panicking sample still aborts the run, but
// the propagated message names the offending (cell, sample) instead of a
// bare "worker panicked". The two tests pin the two halves of the message
// shape — "sample <i> of cell <CellKey debug>" and the preserved payload.

#[test]
#[should_panic(expected = "sample 0 of cell CellKey")]
fn serial_panic_names_the_offending_sample() {
    SerialRunner.run(&panicking_plan(1));
}

#[test]
#[should_panic(expected = "model: \"o4-mini\", app: \"nanoXOR\" } panicked: boom")]
fn scheduled_panic_preserves_cell_and_payload() {
    ScheduledRunner::new(2).run(&panicking_plan(1));
}

#[test]
#[should_panic(expected = "panicked: boom")]
fn round_robin_panic_preserves_payload() {
    RoundRobinRunner::new(2).run(&panicking_plan(1));
}

/// A 2-cell × 1-sample plan: the smallest grid that still exercises
/// cross-cell scheduling.
fn two_sample_plan() -> ExperimentPlan {
    ExperimentPlan::builder()
        .samples(1)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .techniques([Technique::NonAgentic])
        .models(all_models().into_iter().filter(|m| m.name == "o4-mini"))
        .apps(["nanoXOR", "microXOR"])
        .build()
}

#[test]
fn zero_workers_clamp_to_one_on_every_runner() {
    assert_eq!(ScheduledRunner::new(0).workers(), 1);
    assert_eq!(RoundRobinRunner::new(0).workers(), 1);
    // And a 0-worker request still runs the whole plan.
    let plan = two_sample_plan();
    let serial = SerialRunner.run(&plan);
    assert_eq!(serial, ScheduledRunner::new(0).run(&plan));
    assert_eq!(serial, RoundRobinRunner::new(0).run(&plan));
}

#[test]
fn more_workers_than_samples_is_harmless() {
    let plan = two_sample_plan();
    assert_eq!(plan.total_samples(), 2);
    let serial = SerialRunner.run(&plan);
    for workers in [3, 16] {
        assert_eq!(serial, ScheduledRunner::new(workers).run(&plan));
        assert_eq!(serial, RoundRobinRunner::new(workers).run(&plan));
    }
}

#[test]
fn single_sample_plan_runs_on_both_parallel_runners() {
    let plan = ExperimentPlan::builder()
        .samples(1)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .techniques([Technique::NonAgentic])
        .models(all_models().into_iter().filter(|m| m.name == "o4-mini"))
        .apps(["nanoXOR"])
        .build();
    assert_eq!(plan.total_samples(), 1);
    let serial = SerialRunner.run(&plan);
    for workers in [1, 4] {
        let sink = CountingSink::new();
        assert_eq!(
            serial,
            ScheduledRunner::new(workers).run_with_sink(&plan, &sink)
        );
        assert_eq!(sink.completed(), 1);
        assert_eq!(serial, RoundRobinRunner::new(workers).run(&plan));
    }
}

#[test]
fn empty_plan_yields_empty_results_without_spawning_trouble() {
    // Every cell infeasible: SWE-agent never ran CUDA→offload in the
    // paper, so this plan schedules zero samples.
    let plan = ExperimentPlan::builder()
        .samples(3)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .techniques([Technique::SweAgent])
        .apps(["nanoXOR"])
        .build();
    assert_eq!(plan.total_samples(), 0);
    let serial = SerialRunner.run(&plan);
    assert_eq!(serial, ScheduledRunner::new(4).run(&plan));
    assert_eq!(serial, RoundRobinRunner::new(4).run(&plan));
}

/// Records every `(CellKey, sample_index)` the sink observes.
#[derive(Default)]
struct DeliverySink {
    seen: Mutex<Vec<(pareval_core::CellKey, u32)>>,
}

impl ProgressSink for DeliverySink {
    fn on_sample(&self, record: &SampleRecord) {
        self.seen
            .lock()
            .unwrap()
            .push((record.key, record.sample_index));
    }
}

#[test]
fn stealing_delivers_every_sample_exactly_once() {
    // Count + set equality against the plan's own spec list: nothing
    // dropped, nothing duplicated, whatever got stolen by whom.
    let plan = ExperimentPlan::quick();
    let mut expected: Vec<_> = plan
        .sample_specs()
        .iter()
        .map(|spec| (plan.cells()[spec.cell].key, spec.sample_index))
        .collect();
    expected.sort();
    for workers in [2, 5, 8] {
        let sink = DeliverySink::default();
        ScheduledRunner::new(workers).run_with_sink(&plan, &sink);
        let mut seen = sink.seen.into_inner().unwrap();
        assert_eq!(
            seen.len(),
            plan.total_samples(),
            "{workers} workers: wrong delivery count"
        );
        seen.sort();
        assert_eq!(seen, expected, "{workers} workers: delivery set diverged");
    }
}

#[test]
fn run_with_stats_reports_bounded_scheduling_traffic() {
    let plan = ExperimentPlan::quick();
    let pipeline = pareval_core::EvalPipeline::new(plan.eval().clone());
    let runner = ScheduledRunner::new(4);
    let (results, stats) = runner.run_with_stats(&plan, &pipeline, &NullSink);
    assert_eq!(results, SerialRunner.run(&plan));
    // Each sample is handed out exactly once, so the two acquisition paths
    // together can never exceed the sample count.
    let total = plan.total_samples() as u64;
    assert!(
        stats.steals + stats.injector_refills <= total,
        "{stats:?} exceeds {total} samples"
    );
    assert!(stats.injector_refills > 0, "injector never served a batch");
}
