//! Scheduler-specific behaviour of the runner layer: worker-panic context,
//! degenerate worker/sample shapes, exactly-once progress delivery from
//! the shared LPT queue, and scheduling counters.
//!
//! (Byte-identity of scheduled results against the serial reference at
//! every worker count lives in `tests/determinism.rs`; this file covers
//! everything else the shared-queue runner promises.)

mod common;

use common::{lpt_order, serial_reference, serial_reference_of, DeliverySink};
use minihpc_lang::model::TranslationPair;
use pareval_core::{CountingSink, ExperimentPlan, NullSink, Runner, SchedStats, ScheduledRunner};
use pareval_llm::{all_models, Attempt, AttemptSpec, TranslationBackend};
use pareval_repo as _;
use pareval_translate::Technique;
use std::sync::Arc;

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
// shape — "sample <i> of cell <CellKey debug>" and the preserved payload —
// on one worker and on several.

#[test]
#[should_panic(expected = "sample 0 of cell CellKey")]
fn serial_panic_names_the_offending_sample() {
    ScheduledRunner::new(1).run(&panicking_plan(1));
}

#[test]
#[should_panic(expected = "model: \"o4-mini\", app: \"nanoXOR\" } panicked: boom")]
fn scheduled_panic_preserves_cell_and_payload() {
    ScheduledRunner::new(2).run(&panicking_plan(1));
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
fn zero_workers_clamp_to_one() {
    assert_eq!(ScheduledRunner::new(0).workers(), 1);
    assert!(ScheduledRunner::auto().workers() >= 1);
    // And a 0-worker request still runs the whole plan.
    let plan = two_sample_plan();
    assert_eq!(
        serial_reference_of(&plan),
        ScheduledRunner::new(0).run(&plan)
    );
}

#[test]
fn more_workers_than_samples_is_harmless() {
    let plan = two_sample_plan();
    assert_eq!(plan.total_samples(), 2);
    let serial = serial_reference_of(&plan);
    for workers in [3, 16] {
        assert_eq!(serial, ScheduledRunner::new(workers).run(&plan));
    }
}

#[test]
fn single_sample_plan_runs_on_one_and_many_workers() {
    // On one worker and on several.
    let plan = ExperimentPlan::builder()
        .samples(1)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .techniques([Technique::NonAgentic])
        .models(all_models().into_iter().filter(|m| m.name == "o4-mini"))
        .apps(["nanoXOR"])
        .build();
    assert_eq!(plan.total_samples(), 1);
    let serial = serial_reference_of(&plan);
    for workers in [1, 4] {
        let sink = CountingSink::new();
        assert_eq!(
            serial,
            ScheduledRunner::new(workers).run_with_sink(&plan, &sink)
        );
        assert_eq!(sink.completed(), 1);
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
    let serial = serial_reference_of(&plan);
    for workers in [1, 4] {
        assert_eq!(serial, ScheduledRunner::new(workers).run(&plan));
    }
}

#[test]
fn every_sample_is_delivered_exactly_once() {
    // Count + set equality against the plan's own spec list: nothing
    // dropped, nothing duplicated, whichever worker claimed what. One
    // worker claims the whole queue in order, so there the delivery order
    // itself pins LPT order.
    let plan = ExperimentPlan::quick();
    let lpt = lpt_order(&plan, plan.sample_specs());
    let mut expected = lpt.clone();
    expected.sort();
    for workers in [1, 2, 5, 8] {
        let sink = DeliverySink::default();
        ScheduledRunner::new(workers).run_with_sink(&plan, &sink);
        let mut seen = sink.seen.into_inner().unwrap();
        assert_eq!(
            seen.len(),
            plan.total_samples(),
            "{workers} workers: wrong delivery count"
        );
        if workers == 1 {
            assert_eq!(seen, lpt, "one worker: delivery order is not LPT");
        }
        seen.sort();
        assert_eq!(seen, expected, "{workers} workers: delivery set diverged");
    }
}

#[test]
fn run_with_stats_matches_run_with_in_both_collection_modes() {
    let plan = ExperimentPlan::quick();
    let pipeline = pareval_core::EvalPipeline::new(plan.eval().clone());
    let runner = ScheduledRunner::new(4);
    let (results, stats) = runner.run_with_stats(&plan, &pipeline, &NullSink);
    assert_eq!(results, serial_reference(&plan, &pipeline));
    // One shared queue: nothing is ever stolen.
    assert_eq!(stats, SchedStats::default());

    // A streaming plan goes through the same collector: its results equal
    // `run_with`'s, its folded stats equal the buffered run's, and no raw
    // record is retained.
    let streaming = ExperimentPlan::builder()
        .samples(3)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .apps(["nanoXOR", "microXORh", "microXOR"])
        .streaming(true)
        .build();
    let pipeline = pareval_core::EvalPipeline::new(streaming.eval().clone());
    let (streamed, _) = runner.run_with_stats(&streaming, &pipeline, &NullSink);
    assert_eq!(streamed, runner.run_with(&streaming, &pipeline, &NullSink));
    assert_eq!(streamed.cells.len(), results.cells.len());
    for (key, cell) in &streamed.cells {
        assert_eq!(cell.stats(), results.cells[key].stats(), "{key:?}");
        assert!(cell.records().is_empty(), "{key:?}");
    }
}
