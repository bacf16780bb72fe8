//! Determinism guarantees of the layered experiment API: the shared-queue
//! runner at any worker count is byte-identical to the serial reference (a
//! plain enumeration-order loop, `common::serial_reference`), the build
//! cache is invisible in the results, and a plan's seed fully determines
//! its results.

mod common;

use common::{serial_reference, serial_reference_of};
use minihpc_build::{build_repo, build_repo_with, BuildRequest, Executable};
use minihpc_lang::model::{ExecutionModel, TranslationPair};
use minihpc_runtime::{run, RunConfig};
use pareval_core::{
    report, BuildCache, CountingSink, EvalConfig, EvalPipeline, ExperimentPlan, ExperimentResults,
    NullSink, ProgressSink, Runner, SampleRecord, ScheduledRunner,
};
use pareval_repo as _;
use pareval_translate::transpile::FileResult;
use pareval_translate::Technique;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// A sink that records completion order, to prove the *stream* may be
/// reordered even though the *results* are not.
#[derive(Default)]
struct OrderSink {
    seen: Mutex<Vec<(String, u32)>>,
}

impl ProgressSink for OrderSink {
    fn on_sample(&self, record: &SampleRecord) {
        self.seen
            .lock()
            .unwrap()
            .push((format!("{:?}", record.key), record.sample_index));
    }
}

#[test]
fn parallel_runners_match_serial_byte_for_byte() {
    let plan = ExperimentPlan::quick();
    let serial = serial_reference_of(&plan);
    for workers in [1, 2, 4, 7] {
        let parallel = ScheduledRunner::new(workers).run(&plan);
        // Structural equality over every retained record...
        assert_eq!(serial, parallel, "{workers} workers diverged from serial");
        // ...and byte identity of the full debug rendering, which covers
        // every build log, token count, and error category verbatim.
        assert_eq!(
            format!("{serial:?}"),
            format!("{parallel:?}"),
            "{workers} workers: debug rendering differs"
        );
    }
}

/// The `quick()` slice with the build cache disabled — `quick()` itself
/// runs with the cache on (the default).
fn quick_uncached() -> ExperimentPlan {
    ExperimentPlan::builder()
        .samples(3)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .apps(["nanoXOR", "microXORh", "microXOR"])
        .eval(EvalConfig {
            max_cases: 1,
            build_cache: false,
            ..EvalConfig::default()
        })
        .build()
}

#[test]
fn cached_parallel_matches_uncached_serial_byte_for_byte() {
    // The default backend + cache + parallel sharding must be invisible:
    // results equal a serial run that never touched the cache.
    let cached = ScheduledRunner::new(4).run(&ExperimentPlan::quick());

    let uncached_pipeline = EvalPipeline::new(quick_uncached().eval().clone());
    let uncached = serial_reference(&quick_uncached(), &uncached_pipeline);
    assert_eq!(
        uncached_pipeline.cache_stats().misses,
        0,
        "reference run must really be uncached"
    );
    assert_eq!(cached, uncached);
    assert_eq!(format!("{cached:?}"), format!("{uncached:?}"));
}

#[test]
fn cached_and_uncached_builds_log_and_print_the_same() {
    // An uncached build parses through a memo of its own, a cached one
    // through the unit cache's: every suite repo must build to the same
    // log and run its first case to the same stdout either way. The cache
    // is shared across repos, as a grid shares it.
    let cache = BuildCache::new();
    for app in pareval_apps::suite() {
        let request = BuildRequest::new(&*app.binary);
        let args = &app.tests[0].args;
        for model in app.available_models() {
            let repo = app.repo(model).unwrap();
            let uncached = build_repo(repo, &request);
            let cached = build_repo_with(repo, &request, Some(&cache));
            let label = format!("{} {model}", app.name);
            assert_eq!(uncached.log.text(), cached.log.text(), "{label}");
            let stdout =
                |exe: &Executable| run(exe, RunConfig::with_args(args.iter().cloned())).stdout;
            let (Some(a), Some(b)) = (&uncached.executable, &cached.executable) else {
                panic!("{label} did not build:\n{}", uncached.log.text());
            };
            assert_eq!(stdout(a), stdout(b), "{label}");
        }
    }
    assert!(
        cache.stats().parses > 0,
        "the cached builds parsed through the cache"
    );
}

#[test]
fn quick_reports_are_unchanged_since_pr2() {
    // Golden capture: tests/golden/quick_reports.txt was generated by the
    // original harness (pre-backend, pre-cache) running serially on
    // `quick()`. The redesigned pipeline — parallel, cached, routed through
    // SimulatedBackend — must reproduce every figure/table byte for byte.
    let results = ScheduledRunner::new(4).run(&ExperimentPlan::quick());
    let mut text = String::new();
    text.push_str(&report::fig2(
        &results,
        TranslationPair::CUDA_TO_OMP_OFFLOAD,
        false,
    ));
    text.push_str(&report::fig2(
        &results,
        TranslationPair::CUDA_TO_OMP_OFFLOAD,
        true,
    ));
    text.push_str(&report::fig3(&results));
    text.push_str(&report::fig4(&results));
    text.push_str(&report::fig5(&results));
    text.push_str(&report::table2(&results));
    assert_eq!(text, include_str!("golden/quick_reports.txt"));
}

/// The `quick()` slice re-run with a repair budget — the golden grid for
/// the per-round report.
fn quick_repaired() -> ExperimentPlan {
    ExperimentPlan::builder()
        .samples(3)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .apps(["nanoXOR", "microXORh", "microXOR"])
        .eval(EvalConfig {
            max_cases: 1,
            repair_budget: 3,
            ..EvalConfig::default()
        })
        .build()
}

#[test]
fn repair_report_matches_golden() {
    // Golden capture of the repair-enabled grid: the per-round
    // build@1/pass@1/token report must stay byte-stable across runners,
    // sharding, and the build cache. Regenerate with UPDATE_GOLDEN=1 after
    // an intentional change.
    let results = ScheduledRunner::new(4).run(&quick_repaired());
    let text = report::repair_report(&results);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/repair_report.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    assert_eq!(
        text,
        std::fs::read_to_string(path).expect("golden missing; rerun with UPDATE_GOLDEN=1"),
        "repair report diverged from tests/golden/repair_report.txt"
    );
}

#[test]
fn incremental_file_cache_is_byte_identical_to_cold() {
    // At workers {1, 4, 8} × repair budgets {0, 3}, a run through the
    // build cache — whose in-memory unit tier is warm across repair rounds
    // and both scorings — is byte-identical to the uncached reference path
    // (`build_cache: false`) on the same plan.
    for budget in [0u32, 3] {
        let plan_for = |build_cache: bool| {
            ExperimentPlan::builder()
                .samples(3)
                .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
                .apps(["nanoXOR", "microXORh", "microXOR"])
                .eval(EvalConfig {
                    max_cases: 1,
                    repair_budget: budget,
                    build_cache,
                    ..EvalConfig::default()
                })
                .build()
        };
        let cold = serial_reference_of(&plan_for(false));
        for workers in [1usize, 4, 8] {
            let plan = plan_for(true);
            let pipeline = EvalPipeline::new(plan.eval().clone());
            let incremental = ScheduledRunner::new(workers).run_with(&plan, &pipeline, &NullSink);
            assert_eq!(
                cold, incremental,
                "file-granular cache changed results at {workers} workers, budget {budget}"
            );
            assert_eq!(format!("{cold:?}"), format!("{incremental:?}"));
            let stats = pipeline.cache_stats();
            assert!(
                stats.file_hits > 0,
                "the unit tier never engaged at {workers} workers, budget {budget}: {stats:?}"
            );
            // Work-counter pin: one serial worker makes the unit tier's
            // traffic deterministic, so the exact replay/compile split is
            // fixed — 20 cold compiles, replayed 47 times across repair
            // rounds and Code-only scorings.
            if workers == 1 && budget == 3 {
                assert_eq!(
                    (stats.file_hits, stats.file_misses),
                    (47, 20),
                    "unit-tier work changed: {stats:?}"
                );
            }
        }
    }
}

#[test]
fn repair_heavy_grid_runs_each_reference_once() {
    // The repair-heavy grid's shape: every candidate that runs cleanly is
    // compared against its app's first case, across repair rounds and both
    // scorings, yet each app's reference is built and run at most once.
    let plan = ExperimentPlan::builder()
        .samples(5)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .techniques([Technique::NonAgentic, Technique::TopDownAgentic])
        .apps(["SimpleMOC-kernel", "XSBench", "llm.c"])
        .eval(EvalConfig {
            max_cases: 1,
            repair_budget: 3,
            analyze: true,
            ..EvalConfig::default()
        })
        .build();
    let pipeline = EvalPipeline::new(plan.eval().clone());
    ScheduledRunner::new(1).run_with(&plan, &pipeline, &NullSink);
    let cold: Vec<(&str, usize)> = plan
        .tasks()
        .iter()
        .map(|t| (&*t.app.name, t.app.cold_reference_runs()))
        .collect();
    // No SimpleMOC-kernel candidate runs cleanly on this grid, so its
    // reference never runs at all.
    assert_eq!(
        cold,
        [("SimpleMOC-kernel", 0), ("XSBench", 1), ("llm.c", 1)],
        "reference work changed"
    );
    // Work-counter pin: the cold outcomes run 4 programs, each once. The
    // builds that list the same objects in another order link one program,
    // since the linker keeps one copy of each header macro every object
    // defines alike. It was 8 runs when the key named globals by their
    // objects' unit keys in link order, and 5 when it named each object's
    // globals list: XSBench's `materials.o` adds a macro the other objects
    // lack, so its two orders concatenated different lists.
    let stats = pipeline.cache_stats();
    assert_eq!(stats.runs, 4, "cold test runs: {stats:?}");
}

#[test]
fn paper_grid_transpiles_each_distinct_file_once() {
    // Work-counter pin: on `full(5)` the simulated backend asks for 2,970
    // file transpiles and top-down asks for 365 dependency orders, but
    // they come from 67 distinct (repo, pair, path, text) inputs and one
    // include scan per source repo, each memoised on the app's shared
    // source repo. Two workers do the same work: a worker that asks for a
    // result the other is deriving waits for it instead of deriving it
    // again. The same holds for cold outcome evaluations, cold parses,
    // cold test runs and cold reference runs, which must not depend on the
    // worker count.
    let mut work_at = Vec::new();
    for workers in [1, 2] {
        let plan = ExperimentPlan::full(5);
        let pipeline = EvalPipeline::new(plan.eval().clone());
        ScheduledRunner::new(workers).run_with(&plan, &pipeline, &NullSink);
        let references: BTreeMap<String, usize> = plan
            .tasks()
            .iter()
            .map(|t| (t.app.name.to_string(), t.app.cold_reference_runs()))
            .collect();
        let stats = pipeline.cache_stats();
        work_at.push((workers, stats.misses, stats.parses, stats.runs, references));
        let mut per_repo: BTreeMap<(&str, ExecutionModel), (usize, usize)> = BTreeMap::new();
        for task in plan.tasks() {
            let repo = task.app.repo(task.pair.from).expect("task's source repo");
            per_repo.insert(
                (&task.app.name, task.pair.from),
                (
                    repo.cold_derivations::<FileResult>(),
                    repo.cold_derivations::<Vec<String>>(),
                ),
            );
        }
        let transpiles: usize = per_repo.values().map(|&(t, _)| t).sum();
        assert_eq!(
            transpiles, 67,
            "transpile work changed at {workers} workers: {per_repo:?}"
        );

        let top_down: BTreeSet<(&str, ExecutionModel)> = plan
            .cells()
            .iter()
            .filter(|c| c.feasible && c.key.technique == Technique::TopDownAgentic)
            .map(|c| {
                let task = plan.task_of(c);
                (&*task.app.name, task.pair.from)
            })
            .collect();
        for (repo, &(_, orders)) in &per_repo {
            let expected = usize::from(top_down.contains(repo));
            assert_eq!(
                orders, expected,
                "dependency orders of {repo:?} at {workers} workers"
            );
        }
    }
    let (serial, parallel) = (&work_at[0], &work_at[1]);
    assert_eq!(
        (serial.1, serial.2, serial.3, &serial.4),
        (parallel.1, parallel.2, parallel.3, &parallel.4),
        "cold outcome evaluations, parses, test runs or reference runs at (workers, misses, parses, runs, per-app references) {serial:?} vs {parallel:?}"
    );
}

#[test]
fn paper_grid_runs_each_distinct_program_once() {
    // Work-counter pin: `full(5)` at plan seed 0 evaluates 30 test runs
    // across its cold outcomes, but most Code-only builds link the same
    // program as their Overall build, with objects listed in another
    // order. The run memo, keyed by the program's content, runs the 16
    // distinct programs once each. That the run count does not depend on
    // the worker count is checked on `full(5)` in
    // `paper_grid_transpiles_each_distinct_file_once`.
    let plan = ExperimentPlan::builder().samples(5).seed(0).build();
    let pipeline = EvalPipeline::new(plan.eval().clone());
    ScheduledRunner::new(1).run_with(&plan, &pipeline, &NullSink);
    let stats = pipeline.cache_stats();
    assert_eq!(stats.runs, 16, "cold test runs: {stats:?}");
}

#[test]
fn same_seed_same_results() {
    let run = |seed: u64| {
        serial_reference_of(
            &ExperimentPlan::builder()
                .samples(2)
                .seed(seed)
                .pairs([minihpc_lang::model::TranslationPair::CUDA_TO_OMP_OFFLOAD])
                .apps(["nanoXOR", "microXOR"])
                .build(),
        )
    };
    assert_eq!(run(99), run(99));
    assert_ne!(
        format!("{:?}", run(99)),
        format!("{:?}", run(100)),
        "different seeds should perturb at least one sample"
    );
}

/// Every figure/table the harness can render for `results`, concatenated —
/// the byte-identity surface the scheduler proptest compares.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The shared-queue scheduler is invisible in the results: for any
    /// worker count in 1..8, with or without repair rounds, with or
    /// without the build cache, `ScheduledRunner` output — and every
    /// rendered report — is byte-identical to the serial reference on the same
    /// plan, even though which worker runs what is timing-dependent.
    #[test]
    fn scheduled_runner_matches_serial_byte_for_byte(
        workers in 1usize..8,
        budget_is_2 in any::<bool>(),
        cache in any::<bool>(),
    ) {
        let repair_budget = if budget_is_2 { 2 } else { 0 };
        let plan = ExperimentPlan::builder()
            .samples(2)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .apps(["nanoXOR", "microXOR"])
            .eval(EvalConfig {
                max_cases: 1,
                repair_budget,
                build_cache: cache,
                ..EvalConfig::default()
            })
            .build();
        let serial = serial_reference_of(&plan);
        let scheduled = ScheduledRunner::new(workers).run(&plan);
        prop_assert_eq!(&serial, &scheduled);
        prop_assert_eq!(
            format!("{serial:?}"),
            format!("{scheduled:?}"),
            "debug rendering diverged at {} workers (budget {}, cache {})",
            workers,
            repair_budget,
            cache
        );
        prop_assert_eq!(full_report_text(&serial), full_report_text(&scheduled));
    }
}

#[test]
fn every_scheduled_sample_is_observed_exactly_once() {
    let plan = ExperimentPlan::quick();
    let counting = CountingSink::new();
    ScheduledRunner::new(4).run_with_sink(&plan, &counting);
    assert_eq!(counting.completed() as usize, plan.total_samples());

    let order = OrderSink::default();
    ScheduledRunner::new(4).run_with_sink(&plan, &order);
    let mut seen = order.seen.into_inner().unwrap();
    assert_eq!(seen.len(), plan.total_samples());
    seen.sort();
    seen.dedup();
    assert_eq!(
        seen.len(),
        plan.total_samples(),
        "a (cell, sample) unit was observed more than once"
    );
}
