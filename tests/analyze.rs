//! The static race/directive analyzer as a first-class eval metric:
//! injected-race grids are flagged, oracle grids are clean, the verdict is
//! deterministic and journal-stable, and the runtime's shared-write
//! recorder confirms the static verdict has no false negatives on the
//! checked-in grid.

mod common;

use common::TestDir;
use minihpc_build::{build_repo, BuildRequest};
use minihpc_lang::model::TranslationPair;
use minihpc_runtime::{run, RunConfig};
use pareval_core::{
    journal, report, BuildCache, EvalConfig, EvalPipeline, ExperimentPlan, NullSink, Runner,
    ScheduledRunner,
};
use pareval_llm::{
    all_models, model_by_name, AttemptSpec, OracleBackend, SimulatedBackend, TranslationBackend,
};
use pareval_repo as _;
use pareval_translate::{translate_with, Technique, TranslationJob};
use proptest::prelude::*;
use std::sync::{Arc, LazyLock};

/// The injected-race grid: o4-mini with `race_rate` 1.0 on the one cell
/// whose translations carry a `reduction` clause end to end (XSBench,
/// OpenMP threads → offload). Every sample builds with the clause dropped.
fn injected_plan(samples: u32) -> ExperimentPlan {
    ExperimentPlan::builder()
        .samples(samples)
        .pairs([TranslationPair::OMP_THREADS_TO_OFFLOAD])
        .techniques([Technique::NonAgentic])
        .models(
            all_models()
                .into_iter()
                .filter(|m| m.name == "o4-mini")
                .map(|m| m.with_race_rate(1.0)),
        )
        .apps(["XSBench"])
        .eval(EvalConfig {
            max_cases: 1,
            analyze: true,
            ..EvalConfig::default()
        })
        .build()
}

#[test]
fn injected_races_are_flagged_statically() {
    let results = ScheduledRunner::new(1).run(&injected_plan(4));
    let mut racy_samples = 0;
    for cell in results.cells.values() {
        for record in cell.records() {
            let r = &record.result;
            let overall = r.overall.as_ref().expect("feasible sample");
            assert!(overall.built, "race injection must not break the build");
            assert!(
                r.analysis.iter().any(|f| f.is_error()),
                "sample {} built racy but analysis is clean: {:?}",
                record.sample_index,
                r.analysis
            );
            assert!(!r.race_free(), "racy sample counted as race-free");
            racy_samples += 1;
        }
        assert_eq!(cell.race_free_samples(), 0);
        assert_eq!(cell.race_free_at_k(1), 0.0);
    }
    assert!(racy_samples > 0, "grid produced no samples");
    assert!(
        results
            .race_finding_counts()
            .keys()
            .any(|(m, _)| m == "o4-mini"),
        "no findings attributed to the injected model"
    );
}

#[test]
fn oracle_grid_is_race_clean() {
    // The ground-truth translations must not trip the analyzer: its
    // error rules encode real directive bugs, not style.
    let plan = ExperimentPlan::builder()
        .samples(1)
        .backend(Arc::new(OracleBackend))
        .eval(EvalConfig {
            max_cases: 1,
            analyze: true,
            ..EvalConfig::default()
        })
        .build();
    let results = ScheduledRunner::new(1).run(&plan);
    let mut built = 0;
    for (key, cell) in &results.cells {
        for record in cell.records() {
            let r = &record.result;
            if r.overall.as_ref().is_some_and(|o| o.built) {
                built += 1;
                assert!(
                    !r.analysis.iter().any(|f| f.is_error()),
                    "{key:?}: oracle translation flagged racy: {:?}",
                    r.analysis
                );
            }
        }
    }
    assert!(built > 0, "oracle grid built nothing");
}

/// Mirrors the front half of `EvalPipeline::run_sample` for one simulated
/// sample: attempt → technique → translated repo.
fn translated_repo(seed: u64, sample: u32) -> minihpc_lang::repo::SourceRepo {
    let task = pareval_core::all_tasks()
        .into_iter()
        .find(|t| t.app.name == "XSBench" && t.pair == TranslationPair::OMP_THREADS_TO_OFFLOAD)
        .unwrap();
    let model = model_by_name("o4-mini").unwrap().with_race_rate(1.0);
    let source_repo = Arc::new(task.app.repo(task.pair.from).unwrap().clone());
    let spec = AttemptSpec {
        model: &model,
        technique: Technique::NonAgentic,
        pair: task.pair,
        app_name: &task.app.name,
        source_repo: Arc::clone(&source_repo),
        seed,
        sample,
    };
    let mut attempt = SimulatedBackend.start_attempt(&spec);
    let job = TranslationJob {
        app_name: &task.app.name,
        binary: &task.app.binary,
        source_repo: &source_repo,
        pair: task.pair,
        cli_spec: &task.app.cli_spec,
        build_spec: &task.app.build_spec,
    };
    translate_with(Technique::NonAgentic, &job, &mut attempt)
        .repo
        .expect("injected-race sample still translates")
}

#[test]
fn dynamic_recorder_confirms_no_static_false_negatives() {
    // Cross-validation: build each injected-race translation and execute
    // it under the per-worker OpenMP schedule with the shared-write
    // recorder on. Every sample where the recorder observes a cross-thread
    // conflict must carry an error-severity static finding — the static
    // verdict has no false negatives on this grid.
    let task = pareval_core::all_tasks()
        .into_iter()
        .find(|t| t.app.name == "XSBench" && t.pair == TranslationPair::OMP_THREADS_TO_OFFLOAD)
        .unwrap();
    let case = &task.app.tests[0];
    let mut dynamic_races = 0;
    for sample in 0..4 {
        let repo = translated_repo(20250908, sample);
        let findings = minihpc_analyze::analyze_repo(&repo);
        let outcome = build_repo(&repo, &BuildRequest::new(&*task.app.binary));
        let exe = outcome.executable.expect("racy translation still builds");
        let mut cfg = RunConfig::with_args(case.args.iter().cloned());
        cfg.parallel = true;
        cfg.workers = 4;
        cfg.record_shared_writes = true;
        let r = run(&exe, cfg);
        if !r.races.is_empty() {
            dynamic_races += 1;
            assert!(
                findings.iter().any(|f| f.is_error()),
                "sample {sample}: dynamic race {:?} missed statically",
                r.races
            );
        }
    }
    assert!(
        dynamic_races > 0,
        "recorder never observed a conflict; cross-validation is vacuous"
    );
}

/// The injected-race grid with the repair loop on, blind or guided.
fn repair_plan(samples: u32, guided: bool) -> ExperimentPlan {
    ExperimentPlan::builder()
        .samples(samples)
        .pairs([TranslationPair::OMP_THREADS_TO_OFFLOAD])
        .techniques([Technique::NonAgentic])
        .models(
            all_models()
                .into_iter()
                .filter(|m| m.name == "o4-mini")
                .map(|m| m.with_race_rate(1.0)),
        )
        .apps(["XSBench"])
        .eval(EvalConfig {
            max_cases: 1,
            analyze: true,
            repair_budget: 3,
            repair_guided: guided,
            ..EvalConfig::default()
        })
        .build()
}

#[test]
fn guided_repair_applies_fixits_and_ends_race_free() {
    // Every injected sample drops a reduction clause; the analyzer's
    // high-confidence fix-it restores it, so guided repair must end every
    // sample race-free in exactly one round — no probability roll.
    let results = ScheduledRunner::new(1).run(&repair_plan(4, true));
    let mut samples = 0;
    for cell in results.cells.values() {
        for record in cell.records() {
            let r = &record.result;
            samples += 1;
            assert!(
                r.race_free(),
                "guided repair left sample racy: {:?}",
                r.analysis
            );
            let last = r
                .rounds
                .last()
                .expect("racy sample entered the repair loop");
            assert_eq!(last.round, 1, "guided repair took more than one round");
            assert!(!last.gave_up);
        }
        assert_eq!(cell.race_free_at_k(1), 1.0);
        assert_eq!(
            cell.fixit_count(),
            0,
            "post-repair analysis still carries fix-its"
        );
    }
    assert!(samples > 0, "grid produced no samples");

    // Blind repair on the same grid is the control: it may or may not fix
    // each sample (per-category probability), but it can never beat the
    // guided run's deterministic single round.
    let blind = ScheduledRunner::new(1).run(&repair_plan(4, false));
    let blind_race_free: u64 = blind.cells.values().map(|c| c.race_free_samples()).sum();
    assert!(
        blind_race_free <= samples,
        "blind repair fixed more samples than exist"
    );
}

#[test]
fn guided_repair_is_deterministic_and_journal_stable() {
    // Same plan, twice: guided repair's fix-it application is pure, so the
    // runs are byte-identical; and a guided run's journal resumes to the
    // same results, fix-its riding the finding codec.
    let plan = repair_plan(2, true);
    let first = ScheduledRunner::new(1).run(&plan);
    let second = ScheduledRunner::new(4).run(&plan);
    assert_eq!(first, second);
    assert_eq!(format!("{first:?}"), format!("{second:?}"));

    let dir = TestDir::new("guided-journal");
    let journal_path = dir.file("run.journal");
    let sink = journal::JournalSink::create(&journal_path, &plan).unwrap();
    let journaled =
        ScheduledRunner::new(1).run_with(&plan, &EvalPipeline::new(plan.eval().clone()), &sink);
    drop(sink);
    let resumed = ScheduledRunner::new(1)
        .resume(
            &plan,
            &journal_path,
            &EvalPipeline::new(plan.eval().clone()),
            &NullSink,
        )
        .unwrap();
    assert_eq!(journaled, resumed);
    assert_eq!(format!("{journaled:?}"), format!("{resumed:?}"));
}

#[test]
fn journaled_fixits_roundtrip() {
    // A blind analyzer-on run keeps its findings (and their fix-its) in
    // the final result; the journal codec must carry both verbatim.
    let dir = TestDir::new("fixit-journal");
    let journal_path = dir.file("run.journal");
    let plan = injected_plan(2);
    let sink = journal::JournalSink::create(&journal_path, &plan).unwrap();
    let live =
        ScheduledRunner::new(1).run_with(&plan, &EvalPipeline::new(plan.eval().clone()), &sink);
    drop(sink);
    let resumed = ScheduledRunner::new(1)
        .resume(
            &plan,
            &journal_path,
            &EvalPipeline::new(plan.eval().clone()),
            &NullSink,
        )
        .unwrap();
    assert_eq!(live, resumed);
    let mut fixits = 0;
    for cell in resumed.cells.values() {
        assert_eq!(cell.fixit_count() as usize, {
            cell.records()
                .iter()
                .flat_map(|r| &r.result.analysis)
                .filter(|f| f.fixit.is_some())
                .count()
        });
        for record in cell.records() {
            for f in &record.result.analysis {
                if let Some(fx) = &f.fixit {
                    fixits += 1;
                    assert!(!fx.title.is_empty());
                    assert_eq!(fx.file, f.file, "fix-it drifted to another file");
                }
            }
        }
    }
    assert!(fixits > 0, "journal round-trip dropped every fix-it");
}

#[test]
fn race_report_matches_golden() {
    // Golden capture of the analyzer report on the injected-race grid.
    // Regenerate with UPDATE_GOLDEN=1 after an intentional change.
    let results = ScheduledRunner::new(4).run(&injected_plan(3));
    let text = report::race_report(&results);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/analyze_report.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    assert_eq!(
        text,
        std::fs::read_to_string(path).expect("golden missing; rerun with UPDATE_GOLDEN=1"),
        "analyzer report diverged from tests/golden/analyze_report.txt"
    );
}

#[test]
fn journaled_findings_survive_resume() {
    // Findings ride the journal codec: a completed analyzer-on journal
    // resumes to byte-identical results, re-running nothing.
    let dir = TestDir::new("analyze-journal");
    let journal_path = dir.file("run.journal");
    let plan = injected_plan(2);
    let sink = journal::JournalSink::create(&journal_path, &plan).unwrap();
    let uninterrupted =
        ScheduledRunner::new(1).run_with(&plan, &EvalPipeline::new(plan.eval().clone()), &sink);
    drop(sink);

    let replay = journal::scan(&journal_path, &plan).unwrap();
    assert_eq!(replay.completed.len(), plan.total_samples());
    let resumed = ScheduledRunner::new(1)
        .resume(
            &plan,
            &journal_path,
            &EvalPipeline::new(plan.eval().clone()),
            &NullSink,
        )
        .unwrap();
    assert_eq!(uninterrupted, resumed);
    assert_eq!(format!("{uninterrupted:?}"), format!("{resumed:?}"));
    let any_findings = resumed
        .cells
        .values()
        .flat_map(|c| c.records())
        .any(|r| !r.result.analysis.is_empty());
    assert!(any_findings, "journal round-trip dropped the findings");
}

#[test]
fn truncated_findings_are_a_prefix_of_the_full_list() {
    // `analyze_max_findings` truncates *after* the deterministic sort, so
    // a tighter budget yields exactly the head of the looser run's list.
    let full = ScheduledRunner::new(1).run(&injected_plan(2));
    let mut truncated_plan = injected_plan(2);
    {
        // Rebuild with the tighter budget (EvalConfig is set at build time).
        let mut eval = truncated_plan.eval().clone();
        eval.analyze_max_findings = 1;
        truncated_plan = ExperimentPlan::builder()
            .samples(2)
            .pairs([TranslationPair::OMP_THREADS_TO_OFFLOAD])
            .techniques([Technique::NonAgentic])
            .models(
                all_models()
                    .into_iter()
                    .filter(|m| m.name == "o4-mini")
                    .map(|m| m.with_race_rate(1.0)),
            )
            .apps(["XSBench"])
            .eval(eval)
            .build();
    }
    let truncated = ScheduledRunner::new(1).run(&truncated_plan);
    for (key, cell) in &truncated.cells {
        let full_cell = &full.cells[key];
        for (t, f) in cell.records().iter().zip(full_cell.records()) {
            assert_eq!(t.sample_index, f.sample_index);
            let n = t.result.analysis.len();
            assert!(n <= 1, "{key:?}: truncation budget exceeded");
            assert_eq!(
                t.result.analysis[..],
                f.result.analysis[..n],
                "{key:?}: truncated findings are not a prefix of the full list"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Findings come back sorted by (file, line, rule, variable): the
    /// stable order that makes `analyze_max_findings` truncation
    /// deterministic, for any translated sample.
    #[test]
    fn finding_order_is_deterministic(seed in 1u64..1000, sample in 0u32..4) {
        let repo = translated_repo(seed, sample);
        let findings = minihpc_analyze::analyze_repo(&repo);
        let keys: Vec<_> = findings
            .iter()
            .map(|f| (
                f.file.clone(),
                f.line.unwrap_or(0),
                f.rule.code(),
                f.variable.clone(),
            ))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        prop_assert_eq!(keys, sorted, "finding order is not the canonical sort");
    }

    /// The analyzer verdict is pure and scheduler-invisible: the same grid
    /// yields byte-identical findings at any worker count, and re-analyzing
    /// the same repo yields the same findings.
    #[test]
    fn analyzer_is_deterministic_across_workers(workers in 1usize..6, sample in 0u32..4) {
        let plan = injected_plan(2);
        let serial = ScheduledRunner::new(1).run(&plan);
        let parallel = ScheduledRunner::new(workers).run(&plan);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
        prop_assert_eq!(
            report::race_report(&serial),
            report::race_report(&parallel)
        );

        // Through a parse memo shared by every case, as the pipeline's
        // analyzer reads the build's ASTs, the findings stay the same.
        static MEMO: LazyLock<BuildCache> = LazyLock::new(BuildCache::new);
        let repo = translated_repo(7, sample);
        let fresh = minihpc_analyze::analyze_repo(&repo);
        prop_assert_eq!(&fresh, &minihpc_analyze::analyze_repo(&repo));
        prop_assert_eq!(
            &fresh,
            &minihpc_analyze::analyze_repo_with(&repo, Some(&*MEMO))
        );
    }
}
