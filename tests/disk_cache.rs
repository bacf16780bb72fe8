//! The persistent disk tier of the build cache: cross-process reuse,
//! LRU eviction under a byte budget, corruption = miss (never a wrong
//! result), and the no-aliasing regression pin for `BuildCache::key`.

mod common;

use common::TestDir;
use minihpc_lang::model::TranslationPair;
use pareval_core::{EvalConfig, EvalPipeline, ExperimentPlan, Runner, SerialRunner};
use pareval_llm::all_models;
use pareval_repo as _;
use pareval_translate::Technique;
use std::path::Path;

fn disk_eval(dir: &Path, budget: u64, repair_budget: u32) -> EvalConfig {
    EvalConfig {
        max_cases: 1,
        repair_budget,
        disk_cache_dir: Some(dir.to_path_buf()),
        disk_cache_budget: budget,
        ..EvalConfig::default()
    }
}

fn plan_on(eval: EvalConfig) -> ExperimentPlan {
    ExperimentPlan::builder()
        .samples(3)
        .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
        .apps(["nanoXOR", "microXOR"])
        .eval(eval)
        .build()
}

/// Every file in `dir`, sorted.
fn all_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    out.sort();
    out
}

fn entry_files(dir: &Path) -> Vec<std::path::PathBuf> {
    all_files(dir)
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "entry"))
        .collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    entry_files(dir)
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum()
}

#[test]
fn second_process_gets_disk_hits_and_identical_results() {
    // Two fresh pipelines sharing one cache dir stand in for two processes:
    // the first populates the tier, the second must hit it — with results
    // byte-identical to an uncached run.
    let dir = TestDir::new("disk-reuse");
    let plan = plan_on(disk_eval(dir.path(), 64 << 20, 0));

    let first = EvalPipeline::new(plan.eval().clone());
    assert!(first.disk_cache_active());
    let warm = SerialRunner.run_with(&plan, &first, &pareval_core::NullSink);
    assert_eq!(first.cache_stats().disk_hits, 0, "empty tier cannot hit");
    assert!(!entry_files(dir.path()).is_empty(), "nothing persisted");
    // Only outcomes persist: compile units stay in memory, so the tier
    // holds `.entry` files and nothing else.
    assert_eq!(
        all_files(dir.path()),
        entry_files(dir.path()),
        "the disk tier holds files other than outcome entries"
    );

    let second = EvalPipeline::new(plan.eval().clone());
    let reused = SerialRunner.run_with(&plan, &second, &pareval_core::NullSink);
    let stats = second.cache_stats();
    assert!(
        stats.disk_hits > 0,
        "fresh pipeline saw no disk hits: {stats:?}"
    );
    assert_eq!(warm, reused);

    let mut uncached_eval = plan.eval().clone();
    uncached_eval.build_cache = false;
    uncached_eval.disk_cache_dir = None;
    let uncached = SerialRunner.run_with(
        &plan,
        &EvalPipeline::new(uncached_eval),
        &pareval_core::NullSink,
    );
    assert_eq!(warm, uncached, "cache changed the results");
}

#[test]
fn eviction_respects_the_byte_budget() {
    // A budget far below the working set forces evictions; the stored
    // bytes must end at or under budget (one oversized entry is allowed to
    // stand alone — evicting the only entry would thrash pointlessly).
    let dir = TestDir::new("disk-evict");
    let budget = 600;
    let plan = plan_on(disk_eval(dir.path(), budget, 0));
    let pipeline = EvalPipeline::new(plan.eval().clone());
    SerialRunner.run_with(&plan, &pipeline, &pareval_core::NullSink);
    let stats = pipeline.cache_stats();
    assert!(
        stats.evictions > 0,
        "budget never forced an eviction: {stats:?}"
    );
    let stored = dir_bytes(dir.path());
    assert!(
        stored <= budget || entry_files(dir.path()).len() == 1,
        "stored {stored} bytes exceeds budget {budget}"
    );
}

#[test]
fn corrupted_entry_is_a_miss_never_a_wrong_result() {
    let dir = TestDir::new("disk-corrupt");
    let plan = plan_on(disk_eval(dir.path(), 64 << 20, 0));
    let baseline = SerialRunner.run(&plan);

    // Corrupt every persisted entry three different ways: payload bit
    // flip, truncation, and magic clobber.
    let files = entry_files(dir.path());
    assert!(
        files.len() >= 3,
        "need several entries, got {}",
        files.len()
    );
    for (i, file) in files.iter().enumerate() {
        let mut bytes = std::fs::read(file).unwrap();
        match i % 3 {
            0 => {
                let at = bytes.len() - 1;
                bytes[at] ^= 0x08;
            }
            1 => bytes.truncate(bytes.len() / 2),
            _ => bytes[..8].copy_from_slice(b"XXXXXXXX"),
        }
        std::fs::write(file, &bytes).unwrap();
    }

    let pipeline = EvalPipeline::new(plan.eval().clone());
    let rerun = SerialRunner.run_with(&plan, &pipeline, &pareval_core::NullSink);
    assert_eq!(baseline, rerun, "a corrupt entry leaked into the results");
    let stats = pipeline.cache_stats();
    assert_eq!(
        stats.disk_hits, 0,
        "corrupt entries must never serve hits: {stats:?}"
    );
    assert!(stats.misses > 0);
}

#[test]
fn corrupt_entries_are_deleted_and_rewritten() {
    let dir = TestDir::new("disk-heal");
    let plan = plan_on(disk_eval(dir.path(), 64 << 20, 0));
    SerialRunner.run(&plan);
    let files = entry_files(dir.path());
    let victim = &files[0];
    std::fs::write(victim, b"not an entry").unwrap();

    // The re-run detects the corruption, drops the file, and re-stores the
    // freshly computed outcome — the tier heals.
    SerialRunner.run(&plan);
    let healed = std::fs::read(victim).unwrap();
    assert!(healed.starts_with(b"PEBC"), "entry was not rewritten");
    let pipeline = EvalPipeline::new(plan.eval().clone());
    SerialRunner.run_with(&plan, &pipeline, &pareval_core::NullSink);
    assert!(pipeline.cache_stats().disk_hits > 0);
}

#[test]
fn config_changes_never_alias_disk_entries() {
    // Regression pin for `BuildCache::key`: an outcome-affecting
    // `EvalConfig` knob (here the repair budget) changes the key, so a
    // shared cache dir must produce zero cross-config disk hits — stale
    // entries from another config can never alias into this one.
    let dir = TestDir::new("disk-alias");
    let plan_b0 = plan_on(disk_eval(dir.path(), 64 << 20, 0));
    SerialRunner.run(&plan_b0);

    let plan_b2 = plan_on(disk_eval(dir.path(), 64 << 20, 2));
    let crossed = EvalPipeline::new(plan_b2.eval().clone());
    let results = SerialRunner.run_with(&plan_b2, &crossed, &pareval_core::NullSink);
    assert_eq!(
        crossed.cache_stats().disk_hits,
        0,
        "budget-2 run hit budget-0 entries: aliased keys"
    );
    // And the budget-2 results still match an uncached budget-2 run.
    let mut uncached_eval = plan_b2.eval().clone();
    uncached_eval.build_cache = false;
    uncached_eval.disk_cache_dir = None;
    let uncached = SerialRunner.run_with(
        &plan_b2,
        &EvalPipeline::new(uncached_eval),
        &pareval_core::NullSink,
    );
    assert_eq!(results, uncached);

    // Same config again: its own entries now hit.
    let same = EvalPipeline::new(plan_b2.eval().clone());
    SerialRunner.run_with(&plan_b2, &same, &pareval_core::NullSink);
    assert!(same.cache_stats().disk_hits > 0);
}

#[test]
fn analysis_is_recomputed_on_restart_not_served_stale() {
    // Analyzer findings are memoized in memory only — deliberately not
    // persisted in the disk tier. This pins that choice: a fresh process
    // over a warm tier serves outcomes from disk yet reproduces the same
    // findings by recomputing them, byte-identical to a cold analyzer run.
    // The injected-race cell (XSBench, OpenMP threads → offload, race_rate
    // 1.0) guarantees real findings so the pin is not vacuous.
    let dir = TestDir::new("disk-analysis");
    let plan = ExperimentPlan::builder()
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
        .eval(EvalConfig {
            analyze: true,
            ..disk_eval(dir.path(), 64 << 20, 0)
        })
        .build();
    let baseline = SerialRunner.run(&plan);

    let restarted = EvalPipeline::new(plan.eval().clone());
    let rerun = SerialRunner.run_with(&plan, &restarted, &pareval_core::NullSink);
    let stats = restarted.cache_stats();
    assert!(
        stats.disk_hits > 0,
        "restart did not reuse the warm tier: {stats:?}"
    );
    assert_eq!(baseline, rerun, "recomputed analysis diverged");
    assert!(
        rerun
            .cells
            .values()
            .flat_map(|c| c.records())
            .any(|r| !r.result.analysis.is_empty()),
        "analyzer produced no findings; the recompute pin is vacuous"
    );
}

#[test]
fn unusable_cache_dir_degrades_to_memory_only() {
    // Pointing the tier at a path that is a *file* cannot be opened as a
    // directory: the pipeline degrades to the in-memory tier (observable
    // via disk_cache_active) instead of failing the run.
    let dir = TestDir::new("disk-degrade");
    let blocker = dir.file("not-a-dir");
    std::fs::write(&blocker, b"occupied").unwrap();
    let plan = plan_on(disk_eval(&blocker, 64 << 20, 0));
    let pipeline = EvalPipeline::new(plan.eval().clone());
    assert!(!pipeline.disk_cache_active());
    let degraded = SerialRunner.run_with(&plan, &pipeline, &pareval_core::NullSink);
    assert_eq!(
        degraded,
        SerialRunner.run(&plan_on(EvalConfig {
            max_cases: 1,
            ..EvalConfig::default()
        }))
    );
}

#[test]
fn disk_hits_count_toward_the_hit_rate() {
    let dir = TestDir::new("disk-rate");
    let plan = plan_on(disk_eval(dir.path(), 64 << 20, 0));
    SerialRunner.run(&plan);
    let pipeline = EvalPipeline::new(plan.eval().clone());
    SerialRunner.run_with(&plan, &pipeline, &pareval_core::NullSink);
    let stats = pipeline.cache_stats();
    let expected = (stats.hits + stats.disk_hits) as f64
        / (stats.hits + stats.disk_hits + stats.misses) as f64;
    assert!((stats.hit_rate() - expected).abs() < 1e-12);
    assert!(stats.hit_rate() > 0.0);
}

#[test]
fn unit_files_from_older_runs_are_ignored() {
    // Older harness versions also persisted compile units as `.unit`
    // files. Opening such a directory indexes only the `.entry` files, so
    // a stale unit neither counts toward the budget nor gets evicted.
    let dir = TestDir::new("disk-stale-unit");
    let stale = dir.file(&format!("{:032x}.unit", 7u128));
    std::fs::write(&stale, b"PEBU0001 stale compile unit").unwrap();
    let cache = pareval_core::BuildCache::with_disk(dir.path(), 64 << 20).unwrap();
    assert_eq!(cache.len_disk(), 0, "a .unit file was indexed");
    assert!(stale.exists());
}
