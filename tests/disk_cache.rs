//! The persistent disk tier of the build cache: cross-process reuse,
//! LRU eviction under a byte budget that processes sharing a directory
//! hold together, corruption = miss (never a wrong result), and the
//! no-aliasing regression pin for `BuildCache::key`.

mod common;

use common::TestDir;
use minihpc_lang::fnv::{fnv64, Fnv128};
use minihpc_lang::model::TranslationPair;
use minihpc_lang::repo::SourceRepo;
use pareval_core::{
    BuildCache, EvalConfig, EvalPipeline, ExperimentPlan, ExperimentResults, Runner,
    ScheduledRunner, Task,
};
use pareval_llm::all_models;
use pareval_repo as _;
use pareval_translate::Technique;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

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

/// `plan` run with the build cache off: the results every cached run must
/// reproduce.
fn uncached(plan: &ExperimentPlan) -> ExperimentResults {
    let mut eval = plan.eval().clone();
    eval.build_cache = false;
    eval.disk_cache_dir = None;
    ScheduledRunner::new(1).run_with(plan, &EvalPipeline::new(eval), &pareval_core::NullSink)
}

/// Every file in `dir`, sorted.
fn all_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    out.sort();
    out
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join("outcomes.log")
}

/// The bytes of every file in `dir`, as the benchmark counts a disk tier.
fn dir_bytes(dir: &Path) -> u64 {
    all_files(dir)
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum()
}

/// Whether the tier in `dir` is within `budget`, or holds a single entry
/// (one oversized entry may stand alone).
fn within_budget(dir: &Path, budget: u64) -> bool {
    dir_bytes(dir) <= budget || BuildCache::with_disk(dir, budget).unwrap().len_disk() == 1
}

/// The start offsets of the log's frames, read from each frame's length
/// field (`len: u32 LE | checksum: u64 LE | payload`), and the log's
/// length.
fn frame_offsets(log: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 0;
    while at < log.len() {
        offsets.push(at);
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap());
        at += 12 + len as usize;
    }
    assert_eq!(at, log.len(), "the log has a torn tail");
    offsets
}

/// One frame in the journal's layout, as a test writes it by hand.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend(fnv64(payload).to_le_bytes());
    out.extend(payload);
    out
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
    let warm = ScheduledRunner::new(1).run_with(&plan, &first, &pareval_core::NullSink);
    assert_eq!(first.cache_stats().disk_hits, 0, "empty tier cannot hit");
    assert!(dir_bytes(dir.path()) > 0, "nothing persisted");
    // Only outcomes persist: compile units stay in memory, so the tier
    // holds its log and nothing else.
    assert_eq!(
        all_files(dir.path()),
        [log_path(dir.path())],
        "the disk tier holds files other than its log"
    );

    let second = EvalPipeline::new(plan.eval().clone());
    let reused = ScheduledRunner::new(1).run_with(&plan, &second, &pareval_core::NullSink);
    let stats = second.cache_stats();
    assert!(
        stats.disk_hits > 0,
        "fresh pipeline saw no disk hits: {stats:?}"
    );
    assert_eq!(warm, reused);
    assert_eq!(warm, uncached(&plan), "cache changed the results");
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
    ScheduledRunner::new(1).run_with(&plan, &pipeline, &pareval_core::NullSink);
    let stats = pipeline.cache_stats();
    assert!(
        stats.evictions > 0,
        "budget never forced an eviction: {stats:?}"
    );
    assert!(
        within_budget(dir.path(), budget),
        "stored {} bytes exceeds budget {budget}",
        dir_bytes(dir.path())
    );
}

#[test]
fn corrupted_entry_is_a_miss_never_a_wrong_result() {
    let dir = TestDir::new("disk-corrupt");
    let plan = plan_on(disk_eval(dir.path(), 64 << 20, 0));
    let baseline = ScheduledRunner::new(1).run(&plan);
    let log = std::fs::read(log_path(dir.path())).unwrap();
    let offsets = frame_offsets(&log);
    assert!(
        offsets.len() >= 3,
        "need several entries, got {}",
        offsets.len()
    );

    // Corrupt the middle frame three different ways: payload bit flip,
    // truncation, and a length field beyond any frame. The log is readable
    // up to that frame, so exactly the frames before it hit.
    let middle = offsets.len() / 2;
    let (at, next) = (offsets[middle], offsets[middle + 1]);
    for corrupt in 0..3 {
        let mut bytes = log.clone();
        match corrupt {
            0 => bytes[next - 1] ^= 0x08,
            1 => bytes.truncate(at + (next - at) / 2),
            _ => bytes[at..at + 4].copy_from_slice(&[0xff; 4]),
        }
        std::fs::write(log_path(dir.path()), &bytes).unwrap();

        let pipeline = EvalPipeline::new(plan.eval().clone());
        let rerun = ScheduledRunner::new(1).run_with(&plan, &pipeline, &pareval_core::NullSink);
        assert_eq!(baseline, rerun, "a corrupt entry leaked into the results");
        let stats = pipeline.cache_stats();
        assert_eq!(
            stats.disk_hits, middle as u64,
            "only the frames before the corruption may hit: {stats:?}"
        );
        assert!(stats.misses > 0);
    }
}

#[test]
fn corrupt_entries_are_deleted_and_rewritten() {
    let dir = TestDir::new("disk-heal");
    let plan = plan_on(disk_eval(dir.path(), 64 << 20, 0));
    ScheduledRunner::new(1).run(&plan);
    let mut log = std::fs::read(log_path(dir.path())).unwrap();
    let stored = frame_offsets(&log).len();
    let victim = frame_offsets(&log)[1];
    log[victim + 4] ^= 0x01;
    std::fs::write(log_path(dir.path()), &log).unwrap();

    // The re-run misses from the corrupt frame on, cuts the log there and
    // appends the freshly computed outcomes: the tier heals.
    ScheduledRunner::new(1).run(&plan);
    let healed = std::fs::read(log_path(dir.path())).unwrap();
    assert_eq!(
        frame_offsets(&healed).len(),
        stored,
        "log was not rewritten"
    );
    let pipeline = EvalPipeline::new(plan.eval().clone());
    ScheduledRunner::new(1).run_with(&plan, &pipeline, &pareval_core::NullSink);
    let stats = pipeline.cache_stats();
    assert_eq!((stats.disk_hits, stats.misses), (stored as u64, 0));
}

#[test]
fn config_changes_never_alias_disk_entries() {
    // Regression pin for `BuildCache::key`: an outcome-affecting
    // `EvalConfig` knob (here the repair budget) changes the key, so a
    // shared cache dir must produce zero cross-config disk hits — stale
    // entries from another config can never alias into this one.
    let dir = TestDir::new("disk-alias");
    let plan_b0 = plan_on(disk_eval(dir.path(), 64 << 20, 0));
    ScheduledRunner::new(1).run(&plan_b0);

    let plan_b2 = plan_on(disk_eval(dir.path(), 64 << 20, 2));
    let crossed = EvalPipeline::new(plan_b2.eval().clone());
    let results = ScheduledRunner::new(1).run_with(&plan_b2, &crossed, &pareval_core::NullSink);
    assert_eq!(
        crossed.cache_stats().disk_hits,
        0,
        "budget-2 run hit budget-0 entries: aliased keys"
    );
    // And the budget-2 results still match an uncached budget-2 run.
    assert_eq!(results, uncached(&plan_b2));

    // Same config again: its own entries now hit.
    let same = EvalPipeline::new(plan_b2.eval().clone());
    ScheduledRunner::new(1).run_with(&plan_b2, &same, &pareval_core::NullSink);
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
    let baseline = ScheduledRunner::new(1).run(&plan);

    let restarted = EvalPipeline::new(plan.eval().clone());
    let rerun = ScheduledRunner::new(1).run_with(&plan, &restarted, &pareval_core::NullSink);
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
    let degraded = ScheduledRunner::new(1).run_with(&plan, &pipeline, &pareval_core::NullSink);
    assert_eq!(
        degraded,
        ScheduledRunner::new(1).run(&plan_on(EvalConfig {
            max_cases: 1,
            ..EvalConfig::default()
        }))
    );
}

#[test]
fn disk_hits_count_toward_the_hit_rate() {
    let dir = TestDir::new("disk-rate");
    let plan = plan_on(disk_eval(dir.path(), 64 << 20, 0));
    ScheduledRunner::new(1).run(&plan);
    let pipeline = EvalPipeline::new(plan.eval().clone());
    ScheduledRunner::new(1).run_with(&plan, &pipeline, &pareval_core::NullSink);
    let stats = pipeline.cache_stats();
    let expected = (stats.hits + stats.disk_hits) as f64
        / (stats.hits + stats.disk_hits + stats.misses) as f64;
    assert!((stats.hit_rate() - expected).abs() < 1e-12);
    assert!(stats.hit_rate() > 0.0);
}

#[test]
fn unit_files_from_older_runs_are_ignored() {
    // Older harness versions persisted compile units as `.unit` files and
    // outcomes as `.entry` files. The tier reads and writes only its log:
    // the stale files neither count toward the budget nor get evicted.
    let dir = TestDir::new("disk-stale-unit");
    let stale = [
        (
            dir.file(&format!("{:032x}.unit", 7u128)),
            "PEBU0001 stale unit",
        ),
        (
            dir.file(&format!("{:032x}.entry", 8u128)),
            "PEBC0001 stale entry",
        ),
    ];
    for (path, bytes) in &stale {
        std::fs::write(path, bytes).unwrap();
    }
    let cache = BuildCache::with_disk(dir.path(), 64 << 20).unwrap();
    assert_eq!(cache.len_disk(), 0, "a stale file was indexed");
    let plan = plan_on(disk_eval(dir.path(), 64 << 20, 0));
    ScheduledRunner::new(1).run(&plan);
    for (path, bytes) in &stale {
        assert_eq!(std::fs::read_to_string(path).unwrap(), *bytes);
    }
}

/// The outcome key as its v1 format computed it, hashing every file's
/// text: a copy kept only to name the disk entries older runs left behind.
fn v1_outcome_key(task: &Task, repo: &SourceRepo, eval: &EvalConfig) -> u128 {
    let mut h = Fnv128::new();
    h.field(task.app.binary.as_bytes());
    h.field(task.app.name.as_bytes());
    h.field(task.pair.id().as_bytes());
    h.field(&eval.max_cases.to_le_bytes());
    h.field(&eval.max_steps.to_le_bytes());
    h.field(&eval.repair_budget.to_le_bytes());
    h.field(&eval.repair_diag_lines.to_le_bytes());
    if eval.analyze {
        h.field(b"analyze");
        h.field(&eval.analyze_max_findings.to_le_bytes());
    }
    if eval.repair_guided {
        h.field(b"repair-guided");
    }
    for (path, contents) in repo.iter() {
        h.field(path.as_bytes());
        h.field(contents.as_bytes());
    }
    h.finish()
}

#[test]
fn entries_under_the_v1_key_format_miss_cleanly() {
    // A log written by an older run keys its frames by the v1 key. Put a
    // well-formed frame there, holding another repo's outcome, under the
    // v1 key of the repo evaluated next: the lookup must miss, and the
    // outcome must be the uncached one.
    let task = pareval_core::all_tasks()
        .into_iter()
        .find(|t| t.app.name == "nanoXOR" && t.pair == TranslationPair::CUDA_TO_OMP_OFFLOAD)
        .unwrap();
    let source = task.app.repo(task.pair.from).unwrap();
    let repo = pareval_translate::transpile_repo(source, task.pair, &task.app.binary);
    let mut unbuildable = repo.clone();
    unbuildable
        .remove("Makefile")
        .expect("the offload repo has a Makefile");

    let writer_dir = TestDir::new("disk-v1-writer");
    let writer = EvalPipeline::new(disk_eval(writer_dir.path(), 64 << 20, 0));
    let wrong = writer.evaluate(&task, &unbuildable);
    assert!(!wrong.built);
    let written = std::fs::read(log_path(writer_dir.path())).unwrap();
    assert_eq!(frame_offsets(&written), [0], "one frame");

    // The same outcome, re-keyed: the payload is the key, then the outcome.
    let dir = TestDir::new("disk-v1");
    let eval = disk_eval(dir.path(), 64 << 20, 0);
    let mut payload = v1_outcome_key(&task, &repo, &eval).to_le_bytes().to_vec();
    payload.extend(&written[12 + 16..]);
    let v1_frame = frame(&payload);
    std::fs::write(log_path(dir.path()), &v1_frame).unwrap();

    let pipeline = EvalPipeline::new(eval.clone());
    let outcome = pipeline.evaluate(&task, &repo);
    assert_eq!(pipeline.cache_stats().disk_hits, 0);
    let uncached = EvalPipeline::new(EvalConfig {
        build_cache: false,
        disk_cache_dir: None,
        ..eval
    })
    .evaluate(&task, &repo);
    assert_eq!(outcome, uncached);
    assert!(outcome.passed, "the translated repo builds and passes");
    // The old frame is left alone; the new one follows it.
    let log = std::fs::read(log_path(dir.path())).unwrap();
    assert!(log.starts_with(&v1_frame));
    assert_eq!(frame_offsets(&log).len(), 2);

    // Control: the same bytes under the current key are served.
    let reader = EvalPipeline::new(disk_eval(writer_dir.path(), 64 << 20, 0));
    assert_eq!(reader.evaluate(&task, &unbuildable), wrong);
    assert_eq!(reader.cache_stats().disk_hits, 1);
}

/// Budget of the directory the child processes share: a few entries, far
/// below what any one child's plan stores.
const SHARED_BUDGET: u64 = 2_000;

/// The plan of child `i`: each child translates to its own model pair.
fn child_plan(i: usize, dir: &Path) -> ExperimentPlan {
    let pairs = [
        TranslationPair::CUDA_TO_OMP_OFFLOAD,
        TranslationPair::CUDA_TO_KOKKOS,
        TranslationPair::OMP_THREADS_TO_OFFLOAD,
    ];
    ExperimentPlan::builder()
        .samples(2)
        .pairs(if i < pairs.len() {
            vec![pairs[i]]
        } else {
            pairs.to_vec()
        })
        .apps(["nanoXOR", "microXORh", "SimpleMOC-kernel"])
        .eval(disk_eval(dir, SHARED_BUDGET, 0))
        .build()
}

/// The body of one child process of
/// `processes_sharing_a_directory_share_its_budget`, which re-executes
/// this test binary; a no-op unless that test started it.
#[test]
fn shared_directory_child() {
    let (Ok(i), Ok(dir)) = (
        std::env::var("PAREVAL_DISK_CHILD"),
        std::env::var("PAREVAL_DISK_DIR"),
    ) else {
        return;
    };
    let plan = child_plan(i.parse().unwrap(), Path::new(&dir));
    let pipeline = EvalPipeline::new(plan.eval().clone());
    assert!(pipeline.disk_cache_active());
    let results = ScheduledRunner::new(2).run_with(&plan, &pipeline, &pareval_core::NullSink);
    assert!(pipeline.cache_stats().evictions > 0);
    assert_eq!(results, uncached(&plan), "the shared tier changed a result");
}

#[test]
fn processes_sharing_a_directory_share_its_budget() {
    // Three processes store into one directory at once, each on its own
    // plan. Each checks its results against an uncached run. Together
    // they must leave the tier within its one budget, and what they leave
    // must serve a later process.
    let dir = TestDir::new("disk-shared");
    let children: Vec<_> = (0..3)
        .map(|i| {
            Command::new(std::env::current_exe().unwrap())
                .args(["--exact", "shared_directory_child", "--test-threads=1"])
                .env("PAREVAL_DISK_CHILD", i.to_string())
                .env("PAREVAL_DISK_DIR", dir.path())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap()
        })
        .collect();
    for child in children {
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "a child failed:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(
        within_budget(dir.path(), SHARED_BUDGET),
        "the processes left {} bytes over a budget of {SHARED_BUDGET}",
        dir_bytes(dir.path())
    );

    // Every child's plan at once, with room for all it stores: none of
    // the entries the children left is evicted before it is looked up.
    let plan = child_plan(usize::MAX, dir.path());
    let pipeline = EvalPipeline::new(EvalConfig {
        disk_cache_budget: 64 << 20,
        ..plan.eval().clone()
    });
    let results = ScheduledRunner::new(1).run_with(&plan, &pipeline, &pareval_core::NullSink);
    assert!(pipeline.cache_stats().disk_hits > 0);
    assert_eq!(results, uncached(&plan));
}
