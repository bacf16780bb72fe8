//! One untraced grid run: set up the plan and pipeline, then drive every
//! sample through `ScheduledRunner`.

use crate::probe::{Delivered, LatencySink, TimedBackend};
use crate::workload::Workload;
use pareval_core::{
    CacheStats, EvalPipeline, ExperimentPlan, JournalSink, ProgressSink, Runner, ScheduledRunner,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What one grid needs before its first sample.
pub struct Grid {
    pub plan: ExperimentPlan,
    pub pipeline: EvalPipeline,
}

/// Build the plan (generating the grid's apps) and its pipeline, whose
/// cache gains a disk tier at `disk_cache` when given. Returns the grid
/// and the seconds it took.
pub fn set_up(
    workload: Workload,
    seed: u64,
    backend: &Arc<TimedBackend>,
    disk_cache: Option<&Path>,
) -> (Grid, f64) {
    let start = Instant::now();
    let generated = workload
        .gen_specs(seed)
        .iter()
        .map(pareval_apps::generated_app)
        .collect();
    let plan = workload.plan(seed, generated, Arc::clone(backend) as _, disk_cache);
    let pipeline = EvalPipeline::new(plan.eval().clone());
    assert_eq!(
        pipeline.disk_cache_active(),
        disk_cache.is_some(),
        "the disk cache tier did not open"
    );
    (Grid { plan, pipeline }, start.elapsed().as_secs_f64())
}

/// How to run a grid.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workers: usize,
    /// Collect through `run_with_stats` to count scheduler steals.
    pub sched_stats: bool,
    /// Give the build cache a fresh disk tier (`gen-stress` only).
    pub disk_cache: bool,
}

/// One untraced run of a grid.
pub struct Rep {
    /// Wall seconds from the first sample to the collected results.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Samples the plan schedules.
    pub samples: usize,
    /// Samples in the order the sink received them.
    pub delivered: Vec<Delivered>,
    /// The run panicked before delivering every sample.
    pub panicked: bool,
    pub stats: CacheStats,
    /// Scheduler steals, when counted.
    pub steals: u64,
    /// Bytes left in the disk tier and the journal.
    pub disk_bytes: u64,
    pub journal_bytes: u64,
}

/// Set up and run one grid. A journaled grid writes `dir/journal`, and a
/// disk tier lives in `dir/cache`; `dir` is removed afterwards.
pub fn run(
    workload: Workload,
    seed: u64,
    backend: &Arc<TimedBackend>,
    dir: &Path,
    opts: Options,
) -> Rep {
    let cache_dir = dir.join("cache");
    let (grid, _) = set_up(
        workload,
        seed,
        backend,
        opts.disk_cache.then_some(cache_dir.as_path()),
    );
    let Grid { plan, pipeline } = grid;
    // Records reach the journal's file buffer, not the disk: fsync on
    // the checkout's shared disk would time other tenants' I/O.
    let journal_path = dir.join("journal");
    let journal = workload.journaled().then(|| {
        std::fs::create_dir_all(dir).expect("create the run directory");
        JournalSink::create(&journal_path, &plan)
            .expect("create the journal")
            .with_sync_every(0)
    });
    let sink = LatencySink::new(
        journal.as_ref().map(|j| j as &dyn ProgressSink),
        plan.total_samples(),
    );
    let runner = ScheduledRunner::new(opts.workers);
    let cpu_before = cpu_seconds();
    let start = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if opts.sched_stats {
            runner.run_with_stats(&plan, &pipeline, &sink).1.steals
        } else {
            std::hint::black_box(runner.run_with(&plan, &pipeline, &sink));
            0
        }
    }));
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    let delivered = sink.into_delivered();
    drop(journal);
    let rep = Rep {
        wall_s,
        cpu_s,
        samples: plan.total_samples(),
        delivered,
        panicked: outcome.is_err(),
        stats: pipeline.cache_stats(),
        steals: outcome.unwrap_or(0),
        disk_bytes: dir_bytes(&cache_dir),
        journal_bytes: std::fs::metadata(&journal_path).map_or(0, |m| m.len()),
    };
    drop(pipeline);
    remove_dir(dir);
    rep
}

/// A per-process scratch directory inside the working directory: the
/// benchmark reads and writes nothing outside its checkout.
pub fn scratch_dir(workload: Workload) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("{}-{}", workload.name(), std::process::id()))
}

pub fn remove_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove the run directory");
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// User plus system CPU seconds of this process, from `/proc/self/stat`
/// (in clock ticks of 1/100 s, the Linux default).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime and stime are the 14th and 15th fields of the line, the 12th
    // and 13th after the parenthesised command name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
