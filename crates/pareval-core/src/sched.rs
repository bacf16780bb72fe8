//! The runner: [`ScheduledRunner`], the one execution strategy, and the
//! private shared-queue pool it is built on.
//!
//! Per-sample cost is wildly variable — a budget-3 repair sample can cost
//! several times a cache-hit sample — so static sharding lets one unlucky
//! shard serialize a whole grid run. Work is instead handed out from one
//! shared queue (Graham's list scheduling):
//!
//! - the full work list is sorted most-expensive-first by the plan-time
//!   [`SampleSpec::cost_hint`](crate::plan::SampleSpec::cost_hint)
//!   (longest-processing-time-first: big rocks start early, the tail of a
//!   run is made of small ones);
//! - every worker claims the next `CHUNK` consecutive specs of that list
//!   with one atomic increment of a shared cursor, runs them, and claims
//!   again — so a worker stuck on an expensive repair sample holds at most
//!   `CHUNK - 1` specs back, and everything else stays claimable;
//! - a worker exits when the cursor has passed the end of the list. The
//!   grid is fixed before the run starts (samples never spawn more
//!   samples), so every item is executed exactly once.
//!
//! Every entry point — [`Runner::run_with`], [`Runner::resume`]'s
//! remainder and [`ScheduledRunner::run_with_stats`] — funnels through one
//! private execution path in which each worker runs
//! `execute → sink.on_sample(&record) → collector.add(record)`, handing
//! the record to the collector by value. One worker is the serial
//! case. Scheduling only changes *when* a sample runs, never *what* it
//! computes: samples are independently seeded and the collector is
//! order-independent, so results are byte-identical at any worker count
//! (pinned against a plain enumeration-order loop by the determinism
//! proptests in `tests/determinism.rs`).

use crate::collect::{Collector, ExperimentResults};
use crate::eval::EvalPipeline;
use crate::journal::{self, JournalError, JournalReader};
use crate::plan::{ExperimentPlan, SampleSpec};
use crate::runner::{ProgressSink, Runner};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Scheduling counters of one [`ScheduledRunner`] run. Purely
/// observational — results never depend on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Items taken from a sibling worker. Always 0: all workers claim from
    /// one shared queue, so there is nothing to steal.
    pub steals: u64,
}

/// Consecutive items one worker claims per cursor increment. Measured on
/// gridbench's 2-worker `gen-stress` grid (2 vCPUs, medians of 3 runs):
/// claiming one spec at a time raised `sample_p90_ms` from 1.22 to 2.02 ms
/// and cut throughput from 2124 to 1806 samples/s, while 5 matched the
/// previous scheduler, whose batched claims also took 5 specs.
/// Adjacent LPT-sorted specs likely share outcome and unit-cache keys, so
/// splitting them across workers would run the same cold build twice at
/// once.
const CHUNK: usize = 5;

/// Runs `f` over every item of `items` on `workers` scoped threads,
/// returning the results in completion order (callers that need a
/// canonical order restore it themselves — the experiment collector sorts
/// by `(CellKey, sample_index)`).
///
/// Workers claim [`CHUNK`] consecutive items at a time from a shared
/// cursor, so items start in the given order; pass a cost-sorted list
/// (most expensive first) to get LPT scheduling. `workers` is clamped to
/// `1..=` the number of chunks. A panicking `f` propagates out of the
/// thread scope, with its own payload, after the remaining workers finish
/// their items.
fn pool_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().div_ceil(CHUNK).max(1));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                        if start >= items.len() {
                            return out;
                        }
                        let chunk = &items[start..items.len().min(start + CHUNK)];
                        out.extend(chunk.iter().map(&f));
                    }
                })
            })
            .collect();
        // Re-raise the worker's own payload (the pipeline already attached
        // the offending cell/sample) instead of a bare "a scoped thread
        // panicked"; the scope joins the remaining workers first.
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// The execution strategy: sorts the plan's samples by plan-time cost
/// hint into one shared queue, and lets `workers` scoped threads claim
/// from it until the grid is done. `ScheduledRunner::new(1)` is the serial
/// runner.
///
/// It streams [`SampleRecord`](crate::runner::SampleRecord)s to the
/// [`ProgressSink`] in completion order (nondeterministic at more than one
/// worker) and returns results that are byte-identical at every worker
/// count (deterministic). All workers share one [`EvalPipeline`], so
/// build-cache entries populated by one worker serve hits to every other.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledRunner {
    workers: usize,
}

impl ScheduledRunner {
    /// `workers` is clamped to at least 1 (and, at run time, to the number
    /// of claims the scheduled samples make — idle threads are never
    /// spawned).
    pub fn new(workers: usize) -> Self {
        ScheduledRunner {
            workers: workers.max(1),
        }
    }

    /// One worker per available CPU.
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(n)
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// [`Runner::run_with`], additionally returning the run's scheduling
    /// counters (all zero: see [`SchedStats`]).
    pub fn run_with_stats(
        &self,
        plan: &ExperimentPlan,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) -> (ExperimentResults, SchedStats) {
        (self.run_with(plan, pipeline, sink), SchedStats::default())
    }

    /// The one execution path: LPT-sort `specs` into the shared queue and
    /// run them across this runner's threads, each worker delivering a
    /// finished record to `sink` and then moving it into `collector`.
    /// Nothing else holds a record, so on a streaming plan the peak
    /// retained records are the in-flight samples (≤ worker count). Full
    /// runs and resume remainders both land here, so a resumed run queues
    /// only the remaining samples — still most-expensive first.
    fn execute(
        &self,
        plan: &ExperimentPlan,
        mut specs: Vec<SampleSpec>,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
        collector: &Collector,
    ) {
        // LPT order: most expensive first. The sort is stable, so equal
        // hints keep enumeration order and the queue is deterministic for
        // a given spec list.
        specs.sort_by_key(|spec| std::cmp::Reverse(spec.cost_hint));
        pool_map(&specs, self.workers, |spec| {
            let record = pipeline.execute(plan, spec);
            sink.on_sample(&record);
            collector.add(record);
        });
    }
}

impl Runner for ScheduledRunner {
    fn run_with(
        &self,
        plan: &ExperimentPlan,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) -> ExperimentResults {
        let collector = Collector::new(plan);
        self.execute(plan, plan.sample_specs(), pipeline, sink, &collector);
        collector.finish()
    }

    fn resume(
        &self,
        plan: &ExperimentPlan,
        journal: &Path,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) -> Result<ExperimentResults, JournalError> {
        let replay = journal::scan(journal, plan)?;
        // The scan was the first pass; the second replays exactly the
        // records it saw (`take` stops before anything `sink` appends
        // later), one in flight at a time, dropping duplicates a crash
        // mid-append can leave behind.
        let collector = Collector::new(plan);
        let mut seen = HashSet::new();
        for record in JournalReader::open(journal, plan)?.take(replay.records as usize) {
            if seen.insert((record.key, record.sample_index)) {
                collector.add(record);
            }
        }
        let remainder: Vec<SampleSpec> = plan
            .sample_specs()
            .into_iter()
            .filter(|spec| {
                !replay
                    .completed
                    .contains(&(plan.cells()[spec.cell].key, spec.sample_index))
            })
            .collect();
        self.execute(plan, remainder, pipeline, sink, &collector);
        Ok(collector.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CountingSink;
    use minihpc_lang::model::TranslationPair;
    use pareval_llm::all_models;
    use pareval_translate::Technique;
    use std::sync::{Barrier, Mutex};

    fn assert_each_item_runs_once(len: u64, workers: usize) {
        let items: Vec<u64> = (0..len).collect();
        let calls = AtomicUsize::new(0);
        let mut results = pool_map(&items, workers, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        assert_eq!(
            calls.into_inner(),
            items.len(),
            "{len} items on {workers} workers"
        );
        results.sort_unstable();
        let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(results, expected, "{len} items on {workers} workers");
    }

    #[test]
    fn pool_map_runs_every_item_exactly_once() {
        // Item counts straddle the chunk boundaries; more workers than
        // chunks is harmless.
        for len in [4, 5, 6, 11, 100] {
            for workers in [1, 2, 3, 8] {
                assert_each_item_runs_once(len, workers);
            }
        }
    }

    #[test]
    fn pool_map_handles_degenerate_shapes() {
        // No items, one item, and zero workers (which clamps to one).
        for len in [0, 1] {
            for workers in [0, 1, 2, 3, 8] {
                assert_each_item_runs_once(len, workers);
            }
        }
        for len in [4, 5, 6, 11, 100] {
            assert_each_item_runs_once(len, 0);
        }
    }

    #[test]
    fn chunks_run_on_one_thread() {
        // Each worker's first item waits until every worker holds a claim,
        // so the workers are forced to interleave; still, every aligned run
        // of 5 consecutive items (the measured `CHUNK`) must execute on one
        // thread.
        let items: Vec<usize> = (0..100).collect();
        for workers in [2, 3] {
            let barrier = Barrier::new(workers);
            let started = Mutex::new(HashSet::new());
            let ids = Mutex::new(vec![None; items.len()]);
            pool_map(&items, workers, |&i| {
                let me = std::thread::current().id();
                if started.lock().unwrap().insert(me) {
                    barrier.wait();
                }
                ids.lock().unwrap()[i] = Some(me);
            });
            let ids = ids.into_inner().unwrap();
            assert_eq!(started.into_inner().unwrap().len(), workers);
            for (run, ids) in ids.chunks(5).enumerate() {
                assert!(
                    ids.iter().all(|id| id.is_some() && *id == ids[0]),
                    "{workers} workers: run {run} split across threads: {ids:?}"
                );
            }
        }
    }

    fn tiny_plan() -> ExperimentPlan {
        ExperimentPlan::builder()
            .samples(3)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .techniques([Technique::NonAgentic, Technique::TopDownAgentic])
            .models(all_models().into_iter().filter(|m| m.name == "o4-mini"))
            .apps(["nanoXOR", "microXOR"])
            .build()
    }

    #[test]
    fn scheduled_matches_serial_and_reports_progress() {
        let plan = tiny_plan();
        let serial = ScheduledRunner::new(1).run(&plan);
        for workers in [1, 3, 8] {
            let sink = CountingSink::new();
            let runner = ScheduledRunner::new(workers);
            let results = runner.run_with_sink(&plan, &sink);
            assert_eq!(serial, results, "{workers} workers diverged");
            assert_eq!(sink.completed() as usize, plan.total_samples());
        }
    }
}
