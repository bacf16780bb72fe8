//! The work-stealing scheduler: [`ScheduledRunner`] and the raw scheduling
//! primitives ([`stealing_map`], [`round_robin_map`]) it and the scheduler
//! benchmarks are built from.
//!
//! PR 4's repair rounds made per-sample cost wildly variable — a budget-3
//! repair sample can cost several times a cache-hit sample — so the static
//! round-robin sharding of the original parallel runner lets one unlucky
//! shard serialize a whole grid run. This module replaces it with the
//! classic work-stealing design over the vendored [`crossbeam::deque`]
//! primitives:
//!
//! - the full work list is seeded into a shared FIFO [`Injector`], sorted
//!   most-expensive-first by the plan-time
//!   [`SampleSpec::cost_hint`](crate::plan::SampleSpec::cost_hint)
//!   (longest-processing-time-first: big rocks start early, the tail of a
//!   run is made of small ones);
//! - every worker owns a LIFO [`Worker`] deque and publishes a [`Stealer`]
//!   handle; it drains its own deque first, refills from the injector in
//!   small batches, and only when both are empty steals from a sibling —
//!   so a worker stuck on an expensive repair sample cannot strand the
//!   work queued behind it;
//! - a worker exits when its deque, the injector, and every sibling deque
//!   are observed empty. Samples never spawn more samples, so that
//!   condition is final: every item is executed exactly once.
//!
//! Scheduling only changes *when* a sample runs, never *what* it computes:
//! samples are independently seeded, and the collector restores canonical
//! `(CellKey, sample_index)` order, so [`ScheduledRunner`] output is
//! byte-identical to [`SerialRunner`](crate::runner::SerialRunner) for the
//! same plan at any worker count (pinned by the determinism proptests in
//! `tests/determinism.rs`).

use crate::collect::ExperimentResults;
use crate::eval::EvalPipeline;
use crate::plan::{ExperimentPlan, SampleSpec};
use crate::runner::{ProgressSink, Runner, SampleRecord};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing how one [`stealing_map`] run balanced itself.
/// Purely observational — results never depend on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Items taken from a *sibling worker's* deque (the rebalancing acts).
    pub steals: u64,
    /// Batch refills served by the shared injector.
    pub injector_refills: u64,
}

/// Runs `f` over every item of `items` on `workers` scoped threads using
/// work stealing, returning the results in completion order (callers that
/// need a canonical order restore it themselves — the experiment collector
/// sorts by `(CellKey, sample_index)`).
///
/// Items are seeded into the shared injector in the given order; pass a
/// cost-sorted list (most expensive first) to get LPT scheduling. Each
/// worker drains its local deque, refills from the injector in small
/// batches, then steals from siblings; see the module docs for the exit
/// condition. A panicking `f` propagates out of the thread scope after the
/// remaining workers finish their items.
pub fn stealing_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> (Vec<R>, SchedStats)
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let total = items.len();
    let workers = workers.max(1).min(total.max(1));
    let injector = Injector::new();
    for item in items {
        injector.push(item);
    }
    let locals: Vec<Worker<T>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<T>> = locals.iter().map(Worker::stealer).collect();
    let steals = AtomicU64::new(0);
    let refills = AtomicU64::new(0);

    let mut results: Vec<R> = Vec::with_capacity(total);
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = locals
            .iter()
            .enumerate()
            .map(|(me, local)| {
                let (injector, stealers) = (&injector, &stealers);
                let (f, steals, refills) = (&f, &steals, &refills);
                scope.spawn(move |_| {
                    let mut out = Vec::new();
                    while let Some(item) = find_work(local, injector, stealers, me, steals, refills)
                    {
                        out.push(f(&item));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(out) => results.extend(out),
                // Re-raise the worker's own payload (the pipeline already
                // attached the offending cell/sample) instead of a bare
                // "worker panicked".
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    })
    .expect("scheduler thread scope failed");

    (
        results,
        SchedStats {
            steals: steals.load(Ordering::Relaxed),
            injector_refills: refills.load(Ordering::Relaxed),
        },
    )
}

/// One worker's drain-then-steal step: local deque first, then a batch
/// refill from the injector, then a steal from the first non-empty sibling.
/// Returns `None` only after observing all three sources empty.
fn find_work<T>(
    local: &Worker<T>,
    injector: &Injector<T>,
    stealers: &[Stealer<T>],
    me: usize,
    steals: &AtomicU64,
    refills: &AtomicU64,
) -> Option<T> {
    if let Some(item) = local.pop() {
        return Some(item);
    }
    loop {
        match injector.steal_batch_and_pop(local) {
            Steal::Success(item) => {
                refills.fetch_add(1, Ordering::Relaxed);
                return Some(item);
            }
            Steal::Retry => continue,
            Steal::Empty => {}
        }
        let mut contended = false;
        for (i, stealer) in stealers.iter().enumerate() {
            if i == me {
                continue;
            }
            match stealer.steal() {
                Steal::Success(item) => {
                    steals.fetch_add(1, Ordering::Relaxed);
                    return Some(item);
                }
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
        }
        if !contended {
            return None;
        }
    }
}

/// The static-sharding baseline: item `i` goes to worker `i % workers`,
/// fixed for the whole run. Results come back in shard-concatenation
/// order. This was the parallel runner's strategy before work stealing,
/// kept (a) as the baseline the scheduler benchmarks compare against and
/// (b) because for *uniform* per-item costs it is optimal and lock-free.
pub fn round_robin_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    let mut results: Vec<R> = Vec::with_capacity(items.len());
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                scope.spawn(move |_| {
                    items
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .map(f)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(out) => results.extend(out),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    })
    .expect("round-robin thread scope failed");
    results
}

/// The work-stealing execution strategy: seeds a shared injector with the
/// plan's samples sorted by plan-time cost hint, and lets `workers` scoped
/// threads drain-then-steal until the grid is done.
///
/// Like every runner, it streams [`SampleRecord`]s to the
/// [`ProgressSink`] in completion order (nondeterministic) and returns
/// results that are byte-identical to a serial run (deterministic). All
/// workers share one [`EvalPipeline`], so build-cache entries populated by
/// one worker serve hits to every other.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledRunner {
    workers: usize,
}

impl ScheduledRunner {
    /// `workers` is clamped to at least 1 (and, at run time, to the number
    /// of scheduled samples — idle threads are never spawned).
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
    /// counters (how many steals and injector refills it took to balance).
    pub fn run_with_stats(
        &self,
        plan: &ExperimentPlan,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) -> (ExperimentResults, SchedStats) {
        let (records, stats) = self.schedule(plan, plan.sample_specs(), pipeline, sink);
        (ExperimentResults::from_records(plan, records), stats)
    }

    /// The one scheduling path every entry point funnels through: LPT-sort
    /// `specs` and work-steal them across this runner's threads. Full runs
    /// and resume remainders both land here, so a resumed run re-seeds its
    /// injector with only the remaining samples — still most-expensive
    /// first.
    fn schedule(
        &self,
        plan: &ExperimentPlan,
        mut specs: Vec<SampleSpec>,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) -> (Vec<SampleRecord>, SchedStats) {
        // LPT seeding: most expensive first. The sort is stable, so equal
        // hints keep enumeration order and the injector contents are
        // deterministic for a given spec list.
        specs.sort_by_key(|spec| std::cmp::Reverse(spec.cost_hint));
        stealing_map(specs, self.workers, |spec: &SampleSpec| {
            let record = pipeline.execute(plan, spec);
            sink.on_sample(&record);
            record
        })
    }
}

impl Runner for ScheduledRunner {
    fn run_specs(
        &self,
        plan: &ExperimentPlan,
        specs: Vec<SampleSpec>,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) -> Vec<SampleRecord> {
        self.schedule(plan, specs, pipeline, sink).0
    }

    fn run_specs_discarding(
        &self,
        plan: &ExperimentPlan,
        mut specs: Vec<SampleSpec>,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) {
        // Same LPT seeding as `schedule`, but the worker closure returns
        // unit: no record outlives its `on_sample` delivery, so the
        // streaming path's peak retained records are the in-flight
        // samples (≤ worker count).
        specs.sort_by_key(|spec| std::cmp::Reverse(spec.cost_hint));
        stealing_map(specs, self.workers, |spec: &SampleSpec| {
            let record = pipeline.execute(plan, spec);
            sink.on_sample(&record);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{CountingSink, SerialRunner};
    use minihpc_lang::model::TranslationPair;
    use pareval_llm::all_models;
    use pareval_translate::Technique;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn stealing_map_runs_every_item_exactly_once() {
        let items: Vec<u64> = (0..100).collect();
        let calls = AtomicUsize::new(0);
        let (mut results, _) = stealing_map(items, 4, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        results.sort_unstable();
        assert_eq!(results, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn stealing_map_handles_degenerate_shapes() {
        // No items: no worker ever finds work.
        let (results, stats) = stealing_map(Vec::<u64>::new(), 8, |&x| x);
        assert!(results.is_empty());
        assert_eq!(stats, SchedStats::default());
        // One item, many workers; zero workers clamps to one.
        for workers in [0, 1, 8] {
            let (results, _) = stealing_map(vec![7u64], workers, |&x| x + 1);
            assert_eq!(results, vec![8]);
        }
    }

    #[test]
    fn round_robin_map_matches_serial_iteration() {
        let items: Vec<u64> = (0..37).collect();
        let mut results = round_robin_map(&items, 4, |&x| x + 1);
        results.sort_unstable();
        assert_eq!(results, (1..38).collect::<Vec<_>>());
        assert_eq!(round_robin_map(&items, 0, |&x| x).len(), items.len());
    }

    #[test]
    fn imbalanced_items_get_stolen() {
        // One expensive item at the head (LPT order) plus a tail of cheap
        // ones: with 2 workers the one not holding the expensive item must
        // refill from the injector repeatedly, and the counters see it.
        let mut items = vec![1u64; 64];
        items[0] = 50;
        let (_, stats) = stealing_map(items, 2, |&ms| {
            std::thread::sleep(std::time::Duration::from_micros(ms * 100));
        });
        assert!(
            stats.injector_refills > 1,
            "expected multiple refills, got {stats:?}"
        );
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
        let serial = SerialRunner.run(&plan);
        for workers in [1, 3, 8] {
            let sink = CountingSink::new();
            let runner = ScheduledRunner::new(workers);
            let results = runner.run_with_sink(&plan, &sink);
            assert_eq!(serial, results, "{workers} workers diverged");
            assert_eq!(sink.completed() as usize, plan.total_samples());
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(ScheduledRunner::new(0).workers(), 1);
        assert!(ScheduledRunner::auto().workers() >= 1);
    }
}
