//! The Runner layer: execution strategies over an [`ExperimentPlan`].
//!
//! A [`Runner`] turns a plan's [`SampleSpec`]s
//! into [`SampleRecord`]s (via a shared [`EvalPipeline`]) and hands them to
//! the Collector ([`ExperimentResults::from_records`]).
//! Because every sample is independently seeded, execution order is
//! irrelevant to the result: the collector restores the canonical
//! `(CellKey, sample_index)` order before aggregation, so every
//! multi-threaded runner's output is byte-identical to [`SerialRunner`]
//! output for the same plan.
//!
//! Three strategies ship: [`SerialRunner`] (one thread, enumeration
//! order), [`ScheduledRunner`](crate::ScheduledRunner) (work stealing —
//! the parallel default; see [`crate::sched`]), and [`RoundRobinRunner`]
//! (static sharding, kept as the scheduler benchmarks' baseline).
//!
//! Runners stream progress to a [`ProgressSink`] (observer) as samples
//! complete — from worker threads, in completion order, which under the
//! multi-threaded runners is nondeterministic even though the final
//! results are not.

use crate::collect::{CellResult, ExperimentResults};
use crate::eval::EvalPipeline;
use crate::journal::{self, JournalError, JournalReader};
use crate::plan::{CellKey, ExperimentPlan, SampleSpec};
use crate::sched::round_robin_map;
use crate::task::SampleResult;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One completed sample: the cell it belongs to, its index within the cell,
/// and the raw evaluation result. Records are what the collector retains,
/// so every metric can be recomputed (including pass@k for k > 1).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRecord {
    pub key: CellKey,
    pub sample_index: u32,
    pub result: SampleResult,
}

/// Observer of experiment progress. Implementations must be [`Sync`]:
/// the multi-threaded runners invoke `on_sample` concurrently from worker
/// threads.
pub trait ProgressSink: Sync {
    /// Called once per completed sample, in completion order.
    fn on_sample(&self, record: &SampleRecord);
}

/// Discards all progress events.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ProgressSink for NullSink {
    fn on_sample(&self, _record: &SampleRecord) {}
}

/// Counts completed samples (a minimal progress meter usable from tests and
/// long-running drivers alike).
#[derive(Debug, Default)]
pub struct CountingSink {
    completed: AtomicU64,
}

impl CountingSink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }
}

impl ProgressSink for CountingSink {
    fn on_sample(&self, _record: &SampleRecord) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// The streaming collector: folds each completed sample into per-cell
/// sufficient statistics the moment a worker reports it, so no raw record
/// outlives its `on_sample` call. Folding is order-independent, so the
/// nondeterministic completion order of multi-threaded runners still
/// yields results byte-identical to a serial run.
pub(crate) struct StreamingCollector {
    cells: Mutex<BTreeMap<CellKey, CellResult>>,
}

impl StreamingCollector {
    pub(crate) fn new(plan: &ExperimentPlan) -> Self {
        StreamingCollector {
            cells: Mutex::new(ExperimentResults::seeded_cells(plan)),
        }
    }

    pub(crate) fn finish(self) -> ExperimentResults {
        ExperimentResults {
            cells: self
                .cells
                .into_inner()
                .expect("streaming collector poisoned"),
        }
    }
}

impl ProgressSink for StreamingCollector {
    fn on_sample(&self, record: &SampleRecord) {
        self.cells
            .lock()
            .expect("streaming collector poisoned")
            .get_mut(&record.key)
            .expect("runner produced a record for a cell not in the plan")
            .fold_record(record);
    }
}

/// Forwards each sample to the caller's sink (e.g. a journal) and then
/// folds it into the streaming collector.
struct TeeSink<'a> {
    user: &'a dyn ProgressSink,
    collector: &'a StreamingCollector,
}

impl ProgressSink for TeeSink<'_> {
    fn on_sample(&self, record: &SampleRecord) {
        self.user.on_sample(record);
        self.collector.on_sample(record);
    }
}

/// An execution strategy for a plan.
pub trait Runner {
    /// Execute `specs` (a subset of `plan.sample_specs()`) through
    /// `pipeline`, streaming each completed record to `sink` and returning
    /// the records in completion order. This is the strategy's *only*
    /// required method — the whole-plan entry points and
    /// [`Runner::resume`] are provided on top of it — so a strategy
    /// defines how work is distributed exactly once and partial runs
    /// (resume's remainder) go through the same code path as full ones.
    fn run_specs(
        &self,
        plan: &ExperimentPlan,
        specs: Vec<SampleSpec>,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) -> Vec<SampleRecord>;

    /// Like [`Runner::run_specs`] but without returning (or accumulating)
    /// the records: each record's only life is its `on_sample` delivery.
    /// This is the streaming-aggregation execution path — peak retained
    /// records are the in-flight samples (≤ worker count), not O(total).
    ///
    /// The default delegates to `run_specs` and drops the buffer, which is
    /// correct but keeps the O(total) allocation; the shipped strategies
    /// override it to never collect.
    fn run_specs_discarding(
        &self,
        plan: &ExperimentPlan,
        specs: Vec<SampleSpec>,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) {
        let _ = self.run_specs(plan, specs, pipeline, sink);
    }

    /// Execute every sample of `plan` through `pipeline`, streaming records
    /// to `sink`. The pipeline (and with it the build cache) is shared by
    /// every worker of this run; pass one in explicitly to inspect
    /// [`EvalPipeline::cache_stats`] afterwards.
    ///
    /// A plan built with
    /// [`streaming(true)`](crate::plan::ExperimentPlanBuilder::streaming)
    /// takes the fold-on-arrival path instead of buffering records; `sink`
    /// still sees every sample first, so journaling composes unchanged.
    fn run_with(
        &self,
        plan: &ExperimentPlan,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) -> ExperimentResults {
        if plan.streaming() {
            let collector = StreamingCollector::new(plan);
            let tee = TeeSink {
                user: sink,
                collector: &collector,
            };
            self.run_specs_discarding(plan, plan.sample_specs(), pipeline, &tee);
            return collector.finish();
        }
        let records = self.run_specs(plan, plan.sample_specs(), pipeline, sink);
        ExperimentResults::from_records(plan, records)
    }

    /// Execute with a fresh pipeline built from the plan's
    /// [`EvalConfig`](crate::task::EvalConfig).
    fn run_with_sink(&self, plan: &ExperimentPlan, sink: &dyn ProgressSink) -> ExperimentResults {
        self.run_with(plan, &EvalPipeline::new(plan.eval().clone()), sink)
    }

    /// Execute without observing progress.
    fn run(&self, plan: &ExperimentPlan) -> ExperimentResults {
        self.run_with_sink(plan, &NullSink)
    }

    /// Resume a crashed run from the journal at `journal`, producing
    /// [`ExperimentResults`] byte-identical to an uninterrupted run of
    /// `plan`.
    ///
    /// Two streaming passes over the journal: the first recovers the
    /// completed `(cell, sample)` set from the intact record prefix (torn
    /// or corrupted tails are skipped, not fatal); only the *remaining*
    /// specs are then executed through this strategy's [`Runner::run_specs`]
    /// (so e.g. [`ScheduledRunner`](crate::ScheduledRunner) re-seeds its
    /// injector with the remainder in LPT order), streaming fresh records
    /// to `sink` as usual.
    /// The second pass replays the journaled records and merges them with
    /// the fresh ones into the collector, one record in flight at a time —
    /// no double-buffering of the journal. Replay is capped at the
    /// first-pass record count and deduplicated, so a `sink` that appends
    /// to the *same* journal file (the normal arrangement, via
    /// [`JournalSink::append`](crate::journal::JournalSink::append)) is
    /// safe, as is a journal holding duplicates from earlier resume cycles.
    ///
    /// Replayed records are not re-delivered to `sink`: they were delivered
    /// during the run that wrote them.
    ///
    /// # Errors
    ///
    /// [`JournalError::NotAJournal`] / [`JournalError::PlanMismatch`] when
    /// the file is not a journal for this plan (a fingerprint mismatch
    /// refuses to silently resume the wrong grid), [`JournalError::Io`] on
    /// I/O failure.
    fn resume(
        &self,
        plan: &ExperimentPlan,
        journal: &Path,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) -> Result<ExperimentResults, JournalError> {
        let replay = journal::scan(journal, plan)?;
        let remainder: Vec<SampleSpec> = plan
            .sample_specs()
            .into_iter()
            .filter(|spec| {
                !replay
                    .completed
                    .contains(&(plan.cells()[spec.cell].key, spec.sample_index))
            })
            .collect();
        if plan.streaming() {
            // Fold the journaled prefix straight into the collector (one
            // record in flight, deduplicated exactly like the buffered
            // path), then stream the remainder on top.
            let collector = StreamingCollector::new(plan);
            let mut seen = HashSet::new();
            for record in JournalReader::open(journal, plan)?.take(replay.records as usize) {
                if seen.insert((record.key, record.sample_index)) {
                    collector.on_sample(&record);
                }
            }
            let tee = TeeSink {
                user: sink,
                collector: &collector,
            };
            self.run_specs_discarding(plan, remainder, pipeline, &tee);
            return Ok(collector.finish());
        }
        let fresh = self.run_specs(plan, remainder, pipeline, sink);
        // Second pass: replay exactly the records the scan saw (`take`
        // stops before anything `sink` appended during `run_specs`),
        // dropping duplicates a crash mid-append can leave behind.
        let mut seen = HashSet::new();
        let replayed = JournalReader::open(journal, plan)?
            .take(replay.records as usize)
            .filter(move |record| seen.insert((record.key, record.sample_index)));
        Ok(ExperimentResults::from_records(plan, replayed.chain(fresh)))
    }
}

/// Runs every sample on the calling thread, in enumeration order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialRunner;

impl Runner for SerialRunner {
    fn run_specs(
        &self,
        plan: &ExperimentPlan,
        specs: Vec<SampleSpec>,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) -> Vec<SampleRecord> {
        specs
            .iter()
            .map(|spec| {
                let record = pipeline.execute(plan, spec);
                sink.on_sample(&record);
                record
            })
            .collect()
    }

    fn run_specs_discarding(
        &self,
        plan: &ExperimentPlan,
        specs: Vec<SampleSpec>,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) {
        for spec in &specs {
            let record = pipeline.execute(plan, spec);
            sink.on_sample(&record);
        }
    }
}

/// Shards the plan's samples round-robin across N scoped worker threads:
/// sample `i` always runs on worker `i % N`, fixed for the whole run.
///
/// This is the pre-scheduler static strategy, kept because (a) it is the
/// baseline `benches/scheduler.rs` measures
/// [`ScheduledRunner`](crate::ScheduledRunner) against and (b) for
/// *uniform* per-sample costs it is optimal with zero scheduling traffic.
/// With repair rounds enabled, per-sample cost is heavy-tailed and one
/// unlucky shard serializes the run — prefer
/// [`ScheduledRunner`](crate::ScheduledRunner).
///
/// Workers emit records to the sink as they complete; the collector then
/// restores `(CellKey, sample_index)` order, so the returned results are
/// byte-identical to [`SerialRunner`]'s for the same plan. All workers
/// share one [`EvalPipeline`], so a build-cache entry populated by one
/// shard serves hits to every other.
#[derive(Debug, Clone, Copy)]
pub struct RoundRobinRunner {
    workers: usize,
}

impl RoundRobinRunner {
    /// `workers` is clamped to at least 1.
    pub fn new(workers: usize) -> Self {
        RoundRobinRunner {
            workers: workers.max(1),
        }
    }

    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Runner for RoundRobinRunner {
    fn run_specs(
        &self,
        plan: &ExperimentPlan,
        specs: Vec<SampleSpec>,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) -> Vec<SampleRecord> {
        round_robin_map(&specs, self.workers, |spec| {
            let record = pipeline.execute(plan, spec);
            sink.on_sample(&record);
            record
        })
    }

    fn run_specs_discarding(
        &self,
        plan: &ExperimentPlan,
        specs: Vec<SampleSpec>,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) {
        round_robin_map(&specs, self.workers, |spec| {
            let record = pipeline.execute(plan, spec);
            sink.on_sample(&record);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExperimentPlan;
    use crate::sched::ScheduledRunner;
    use minihpc_lang::model::TranslationPair;
    use pareval_llm::all_models;
    use pareval_translate::Technique;

    fn tiny_plan() -> ExperimentPlan {
        ExperimentPlan::builder()
            .samples(2)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .techniques([Technique::NonAgentic])
            .models(all_models().into_iter().filter(|m| m.name == "o4-mini"))
            .apps(["nanoXOR"])
            .build()
    }

    #[test]
    fn sink_sees_every_sample() {
        let plan = tiny_plan();
        let sink = CountingSink::new();
        SerialRunner.run_with_sink(&plan, &sink);
        assert_eq!(sink.completed() as usize, plan.total_samples());

        let sink = CountingSink::new();
        RoundRobinRunner::new(3).run_with_sink(&plan, &sink);
        assert_eq!(sink.completed() as usize, plan.total_samples());
    }

    #[test]
    fn round_robin_matches_serial_on_tiny_plan() {
        let plan = tiny_plan();
        let serial = SerialRunner.run(&plan);
        let sharded = RoundRobinRunner::new(2).run(&plan);
        assert_eq!(serial, sharded);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(RoundRobinRunner::new(0).workers(), 1);
    }

    #[test]
    fn parallel_workers_share_the_build_cache() {
        // Same plan, one shared pipeline: identical translated repos recur
        // across samples (correct translations and same-kind injections are
        // content-identical), so sharded workers serve each other hits —
        // and the results still match an uncached serial run byte for byte.
        let plan = ExperimentPlan::builder()
            .samples(6)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .techniques([Technique::NonAgentic])
            .models(all_models().into_iter().filter(|m| m.name == "o4-mini"))
            .apps(["nanoXOR"])
            .build();
        let pipeline = EvalPipeline::new(plan.eval().clone());
        let cached = ScheduledRunner::new(3).run_with(&plan, &pipeline, &NullSink);
        let stats = pipeline.cache_stats();
        assert!(stats.hits > 0, "expected shared hits, got {stats:?}");

        let mut uncached_eval = plan.eval().clone();
        uncached_eval.build_cache = false;
        let uncached_pipeline = EvalPipeline::new(uncached_eval);
        let uncached = SerialRunner.run_with(&plan, &uncached_pipeline, &NullSink);
        assert_eq!(uncached_pipeline.cache_stats().misses, 0);
        assert_eq!(cached, uncached);
        assert_eq!(format!("{cached:?}"), format!("{uncached:?}"));
    }

    /// A grid that exercises every statistic the streaming collector must
    /// reproduce: repair rounds (per-round slots), analysis findings (race
    /// rule counts), build/run failures (error categories), infeasible
    /// cells, and generated apps alongside a built-in.
    fn streaming_probe_plan(streaming: bool) -> ExperimentPlan {
        use crate::task::EvalConfig;
        use minihpc_gen::GenSpec;

        let eval = EvalConfig {
            max_cases: 1,
            repair_budget: 2,
            analyze: true,
            ..EvalConfig::default()
        };
        ExperimentPlan::builder()
            .samples(3)
            .pairs([
                TranslationPair::CUDA_TO_OMP_OFFLOAD,
                TranslationPair::OMP_THREADS_TO_OFFLOAD,
            ])
            .techniques(Technique::ALL)
            .models(
                all_models()
                    .into_iter()
                    .filter(|m| m.name == "o4-mini" || m.name == "gemini-1.5-flash"),
            )
            .apps(["nanoXOR"])
            .extend_apps([
                pareval_apps::generated_app(&GenSpec::new(0x51)),
                pareval_apps::generated_app(&GenSpec::new(0x52).with_files(3)),
            ])
            .eval(eval)
            .streaming(streaming)
            .build()
    }

    #[test]
    fn streaming_matches_buffered_on_every_accessor() {
        use crate::task::Scoring;
        use crate::Metric;

        let buffered = SerialRunner.run(&streaming_probe_plan(false));
        let streamed = ScheduledRunner::new(4).run(&streaming_probe_plan(true));

        // Results-level views agree wholesale.
        assert_eq!(buffered.max_repair_round(), streamed.max_repair_round());
        assert_eq!(buffered.error_counts(), streamed.error_counts());
        assert_eq!(
            buffered.race_finding_counts(),
            streamed.race_finding_counts()
        );

        let plan = streaming_probe_plan(false);
        assert!(plan.cells().len() > 20);
        for cell in plan.cells() {
            let k = cell.key;
            let b = buffered.cell(k.pair, k.technique, k.model, k.app).unwrap();
            let s = streamed.cell(k.pair, k.technique, k.model, k.app).unwrap();
            assert_eq!(b.feasible(), s.feasible(), "{k:?}");
            assert_eq!(b.samples(), s.samples(), "{k:?}");
            assert_eq!(b.max_repair_round(), s.max_repair_round(), "{k:?}");
            assert_eq!(b.race_free_samples(), s.race_free_samples(), "{k:?}");
            assert_eq!(
                b.error_category_counts(),
                s.error_category_counts(),
                "{k:?}"
            );
            assert_eq!(b.finding_rule_counts(), s.finding_rule_counts(), "{k:?}");
            assert_eq!(b.tokens().mean(), s.tokens().mean(), "{k:?}");
            assert_eq!(b.tokens().count(), s.tokens().count(), "{k:?}");
            for metric in [Metric::Build, Metric::Pass] {
                for scoring in [Scoring::CodeOnly, Scoring::Overall] {
                    assert_eq!(
                        b.successes(metric, scoring),
                        s.successes(metric, scoring),
                        "{k:?}"
                    );
                    for kk in 1..=3 {
                        assert_eq!(
                            b.rate(metric, scoring, kk),
                            s.rate(metric, scoring, kk),
                            "{k:?} k={kk}"
                        );
                    }
                    for round in 0..=buffered.max_repair_round() + 1 {
                        assert_eq!(
                            b.successes_at_round(metric, scoring, round),
                            s.successes_at_round(metric, scoring, round),
                            "{k:?} round={round}"
                        );
                        assert_eq!(
                            b.rate_at_round(metric, scoring, 2, round),
                            s.rate_at_round(metric, scoring, 2, round),
                            "{k:?} round={round}"
                        );
                    }
                }
            }
            for round in 0..=buffered.max_repair_round() + 1 {
                assert_eq!(
                    b.tokens_at_round(round).mean(),
                    s.tokens_at_round(round).mean(),
                    "{k:?} round={round}"
                );
            }
            // The one intended divergence: streaming retains no raw records.
            if b.feasible() {
                assert!(!b.records().is_empty(), "{k:?}");
                assert!(s.records().is_empty(), "{k:?}");
            }
        }
    }

    #[test]
    fn streaming_resume_matches_uninterrupted_buffered_run() {
        use crate::journal::JournalSink;

        let dir =
            std::env::temp_dir().join(format!("pareval-stream-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let journal = dir.join("run.journal");

        let plan = streaming_probe_plan(true);
        let pipeline = EvalPipeline::new(plan.eval().clone());

        // Simulate a crash: journal only a prefix of the samples, then
        // resume in streaming mode and compare against a buffered run.
        let sink = JournalSink::create(&journal, &plan).expect("create journal");
        let prefix: Vec<SampleSpec> = plan.sample_specs().into_iter().take(17).collect();
        SerialRunner.run_specs_discarding(&plan, prefix, &pipeline, &sink);
        sink.sync().expect("sync journal");
        assert_eq!(sink.records_written(), 17);
        drop(sink);

        let append = JournalSink::append(&journal, &plan).expect("append journal");
        let resumed = ScheduledRunner::new(4)
            .resume(&plan, &journal, &pipeline, &append)
            .expect("resume");
        let buffered = SerialRunner.run(&streaming_probe_plan(false));
        assert_eq!(
            format!("{:?}", resumed.error_counts()),
            format!("{:?}", buffered.error_counts())
        );
        for cell in plan.cells() {
            let k = cell.key;
            let r = resumed.cell(k.pair, k.technique, k.model, k.app).unwrap();
            let b = buffered.cell(k.pair, k.technique, k.model, k.app).unwrap();
            assert_eq!(r.samples(), b.samples(), "{k:?}");
            for metric in [crate::Metric::Build, crate::Metric::Pass] {
                for scoring in [
                    crate::task::Scoring::CodeOnly,
                    crate::task::Scoring::Overall,
                ] {
                    assert_eq!(
                        r.successes(metric, scoring),
                        b.successes(metric, scoring),
                        "{k:?}"
                    );
                }
            }
            assert_eq!(r.tokens().mean(), b.tokens().mean(), "{k:?}");
            assert!(r.records().is_empty(), "{k:?}");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quick_grid_reproduces_cell_shapes() {
        use crate::task::Scoring;
        use crate::Metric;

        let plan = ExperimentPlan::builder()
            .samples(4)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .techniques([Technique::NonAgentic])
            .models(
                all_models()
                    .into_iter()
                    .filter(|m| m.name == "o4-mini" || m.name == "gemini-1.5-flash"),
            )
            .apps(["nanoXOR", "microXORh", "microXOR"])
            .build();
        let results = SerialRunner.run(&plan);
        let o4 = results
            .cell(
                TranslationPair::CUDA_TO_OMP_OFFLOAD,
                Technique::NonAgentic,
                "o4-mini",
                "nanoXOR",
            )
            .unwrap();
        assert!(o4.feasible());
        assert_eq!(o4.samples(), 4);
        // Code-only pass implies code-only build, per-sample and aggregate.
        assert!(
            o4.successes(Metric::Pass, Scoring::CodeOnly)
                <= o4.successes(Metric::Build, Scoring::CodeOnly)
        );
        assert!(
            o4.successes(Metric::Pass, Scoring::Overall)
                <= o4.successes(Metric::Build, Scoring::Overall)
        );
        // Overall never exceeds code-only builds (gt build file only helps).
        assert!(
            o4.successes(Metric::Build, Scoring::Overall)
                <= o4.successes(Metric::Build, Scoring::CodeOnly) + 1
        );

        let gem = results
            .cell(
                TranslationPair::CUDA_TO_OMP_OFFLOAD,
                Technique::NonAgentic,
                "gemini-1.5-flash",
                "nanoXOR",
            )
            .unwrap();
        // Gemini's pass@1 is 0 in the paper for this cell.
        assert_eq!(gem.successes(Metric::Pass, Scoring::CodeOnly), 0);
        assert_eq!(gem.successes(Metric::Pass, Scoring::Overall), 0);
    }
}
