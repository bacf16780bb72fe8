//! The Runner layer: the [`Runner`] entry points over an
//! [`ExperimentPlan`], and the records and progress sinks they stream.
//!
//! A runner turns a plan's [`SampleSpec`](crate::plan::SampleSpec)s into
//! [`SampleRecord`]s (via a shared [`EvalPipeline`]) and hands each to the
//! collector ([`crate::collect`]). [`ScheduledRunner`](crate::ScheduledRunner)
//! is the one strategy — one shared LPT queue across N workers, with
//! `ScheduledRunner::new(1)` as the serial case; see [`crate::sched`].
//! Because every sample is independently seeded and the collector is
//! order-independent, execution order is irrelevant to the result: output
//! is byte-identical at every worker count.
//!
//! Runners stream progress to a [`ProgressSink`] (observer) as samples
//! complete — from worker threads, in completion order, which at more than
//! one worker is nondeterministic even though the final results are not.

use crate::collect::ExperimentResults;
use crate::eval::EvalPipeline;
use crate::journal::JournalError;
use crate::plan::{CellKey, ExperimentPlan};
use crate::task::SampleResult;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// One completed sample: the cell it belongs to, its index within the cell,
/// and the raw evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRecord {
    pub key: CellKey,
    pub sample_index: u32,
    pub result: SampleResult,
}

/// Observer of experiment progress. Implementations must be [`Sync`]:
/// runner workers invoke `on_sample` concurrently.
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

/// The entry points for executing a plan.
pub trait Runner {
    /// Execute every sample of `plan` through `pipeline`, streaming records
    /// to `sink`. The pipeline (and with it the build cache) is shared by
    /// every worker of this run; pass one in explicitly to inspect
    /// [`EvalPipeline::cache_stats`] afterwards.
    ///
    /// `sink` sees every record before the collector takes it, so
    /// journaling composes with either collection mode; a plan built with
    /// [`streaming(true)`](crate::plan::ExperimentPlanBuilder::streaming)
    /// only drops the retained raw records.
    fn run_with(
        &self,
        plan: &ExperimentPlan,
        pipeline: &EvalPipeline,
        sink: &dyn ProgressSink,
    ) -> ExperimentResults;

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
    /// or corrupted tails are skipped, not fatal). The second replays the
    /// journaled records into the collector, one record in flight at a
    /// time — no double-buffering of the journal. Replay is capped at the
    /// first-pass record count and deduplicated, so a `sink` that appends
    /// to the *same* journal file (the normal arrangement, via
    /// [`JournalSink::append`](crate::journal::JournalSink::append)) is
    /// safe, as is a journal holding duplicates from earlier resume cycles.
    /// Only the *remaining* specs are then executed, through the same path
    /// as a full run (so [`ScheduledRunner`](crate::ScheduledRunner)
    /// queues the remainder in LPT order), streaming
    /// fresh records to `sink` as usual.
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
    ) -> Result<ExperimentResults, JournalError>;
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
        for workers in [1, 3] {
            let sink = CountingSink::new();
            ScheduledRunner::new(workers).run_with_sink(&plan, &sink);
            assert_eq!(sink.completed() as usize, plan.total_samples());
        }
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
        let uncached = ScheduledRunner::new(1).run_with(&plan, &uncached_pipeline, &NullSink);
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
        // Every accessor but `records()`/`error_logs()` reads only the
        // folded `CellStats`, so equal stats mean equal accessors; what is
        // left to pin is the fold itself and the one intended divergence.
        let buffered = ScheduledRunner::new(1).run(&streaming_probe_plan(false));
        let streamed = ScheduledRunner::new(4).run(&streaming_probe_plan(true));

        let plan = streaming_probe_plan(false);
        assert!(plan.cells().len() > 20);
        assert!(buffered.max_repair_round() > 0);
        assert!(!buffered.error_counts().is_empty());
        for cell in plan.cells() {
            let k = cell.key;
            let b = buffered.cell(k.pair, k.technique, k.model, k.app).unwrap();
            let s = streamed.cell(k.pair, k.technique, k.model, k.app).unwrap();
            assert_eq!(b.feasible(), s.feasible(), "{k:?}");
            assert_eq!(b.stats(), s.stats(), "{k:?}");
            // Streaming retains no raw records.
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
        for spec in plan.sample_specs().iter().take(17) {
            sink.on_sample(&pipeline.execute(&plan, spec));
        }
        sink.sync().expect("sync journal");
        assert_eq!(sink.records_written(), 17);
        drop(sink);

        let append = JournalSink::append(&journal, &plan).expect("append journal");
        let resumed = ScheduledRunner::new(4)
            .resume(&plan, &journal, &pipeline, &append)
            .expect("resume");
        let buffered = ScheduledRunner::new(1).run(&streaming_probe_plan(false));
        for cell in plan.cells() {
            let k = cell.key;
            let r = resumed.cell(k.pair, k.technique, k.model, k.app).unwrap();
            let b = buffered.cell(k.pair, k.technique, k.model, k.app).unwrap();
            assert_eq!(r.feasible(), b.feasible(), "{k:?}");
            assert_eq!(r.stats(), b.stats(), "{k:?}");
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
        let results = ScheduledRunner::new(1).run(&plan);
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
