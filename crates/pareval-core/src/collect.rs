//! The Collector layer: aggregation of raw [`SampleRecord`]s into
//! [`ExperimentResults`].
//!
//! Every record is folded into its cell's *sufficient statistics*
//! ([`CellStats`]) the moment it arrives, and every count/rate accessor
//! reads only those. The folded form is exact, not approximate: build@k
//! and pass@k (paper Eq. 1) need only `(samples, successes)` counts for
//! any k, per-round rates need one counter row per repair round (bounded
//! by the repair budget), and token means are integer sums below 2^53.
//! Folding is order-independent, so work-stolen completion orders agree
//! with enumeration order.
//!
//! Raw records are kept *as well* unless the plan was built with
//! [`streaming(true)`](crate::plan::ExperimentPlanBuilder::streaming).
//! They back exactly two views, [`CellResult::records`] and
//! [`CellResult::error_logs`] (Fig. 3's log text), which come back empty
//! on a streaming plan; nothing else reads them, so the two collection
//! modes cannot disagree about a metric. Streaming keeps memory at the
//! in-flight samples instead of O(total samples), which is what lets a
//! thousand-cell generated grid run.
//!
//! Construction is atomic per cell: a cell is either infeasible with no
//! samples, or feasible with exactly its scheduled samples. A
//! partially-filled infeasible cell is unrepresentable.

use crate::plan::{CellKey, CellQuery, ExperimentPlan};
use crate::runner::SampleRecord;
use crate::task::{EvalOutcome, Scoring};
use minihpc_build::ErrorCategory;
use minihpc_lang::model::TranslationPair;
use pareval_errclust::LogEntry;
use pareval_metrics::{pass_at_k, MeanAccumulator};
use pareval_translate::Technique;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Which success condition a rate is computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Metric {
    /// The translation compiled.
    Build,
    /// The translation compiled, produced correct output, and executed on
    /// the specified hardware.
    Pass,
}

/// Per-cell sufficient statistics: everything the count/rate accessors
/// need, folded one sample at a time. Every field is an order-independent
/// aggregate (integer sums, maxes, count maps), so any fold order yields
/// the same value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellStats {
    samples: u64,
    /// Final successes, indexed `[metric][scoring]` (Build/Pass ×
    /// CodeOnly/Overall).
    successes: [[u64; 2]; 2],
    race_free: u64,
    max_round: u32,
    token_total: u64,
    /// One slot per repair round, `rounds[r]` = the cell's aggregate as of
    /// round r with each sample's trajectory clamped to its own length —
    /// the exact fold of [`CellResult::successes_at_round`] /
    /// [`CellResult::tokens_at_round`]. Length is the deepest trajectory
    /// seen (≤ repair budget + 1), never O(samples).
    rounds: Vec<RoundSlot>,
    errors: BTreeMap<ErrorCategory, u64>,
    race_rules: BTreeMap<minihpc_analyze::Rule, u64>,
    /// Findings that carried a machine-applicable fix-it.
    fixits: u64,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct RoundSlot {
    successes: [[u64; 2]; 2],
    token_total: u64,
}

fn metric_index(metric: Metric) -> usize {
    match metric {
        Metric::Build => 0,
        Metric::Pass => 1,
    }
}

fn scoring_index(scoring: Scoring) -> usize {
    match scoring {
        Scoring::CodeOnly => 0,
        Scoring::Overall => 1,
    }
}

/// `[built, passed]` counts of one optional outcome.
fn outcome_flags(o: Option<&EvalOutcome>) -> [u64; 2] {
    match o {
        Some(o) => [u64::from(o.built), u64::from(o.passed)],
        None => [0, 0],
    }
}

impl CellStats {
    fn fold(&mut self, result: &crate::task::SampleResult) {
        self.samples += 1;
        let co = outcome_flags(result.code_only.as_ref());
        let ov = outcome_flags(result.overall.as_ref());
        for m in 0..2 {
            self.successes[m][0] += co[m];
            self.successes[m][1] += ov[m];
        }
        self.race_free += u64::from(result.race_free());
        self.max_round = self
            .max_round
            .max(result.rounds.last().map_or(0, |r| r.round));
        self.token_total += result.tokens.total();
        // The sample's per-round trajectory; a sample without one (build
        // succeeded, or budget 0) reports its final outcome at every
        // round, i.e. a constant length-1 trajectory.
        let final_row = ([[co[0], ov[0]], [co[1], ov[1]]], result.tokens.total());
        let traj_len = result.rounds.len().max(1);
        let row = |r: usize| match result.rounds.get(r.min(traj_len - 1)) {
            None => final_row,
            Some(round) => {
                let co = outcome_flags(Some(&round.code_only));
                let ov = outcome_flags(Some(&round.overall));
                ([[co[0], ov[0]], [co[1], ov[1]]], round.tokens.total())
            }
        };
        // Beyond its own trajectory a sample's outcome is constant, so
        // slots grown later start as a copy of the current last slot —
        // every previously folded sample is already clamped there.
        while self.rounds.len() < traj_len {
            let carried = self.rounds.last().cloned().unwrap_or_default();
            self.rounds.push(carried);
        }
        for (r, slot) in self.rounds.iter_mut().enumerate() {
            let (succ, tokens) = row(r);
            for (acc, add) in slot
                .successes
                .iter_mut()
                .flatten()
                .zip(succ.iter().flatten())
            {
                *acc += add;
            }
            slot.token_total += tokens;
        }
        if let Some(o) = result.overall.as_ref().filter(|o| !o.built) {
            if let Some(category) = o.error_category {
                *self.errors.entry(category).or_default() += 1;
            }
        }
        for finding in &result.analysis {
            *self.race_rules.entry(finding.rule).or_default() += 1;
            self.fixits += u64::from(finding.fixit.is_some());
        }
    }
}

/// One cell's folded statistics, plus its raw records when the plan does
/// not stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellResult {
    feasible: bool,
    stats: CellStats,
    records: Vec<SampleRecord>,
}

impl CellResult {
    /// Fold one record, retaining it too when `retain` is set. An
    /// infeasible record demotes the whole cell atomically: all samples of
    /// a cell share the plan's feasibility, so one infeasible record marks
    /// the cell not-run, dropping what it held and blocking the rest.
    fn add(&mut self, record: SampleRecord, retain: bool) {
        if !record.result.feasible {
            *self = CellResult::default();
            return;
        }
        if !self.feasible {
            return;
        }
        self.stats.fold(&record.result);
        if retain {
            self.records.push(record);
        }
    }

    /// Was this configuration runnable at all?
    pub fn feasible(&self) -> bool {
        self.feasible
    }

    /// The folded sufficient statistics every count/rate accessor reads.
    pub fn stats(&self) -> &CellStats {
        &self.stats
    }

    pub fn samples(&self) -> u64 {
        self.stats.samples
    }

    /// The raw per-sample records, ordered by sample index. Empty on a
    /// streaming plan — the records were folded, not retained.
    pub fn records(&self) -> &[SampleRecord] {
        &self.records
    }

    /// Successful samples under one metric and scoring.
    pub fn successes(&self, metric: Metric, scoring: Scoring) -> u64 {
        self.stats.successes[metric_index(metric)][scoring_index(scoring)]
    }

    /// The unbiased build@k / pass@k estimate (paper Eq. 1) for this cell.
    /// Zero-sample cells score 0.
    ///
    /// The estimator needs `k <= samples()`; for larger k it saturates —
    /// 1 when any sample succeeded, 0 otherwise — rather than erroring or
    /// extrapolating. This is [`pass_at_k`]'s documented edge semantics,
    /// pinned by a shared property test (`rate_agrees_with_pass_at_k`), so
    /// the two public call paths cannot drift apart.
    pub fn rate(&self, metric: Metric, scoring: Scoring, k: u32) -> f64 {
        pass_at_k(
            self.samples(),
            self.successes(metric, scoring),
            u64::from(k),
        )
    }

    /// The cell's aggregate as of repair round `round` (0 = before any
    /// repair). Samples without a repair trajectory — the build succeeded,
    /// the cell ran with `repair_budget = 0` — count their final outcome at
    /// every round, and rounds beyond a sample's trajectory count its last
    /// recorded state (once a sample stops repairing, its outcome is
    /// final). `None` only for a cell with no samples.
    fn round_slot(&self, round: u32) -> Option<&RoundSlot> {
        let last = self.stats.rounds.len().checked_sub(1)?;
        self.stats.rounds.get((round as usize).min(last))
    }

    /// Successful samples under one metric and scoring, as of repair round
    /// `round`.
    pub fn successes_at_round(&self, metric: Metric, scoring: Scoring, round: u32) -> u64 {
        self.round_slot(round).map_or(0, |slot| {
            slot.successes[metric_index(metric)][scoring_index(scoring)]
        })
    }

    /// build@k / pass@k as of repair round `round` — the Fig. 2 estimator
    /// over the outcomes each sample had after `round` repair rounds.
    /// `rate_at_round(m, s, k, budget)` equals [`CellResult::rate`].
    pub fn rate_at_round(&self, metric: Metric, scoring: Scoring, k: u32, round: u32) -> f64 {
        pass_at_k(
            self.samples(),
            self.successes_at_round(metric, scoring, round),
            u64::from(k),
        )
    }

    /// The deepest repair round any sample recorded (0 when no sample
    /// entered the repair loop).
    pub fn max_repair_round(&self) -> u32 {
        self.stats.max_round
    }

    /// Mean cumulative tokens per sample as of repair round `round` —
    /// repair tokens count toward E_kappa (paper Eq. 2), so the round-R
    /// token cost pairs with the round-R pass rate.
    pub fn tokens_at_round(&self, round: u32) -> MeanAccumulator {
        let total = self.round_slot(round).map_or(0, |slot| slot.token_total);
        MeanAccumulator::from_sum_count(total as f64, self.stats.samples)
    }

    pub fn build_at_k(&self, scoring: Scoring, k: u32) -> f64 {
        self.rate(Metric::Build, scoring, k)
    }

    pub fn pass_at_k(&self, scoring: Scoring, k: u32) -> f64 {
        self.rate(Metric::Pass, scoring, k)
    }

    /// Samples that built and carried no error-severity analysis finding.
    /// Zero unless the grid ran with `EvalConfig::analyze` on.
    pub fn race_free_samples(&self) -> u64 {
        self.stats.race_free
    }

    /// race_free@k: the Eq. 1 estimator over samples whose build succeeded
    /// and whose static analysis reported no error-severity finding.
    pub fn race_free_at_k(&self, k: u32) -> f64 {
        pareval_metrics::race_free_at_k(self.samples(), self.race_free_samples(), u64::from(k))
    }

    /// Mean total inference tokens per sample.
    pub fn tokens(&self) -> MeanAccumulator {
        MeanAccumulator::from_sum_count(self.stats.token_total as f64, self.stats.samples)
    }

    /// Failed-build logs with ground-truth categories (Fig. 3 input),
    /// in sample order. Empty on a streaming plan — log text is a raw
    /// per-sample view; use [`Self::error_category_counts`] for the
    /// categorical summary, which every plan keeps.
    pub fn error_logs(&self) -> impl Iterator<Item = LogEntry> + '_ {
        self.records.iter().filter_map(|r| {
            let overall = r.result.overall.as_ref()?;
            if overall.built {
                return None;
            }
            let truth = overall.error_category?;
            Some(LogEntry {
                text: overall.build_log.clone(),
                truth,
            })
        })
    }

    /// Per-category counts of failed overall builds.
    pub fn error_category_counts(&self) -> BTreeMap<ErrorCategory, u64> {
        self.stats.errors.clone()
    }

    /// Findings that carried a machine-applicable fix-it. Zero unless the
    /// grid ran with `EvalConfig::analyze` on.
    pub fn fixit_count(&self) -> u64 {
        self.stats.fixits
    }

    /// Per-rule counts of static-analysis findings.
    pub fn finding_rule_counts(&self) -> BTreeMap<minihpc_analyze::Rule, u64> {
        self.stats.race_rules.clone()
    }
}

/// The one collection path: runner workers (concurrently), journal replay
/// and [`ExperimentResults::from_records`] all hand records to
/// [`Collector::add`], which folds each into its cell and retains it only
/// when the plan does not stream. Folding is order-independent and
/// retained records are re-sorted by sample index in
/// [`Collector::finish`], so any arrival order yields identical results.
pub(crate) struct Collector {
    cells: Mutex<BTreeMap<CellKey, CellResult>>,
    retain: bool,
}

impl Collector {
    /// One entry per plan cell with the plan's feasibility and no samples.
    /// (A feasible cell scheduled with zero samples is still feasible; an
    /// infeasible record demotes its cell during collection.)
    pub(crate) fn new(plan: &ExperimentPlan) -> Self {
        let cells = plan
            .cells()
            .iter()
            .map(|spec| {
                let cell = CellResult {
                    feasible: spec.feasible,
                    ..CellResult::default()
                };
                (spec.key, cell)
            })
            .collect();
        Collector {
            cells: Mutex::new(cells),
            retain: !plan.streaming(),
        }
    }

    /// # Panics
    ///
    /// Panics if the record's [`CellKey`] does not appear in the plan —
    /// every record must come from executing that plan's own
    /// [`SampleSpec`](crate::plan::SampleSpec)s (replaying records against
    /// a narrower plan is a caller bug, not a recoverable state).
    pub(crate) fn add(&self, record: SampleRecord) {
        self.cells
            .lock()
            .expect("collector poisoned")
            .get_mut(&record.key)
            .expect("runner produced a record for a cell not in the plan")
            .add(record, self.retain);
    }

    pub(crate) fn finish(self) -> ExperimentResults {
        let mut cells = self.cells.into_inner().expect("collector poisoned");
        for cell in cells.values_mut() {
            cell.records.sort_by_key(|r| r.sample_index);
        }
        ExperimentResults { cells }
    }
}

/// All cell results of one experiment run, keyed by [`CellKey`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentResults {
    pub cells: BTreeMap<CellKey, CellResult>,
}

impl ExperimentResults {
    /// Collect records into per-cell results through the same collector
    /// the runners use.
    ///
    /// Accepts any record source — a `Vec`, or a lazy journal replay — and
    /// consumes it in a single pass, moving each record straight into its
    /// cell: never an extra buffered copy of the input.
    ///
    /// Any record order yields identical results. Cell construction is
    /// atomic: a cell whose plan — or any of whose records — says
    /// infeasible holds no samples at all.
    ///
    /// # Panics
    ///
    /// Panics if a record's [`CellKey`] does not appear in `plan`.
    pub fn from_records(
        plan: &ExperimentPlan,
        records: impl IntoIterator<Item = SampleRecord>,
    ) -> Self {
        let collector = Collector::new(plan);
        for record in records {
            collector.add(record);
        }
        collector.finish()
    }

    pub fn cell(
        &self,
        pair: TranslationPair,
        technique: Technique,
        model: &str,
        app: &str,
    ) -> Option<&CellResult> {
        self.cells
            .get(&(pair, technique, model, app) as &dyn CellQuery)
    }

    /// The deepest repair round recorded anywhere in the grid (0 when the
    /// run had no repair budget or every build succeeded first try).
    pub fn max_repair_round(&self) -> u32 {
        self.cells
            .values()
            .map(CellResult::max_repair_round)
            .max()
            .unwrap_or(0)
    }

    /// Fig. 3 input: all failed-build logs across cells, tagged with model
    /// names, in `(CellKey, sample_index)` order.
    ///
    /// Note: `CellKey` orders pairs and techniques by enum declaration,
    /// where the pre-refactor string keys ordered them lexically by
    /// `pair.id()` / `technique.name()`. On grids spanning several pairs or
    /// techniques the log *sequence* therefore differs from the old API
    /// (the per-category counts of [`Self::error_counts`] do not), which
    /// can nudge the order-sensitive clustering pipeline downstream.
    pub fn error_logs_with_models(&self) -> Vec<(String, LogEntry)> {
        let mut out = Vec::new();
        for (key, cell) in &self.cells {
            for log in cell.error_logs() {
                out.push((key.model.to_string(), log));
            }
        }
        out
    }

    /// Per-(model, category) counts of build failures (the ground-truth
    /// counterpart of Fig. 3).
    pub fn error_counts(&self) -> BTreeMap<(String, ErrorCategory), usize> {
        let mut out: BTreeMap<(String, ErrorCategory), usize> = BTreeMap::new();
        for (key, cell) in &self.cells {
            for (truth, n) in cell.error_category_counts() {
                *out.entry((key.model.to_string(), truth)).or_default() += n as usize;
            }
        }
        out
    }

    /// Per-(model, rule) counts of static-analysis findings across the
    /// grid. Empty unless the grid ran with `EvalConfig::analyze` on.
    pub fn race_finding_counts(&self) -> BTreeMap<(String, minihpc_analyze::Rule), usize> {
        let mut out: BTreeMap<(String, minihpc_analyze::Rule), usize> = BTreeMap::new();
        for (key, cell) in &self.cells {
            for (rule, n) in cell.finding_rule_counts() {
                *out.entry((key.model.to_string(), rule)).or_default() += n as usize;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalPipeline;
    use crate::plan::ExperimentPlan;
    use crate::runner::Runner;
    use crate::sched::ScheduledRunner;
    use minihpc_lang::model::TranslationPair;
    use pareval_llm::all_models;
    use pareval_translate::Technique;

    fn one_cell_plan(samples: u32) -> ExperimentPlan {
        ExperimentPlan::builder()
            .samples(samples)
            // Seed 42 gives this cell a mixed pass record (4/6), so the
            // k > 1 estimates are strictly between pass@1 and 1.
            .seed(42)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .techniques([Technique::NonAgentic])
            .models(all_models().into_iter().filter(|m| m.name == "o4-mini"))
            .apps(["nanoXOR"])
            .build()
    }

    #[test]
    fn pass_at_k_grows_with_k() {
        let plan = one_cell_plan(6);
        let results = ScheduledRunner::new(1).run(&plan);
        let cell = results
            .cell(
                TranslationPair::CUDA_TO_OMP_OFFLOAD,
                Technique::NonAgentic,
                "o4-mini",
                "nanoXOR",
            )
            .unwrap();
        assert_eq!(cell.samples(), 6);
        let p1 = cell.pass_at_k(Scoring::CodeOnly, 1);
        let p5 = cell.pass_at_k(Scoring::CodeOnly, 5);
        // o4-mini passes this cell sometimes but not always, so a larger
        // draw strictly helps.
        assert!(p1 > 0.0, "p1 = {p1}");
        assert!(p5 > p1, "p5 = {p5} <= p1 = {p1}");
        assert!(p5 <= 1.0 + 1e-12);
        // build@k dominates pass@k for every k.
        for k in 1..=6 {
            assert!(cell.build_at_k(Scoring::CodeOnly, k) >= cell.pass_at_k(Scoring::CodeOnly, k));
        }
    }

    #[test]
    fn rate_of_empty_cell_is_zero() {
        let empty = CellResult::default();
        for metric in [Metric::Build, Metric::Pass] {
            for scoring in Scoring::ALL {
                assert_eq!(empty.rate(metric, scoring, 1), 0.0);
                assert_eq!(empty.rate(metric, scoring, 5), 0.0);
            }
        }
        assert!(empty.tokens().mean().is_none());
    }

    #[test]
    fn infeasible_cell_construction_is_atomic() {
        // Run real samples, then forge an infeasible record into the middle
        // of the batch: the whole cell must collapse to "not run" with no
        // leftover token / error-log state.
        let plan = one_cell_plan(3);
        let pipeline = EvalPipeline::new(plan.eval().clone());
        let mut records: Vec<_> = plan
            .sample_specs()
            .iter()
            .map(|s| pipeline.execute(&plan, s))
            .collect();
        let mut forged = records[1].clone();
        forged.result.feasible = false;
        forged.result.code_only = None;
        forged.result.overall = None;
        records[1] = forged;
        let results = ExperimentResults::from_records(&plan, records);
        let cell = results
            .cell(
                TranslationPair::CUDA_TO_OMP_OFFLOAD,
                Technique::NonAgentic,
                "o4-mini",
                "nanoXOR",
            )
            .unwrap();
        assert!(!cell.feasible());
        assert_eq!(cell.samples(), 0);
        assert!(cell.tokens().mean().is_none());
        assert_eq!(cell.error_logs().count(), 0);
    }

    #[test]
    fn results_equal_regardless_of_record_order() {
        let plan = one_cell_plan(4);
        let pipeline = EvalPipeline::new(plan.eval().clone());
        let records: Vec<_> = plan
            .sample_specs()
            .iter()
            .map(|s| pipeline.execute(&plan, s))
            .collect();
        let mut shuffled = records.clone();
        shuffled.reverse();
        assert_eq!(
            ExperimentResults::from_records(&plan, records),
            ExperimentResults::from_records(&plan, shuffled)
        );
    }

    #[test]
    fn per_round_accessors_default_to_final_outcome_without_repair() {
        // A budget-0 run records no rounds; every round must report the
        // final (only) outcome, and rate_at_round == rate.
        let plan = one_cell_plan(4);
        let results = ScheduledRunner::new(1).run(&plan);
        let cell = results
            .cell(
                TranslationPair::CUDA_TO_OMP_OFFLOAD,
                Technique::NonAgentic,
                "o4-mini",
                "nanoXOR",
            )
            .unwrap();
        assert_eq!(cell.max_repair_round(), 0);
        for round in [0, 1, 5] {
            for metric in [Metric::Build, Metric::Pass] {
                for scoring in Scoring::ALL {
                    assert_eq!(
                        cell.rate_at_round(metric, scoring, 1, round),
                        cell.rate(metric, scoring, 1)
                    );
                }
            }
            assert_eq!(cell.tokens_at_round(round).mean(), cell.tokens().mean());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::plan::CellKey;
    use crate::task::{EvalOutcome, SampleResult};
    use pareval_llm::TokenUsage;
    use proptest::prelude::*;

    /// A cell whose records succeed exactly where `successes` says, built
    /// through the collector's fold path.
    fn forged_cell(successes: &[bool]) -> CellResult {
        let key = CellKey {
            pair: TranslationPair::CUDA_TO_OMP_OFFLOAD,
            technique: Technique::NonAgentic,
            model: "o4-mini",
            app: "nanoXOR",
        };
        let mut cell = CellResult {
            feasible: true,
            ..CellResult::default()
        };
        for (i, &ok) in successes.iter().enumerate() {
            let outcome = EvalOutcome {
                built: ok,
                passed: ok,
                error_category: None,
                build_log: String::new(),
                error_diagnostics: Vec::new(),
            };
            let record = SampleRecord {
                key,
                sample_index: i as u32,
                result: SampleResult {
                    feasible: true,
                    failure_reason: None,
                    code_only: Some(outcome.clone()),
                    overall: Some(outcome),
                    tokens: TokenUsage::default(),
                    rounds: Vec::new(),
                    analysis: Vec::new(),
                },
            };
            cell.add(record, true);
        }
        cell
    }

    proptest! {
        /// The shared edge-semantics pin (see `pass_at_k`'s docs): the
        /// harness-side `CellResult::rate` must agree with the estimator
        /// for every k — including k > samples(), where both saturate to
        /// 1 iff any sample succeeded instead of erroring.
        #[test]
        fn rate_agrees_with_pass_at_k(
            pattern in proptest::collection::vec(any::<bool>(), 0..12),
            k in 1u32..30,
        ) {
            let cell = forged_cell(&pattern);
            let n = cell.samples();
            let c = cell.successes(Metric::Pass, Scoring::Overall);
            let v = cell.rate(Metric::Pass, Scoring::Overall, k);
            prop_assert_eq!(v, pass_at_k(n, c, u64::from(k)));
            if u64::from(k) > n {
                prop_assert_eq!(v, if c > 0 { 1.0 } else { 0.0 });
            }
        }
    }
}
