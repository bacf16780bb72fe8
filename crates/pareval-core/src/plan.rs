//! The Plan layer: deterministic enumeration of an experiment grid.
//!
//! An [`ExperimentPlan`] is built once (via [`ExperimentPlan::builder`]) and
//! then handed to a [`crate::runner::Runner`]. Building the plan resolves
//! everything that can be known without executing a single sample:
//!
//! - the typed [`CellKey`] of every (pair, technique, model, app) cell,
//! - each cell's plan-time *feasibility* (configurations the paper could not
//!   run — context windows, compute budget — are marked up front instead of
//!   being discovered one failed sample at a time),
//! - the flat list of [`SampleSpec`]s a runner executes, each independently
//!   seeded so they can be sharded across workers in any order.

use crate::task::{all_tasks, EvalConfig, Task};
use minihpc_lang::fnv::Fnv128;
use minihpc_lang::model::TranslationPair;
use pareval_apps::Application;
use pareval_llm::{all_models, ModelProfile, SimulatedBackend, TranslationBackend};
use pareval_translate::Technique;
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// [`CellKey`] carries `&'static str` names so keys stay `Copy` and
/// comparisons never allocate. The hand-written suite's names are string
/// literals already; generated-app names are owned, so the first plan that
/// enumerates one leaks a deduplicated copy here. The table is global and
/// append-only: re-planning the same generated family costs nothing new,
/// and the leak is bounded by the number of *distinct* generated names in
/// the process lifetime.
// The parameter really is `&Cow`, not `&str`: the `Borrowed` arm must
// pass its `&'static str` through without touching the intern table.
#[allow(clippy::ptr_arg)]
fn intern_name(name: &Cow<'static, str>) -> &'static str {
    if let Cow::Borrowed(s) = name {
        return s;
    }
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut table = INTERNED.lock().expect("name interner poisoned");
    if let Some(s) = table.get(name.as_ref()) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.as_ref().to_owned().into_boxed_str());
    table.insert(leaked);
    leaked
}

/// Typed key of one experiment cell.
///
/// Replaces the stringly `(String, String, String, String)` tuple: `Copy`,
/// `Ord` (pair, technique, model, app — the aggregation order), and lookups
/// never allocate. Model and app names are the `&'static str` interned in
/// [`ModelProfile`] / [`pareval_apps::Application`]; map lookups by
/// non-static `&str` go through [`CellQuery`] (see [`Borrow`] impl below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    pub pair: TranslationPair,
    pub technique: Technique,
    pub model: &'static str,
    pub app: &'static str,
}

/// Borrowed view of a [`CellKey`] for allocation-free map lookups with
/// arbitrary `&str` model/app names.
pub trait CellQuery {
    fn fields(&self) -> (TranslationPair, Technique, &str, &str);
}

impl CellQuery for CellKey {
    fn fields(&self) -> (TranslationPair, Technique, &str, &str) {
        (self.pair, self.technique, self.model, self.app)
    }
}

impl<'a> CellQuery for (TranslationPair, Technique, &'a str, &'a str) {
    fn fields(&self) -> (TranslationPair, Technique, &str, &str) {
        (self.0, self.1, self.2, self.3)
    }
}

impl<'a> Borrow<dyn CellQuery + 'a> for CellKey {
    fn borrow(&self) -> &(dyn CellQuery + 'a) {
        self
    }
}

impl PartialEq for dyn CellQuery + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.fields() == other.fields()
    }
}

impl Eq for dyn CellQuery + '_ {}

impl PartialOrd for dyn CellQuery + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn CellQuery + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.fields().cmp(&other.fields())
    }
}

/// One enumerated cell of the plan: its key, indices into the plan's task,
/// model, and backend tables, and the sampling parameters resolved at plan
/// time.
#[derive(Debug, Clone)]
pub struct CellSpec {
    pub key: CellKey,
    /// Index into [`ExperimentPlan::tasks`].
    pub task: usize,
    /// Index into [`ExperimentPlan::models`].
    pub model: usize,
    /// Index into [`ExperimentPlan::backends`] — the translation backend
    /// this cell runs on (grids can mix backends per cell).
    pub backend: usize,
    /// Plan-time feasibility, as judged by the cell's backend (the default
    /// [`SimulatedBackend`] uses the paper calibration): infeasible cells
    /// get zero [`SampleSpec`]s, so a partially-run infeasible cell cannot
    /// exist.
    pub feasible: bool,
    /// Samples scheduled for this cell (0 when infeasible).
    pub samples: u32,
    /// Plan-time relative cost estimate of one sample of this cell —
    /// copied into every [`SampleSpec::cost_hint`] the cell emits.
    pub cost_hint: u32,
}

/// Plan-time relative cost estimate of one sample: the scheduling weight
/// the work-stealing runner seeds its injector with (most expensive first,
/// the classic longest-processing-time heuristic), derived from everything
/// the plan knows before a single sample runs:
///
/// - the **technique** (SWE-agent iterates until the build passes, the
///   top-down pipeline assembles dependency context, non-agentic is one
///   pass per file),
/// - the **repair budget** (a failed build can cost up to `repair_budget`
///   extra evaluate rounds, so budgeted samples have a heavier tail),
/// - the cell's **backend feasibility** (an infeasible cell costs nothing;
///   it is never scheduled).
///
/// Units are arbitrary — only the relative order matters, and mispredicted
/// hints are corrected at run time by stealing.
pub fn sample_cost_hint(technique: Technique, eval: &EvalConfig, feasible: bool) -> u32 {
    if !feasible {
        return 0;
    }
    let base = match technique {
        Technique::NonAgentic => 2,
        Technique::TopDownAgentic => 3,
        Technique::SweAgent => 5,
    };
    base * (1 + eval.repair_budget)
}

/// A declarative cell predicate for [`ExperimentPlanBuilder::backend_for`]:
/// `None` fields match anything. Plain data (not a closure) so plans and
/// builders stay `Clone + Debug`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellFilter {
    pub pair: Option<TranslationPair>,
    pub technique: Option<Technique>,
    pub model: Option<String>,
    pub app: Option<String>,
}

impl CellFilter {
    /// Matches every cell.
    pub fn any() -> Self {
        Self::default()
    }

    pub fn pair(mut self, pair: TranslationPair) -> Self {
        self.pair = Some(pair);
        self
    }

    pub fn technique(mut self, technique: Technique) -> Self {
        self.technique = Some(technique);
        self
    }

    pub fn model(mut self, model: impl Into<String>) -> Self {
        self.model = Some(model.into());
        self
    }

    pub fn app(mut self, app: impl Into<String>) -> Self {
        self.app = Some(app.into());
        self
    }

    pub fn matches(&self, key: &CellKey) -> bool {
        self.pair.is_none_or(|p| p == key.pair)
            && self.technique.is_none_or(|t| t == key.technique)
            && self.model.as_deref().is_none_or(|m| m == key.model)
            && self.app.as_deref().is_none_or(|a| a == key.app)
    }
}

/// One schedulable unit of work: a single seeded generation of one cell.
/// Samples are independent, so a runner may execute them in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Index into [`ExperimentPlan::cells`].
    pub cell: usize,
    pub sample_index: u32,
    /// Plan-time relative cost estimate (see [`sample_cost_hint`]): the
    /// weight [`crate::sched::ScheduledRunner`] sorts by when seeding its
    /// injector. Purely advisory — results never depend on it.
    pub cost_hint: u32,
}

/// A fully enumerated experiment: the immutable input to a runner.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    seed: u64,
    eval: EvalConfig,
    tasks: Vec<Task>,
    models: Vec<ModelProfile>,
    backends: Vec<Arc<dyn TranslationBackend>>,
    cells: Vec<CellSpec>,
    streaming: bool,
}

impl ExperimentPlan {
    pub fn builder() -> ExperimentPlanBuilder {
        ExperimentPlanBuilder::default()
    }

    /// The paper's full grid with N samples per cell.
    pub fn full(samples: u32) -> Self {
        Self::builder().samples(samples).build()
    }

    /// A small smoke-test slice (one pair, the three XOR apps).
    pub fn quick() -> Self {
        Self::builder()
            .samples(3)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .apps(["nanoXOR", "microXORh", "microXOR"])
            .build()
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn eval(&self) -> &EvalConfig {
        &self.eval
    }

    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    pub fn models(&self) -> &[ModelProfile] {
        &self.models
    }

    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// The backend table: index 0 is the default, later entries were added
    /// by [`ExperimentPlanBuilder::backend_for`] overrides.
    pub fn backends(&self) -> &[Arc<dyn TranslationBackend>] {
        &self.backends
    }

    pub fn task_of(&self, cell: &CellSpec) -> &Task {
        &self.tasks[cell.task]
    }

    pub fn model_of(&self, cell: &CellSpec) -> &ModelProfile {
        &self.models[cell.model]
    }

    pub fn backend_of(&self, cell: &CellSpec) -> &dyn TranslationBackend {
        &*self.backends[cell.backend]
    }

    /// Total samples a runner will execute (infeasible cells contribute 0).
    pub fn total_samples(&self) -> usize {
        self.cells.iter().map(|c| c.samples as usize).sum()
    }

    /// Whether collection folds samples into per-cell sufficient statistics
    /// as they arrive instead of retaining every raw [`crate::SampleRecord`]
    /// (see [`ExperimentPlanBuilder::streaming`]).
    pub fn streaming(&self) -> bool {
        self.streaming
    }

    /// Content fingerprint of the plan, pinned in a journal header (see
    /// [`crate::journal`]) so a resume can refuse a journal written by a
    /// different grid. Hashes everything that determines the result set:
    /// the seed, the result-affecting [`EvalConfig`] knobs, and every
    /// cell's key, feasibility, sample count, and backend *name*. Pure
    /// wall-clock knobs (`build_cache`, the disk-cache tier) are excluded —
    /// toggling them mid-resume is legal because results are byte-identical
    /// either way.
    pub fn fingerprint(&self) -> u128 {
        let mut h = Fnv128::new();
        h.field(b"pareval-plan-v1");
        h.field(&self.seed.to_le_bytes());
        h.field(&(self.eval.max_cases as u64).to_le_bytes());
        h.field(&self.eval.max_steps.to_le_bytes());
        h.field(&self.eval.repair_budget.to_le_bytes());
        h.field(&(self.eval.repair_diag_lines as u64).to_le_bytes());
        // Analyzer knobs change result bytes, but only when on: hashing
        // them conditionally keeps analyzer-off fingerprints (and thus
        // existing journals) byte-identical to the pre-analyzer format.
        if self.eval.analyze {
            h.field(b"analyze");
            h.field(&(self.eval.analyze_max_findings as u64).to_le_bytes());
        }
        if self.eval.repair_guided {
            h.field(b"repair-guided");
        }
        for cell in &self.cells {
            h.field(cell.key.pair.id().as_bytes());
            h.field(cell.key.technique.name().as_bytes());
            h.field(cell.key.model.as_bytes());
            h.field(cell.key.app.as_bytes());
            // Generated apps additionally pin their GenSpec digest (seed +
            // every generator knob): regenerating the family differently
            // under the same names must invalidate old journals. Hashed
            // conditionally so hand-written-suite fingerprints stay
            // byte-identical to the pre-generator format.
            if let Some(digest) = self.tasks[cell.task].app.gen_digest {
                h.field(b"gen");
                h.field(&digest.to_le_bytes());
            }
            h.field(&[cell.feasible as u8]);
            h.field(&cell.samples.to_le_bytes());
            h.field(self.backends[cell.backend].name().as_bytes());
        }
        h.finish()
    }

    /// The flat work list, in deterministic enumeration order.
    pub fn sample_specs(&self) -> Vec<SampleSpec> {
        let mut out = Vec::with_capacity(self.total_samples());
        for (i, cell) in self.cells.iter().enumerate() {
            for sample_index in 0..cell.samples {
                out.push(SampleSpec {
                    cell: i,
                    sample_index,
                    cost_hint: cell.cost_hint,
                });
            }
        }
        out
    }
}

/// Default experiment seed: the ICPP'25 presentation date.
pub const DEFAULT_SEED: u64 = 20250908;

/// The default evaluation knobs for grid runs (one developer test case per
/// sample keeps the full grid tractable for an interpreter substrate).
pub(crate) fn default_eval() -> EvalConfig {
    EvalConfig {
        max_cases: 1,
        ..EvalConfig::default()
    }
}

/// Builder for [`ExperimentPlan`]. Defaults reproduce the paper's full grid
/// (all pairs, the three techniques, all five models, every app).
#[derive(Debug, Clone)]
pub struct ExperimentPlanBuilder {
    samples: u32,
    seed: u64,
    pairs: Vec<TranslationPair>,
    techniques: Vec<Technique>,
    models: Vec<ModelProfile>,
    apps: Vec<String>,
    extra_apps: Vec<Application>,
    eval: EvalConfig,
    backend: Arc<dyn TranslationBackend>,
    backend_overrides: Vec<(CellFilter, Arc<dyn TranslationBackend>)>,
    streaming: bool,
}

impl Default for ExperimentPlanBuilder {
    fn default() -> Self {
        ExperimentPlanBuilder {
            samples: 3,
            seed: DEFAULT_SEED,
            pairs: TranslationPair::ALL.to_vec(),
            techniques: Technique::ALL.to_vec(),
            models: all_models(),
            apps: Vec::new(),
            extra_apps: Vec::new(),
            eval: default_eval(),
            backend: Arc::new(SimulatedBackend),
            backend_overrides: Vec::new(),
            streaming: false,
        }
    }
}

impl ExperimentPlanBuilder {
    /// Samples (generations) per cell; the paper uses 25–50, the default
    /// here keeps the full grid tractable for an interpreter substrate.
    pub fn samples(mut self, samples: u32) -> Self {
        self.samples = samples;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn pairs(mut self, pairs: impl IntoIterator<Item = TranslationPair>) -> Self {
        self.pairs = pairs.into_iter().collect();
        self
    }

    pub fn techniques(mut self, techniques: impl IntoIterator<Item = Technique>) -> Self {
        self.techniques = techniques.into_iter().collect();
        self
    }

    pub fn models(mut self, models: impl IntoIterator<Item = ModelProfile>) -> Self {
        self.models = models.into_iter().collect();
        self
    }

    /// Restrict to these apps (names); empty = all.
    pub fn apps<I, S>(mut self, apps: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.apps = apps.into_iter().map(Into::into).collect();
        self
    }

    pub fn eval(mut self, eval: EvalConfig) -> Self {
        self.eval = eval;
        self
    }

    /// Register additional applications beyond the hand-written suite —
    /// the open-registry path `pareval_apps::suite_with_generated` feeds.
    /// Extra apps are explicitly requested, so the [`Self::apps`] name
    /// filter does not apply to them; their tasks enumerate after the
    /// built-in suite's, pair-major, in the order given here.
    pub fn extend_apps(mut self, apps: impl IntoIterator<Item = Application>) -> Self {
        self.extra_apps.extend(apps);
        self
    }

    /// Fold each sample into per-cell sufficient statistics on arrival
    /// instead of retaining every raw [`crate::SampleRecord`]: peak
    /// retained records become O(in-flight samples) instead of O(total
    /// samples), which is what makes thousand-cell generated grids
    /// tractable. All rate/count accessors stay exact; only the raw
    /// per-sample views ([`crate::CellResult::records`], `error_logs`) come
    /// back empty. Collection-mode only — journal bytes and fingerprints
    /// are unchanged, so a streaming run can resume a non-streaming
    /// journal and vice versa.
    pub fn streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
    }

    /// The default [`TranslationBackend`] for every cell
    /// ([`SimulatedBackend`] unless set). `Arc<ConcreteBackend>` coerces,
    /// so `.backend(Arc::new(OracleBackend))` just works; pass a clone of
    /// an existing handle to share stateful backends (e.g. a recorder)
    /// with the caller.
    pub fn backend(mut self, backend: Arc<dyn TranslationBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// Route the cells matching `filter` to a different backend — a grid
    /// can mix backends per cell (e.g. oracle upper-bounds for one model
    /// column, replay for the rest). Later overrides win on overlap.
    pub fn backend_for(mut self, filter: CellFilter, backend: Arc<dyn TranslationBackend>) -> Self {
        self.backend_overrides.push((filter, backend));
        self
    }

    /// Enumerate the grid. Cell order is the harness's canonical order —
    /// tasks in `(pair, app)` order, then techniques, then models — and two
    /// builds from the same inputs produce identical plans. Duplicate
    /// technique or model entries enumerate each cell once (first wins), so
    /// a sloppy input cannot double-schedule — and double-count — a cell.
    pub fn build(self) -> ExperimentPlan {
        let mut tasks: Vec<Task> = all_tasks()
            .into_iter()
            .filter(|t| self.pairs.contains(&t.pair))
            .filter(|t| self.apps.is_empty() || self.apps.iter().any(|a| *a == *t.app.name))
            .collect();
        // Extra (generated) apps enumerate after the built-in suite,
        // pair-major like `all_tasks`, filtered only by repo presence.
        for pair in TranslationPair::ALL {
            if !self.pairs.contains(&pair) {
                continue;
            }
            for app in &self.extra_apps {
                if app.repo(pair.from).is_some() {
                    tasks.push(Task {
                        app: app.clone(),
                        pair,
                    });
                }
            }
        }
        let mut backends: Vec<Arc<dyn TranslationBackend>> = vec![self.backend];
        backends.extend(self.backend_overrides.iter().map(|(_, b)| Arc::clone(b)));
        let mut seen = std::collections::BTreeSet::new();
        let mut cells = Vec::with_capacity(tasks.len() * self.techniques.len() * self.models.len());
        for (ti, task) in tasks.iter().enumerate() {
            for technique in &self.techniques {
                for (mi, model) in self.models.iter().enumerate() {
                    let key = CellKey {
                        pair: task.pair,
                        technique: *technique,
                        model: model.name,
                        app: intern_name(&task.app.name),
                    };
                    if !seen.insert(key) {
                        continue;
                    }
                    // Backend table slot: the last matching override, else
                    // the default at index 0.
                    let backend = self
                        .backend_overrides
                        .iter()
                        .rposition(|(f, _)| f.matches(&key))
                        .map_or(0, |i| i + 1);
                    let feasible = backends[backend].cell_feasible(
                        task.pair,
                        *technique,
                        model.name,
                        &task.app.name,
                    );
                    cells.push(CellSpec {
                        key,
                        task: ti,
                        model: mi,
                        backend,
                        feasible,
                        samples: if feasible { self.samples } else { 0 },
                        cost_hint: sample_cost_hint(*technique, &self.eval, feasible),
                    });
                }
            }
        }
        ExperimentPlan {
            seed: self.seed,
            eval: self.eval,
            tasks,
            models: self.models,
            backends,
            cells,
            streaming: self.streaming,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_plan_fingerprint_is_pinned() {
        // Journals written by earlier harness versions carry this value in
        // their header; it must stay bit-identical for them to resume.
        assert_eq!(
            ExperimentPlan::quick().fingerprint(),
            0x74badfd8346f83889330afd4717f4ebe
        );
    }

    #[test]
    fn quick_plan_enumerates_expected_cells() {
        let plan = ExperimentPlan::quick();
        // 3 apps × 1 pair × 3 techniques × 5 models.
        assert_eq!(plan.cells().len(), 45);
        // SWE-agent ran only CUDA→Kokkos/GPT-4o-mini: all 15 SWE cells of
        // this CUDA→offload slice are infeasible, scheduled with 0 samples.
        let swe: Vec<_> = plan
            .cells()
            .iter()
            .filter(|c| c.key.technique == Technique::SweAgent)
            .collect();
        assert_eq!(swe.len(), 15);
        assert!(swe.iter().all(|c| !c.feasible && c.samples == 0));
        // Every feasible cell got the requested sample count.
        assert!(plan
            .cells()
            .iter()
            .filter(|c| c.feasible)
            .all(|c| c.samples == 3));
        assert_eq!(
            plan.total_samples(),
            plan.cells().iter().filter(|c| c.feasible).count() * 3
        );
    }

    #[test]
    fn duplicate_inputs_do_not_double_schedule() {
        let base = ExperimentPlan::builder()
            .samples(2)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .techniques([Technique::NonAgentic])
            .apps(["nanoXOR"]);
        let clean = base.clone().build();
        let doubled = base
            .techniques([Technique::NonAgentic, Technique::NonAgentic])
            .build();
        assert_eq!(clean.cells().len(), doubled.cells().len());
        assert_eq!(clean.total_samples(), doubled.total_samples());
    }

    #[test]
    fn plans_are_deterministic() {
        let a = ExperimentPlan::quick();
        let b = ExperimentPlan::quick();
        assert_eq!(a.cells().len(), b.cells().len());
        for (x, y) in a.cells().iter().zip(b.cells()) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.samples, y.samples);
        }
        assert_eq!(a.sample_specs(), b.sample_specs());
    }

    #[test]
    fn backend_overrides_route_cells_and_feasibility() {
        use pareval_llm::OracleBackend;

        // One override: gemini cells run on the oracle, the rest on the
        // default simulation.
        let plan = ExperimentPlan::builder()
            .samples(2)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .techniques([Technique::NonAgentic])
            .apps(["XSBench"])
            .backend_for(
                CellFilter::any().model("gemini-1.5-flash"),
                Arc::new(OracleBackend),
            )
            .build();
        assert_eq!(plan.backends().len(), 2);
        for cell in plan.cells() {
            if cell.key.model == "gemini-1.5-flash" {
                assert_eq!(cell.backend, 1);
                assert_eq!(plan.backend_of(cell).name(), "oracle");
                // The paper could not run this cell (context window); the
                // oracle can, so it is feasible and scheduled.
                assert!(cell.feasible && cell.samples == 2);
            } else {
                assert_eq!(cell.backend, 0);
                assert_eq!(plan.backend_of(cell).name(), "simulated");
            }
        }
    }

    #[test]
    fn later_backend_overrides_win() {
        use pareval_llm::{OracleBackend, SimulatedBackend};

        let plan = ExperimentPlan::builder()
            .samples(1)
            .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
            .techniques([Technique::NonAgentic])
            .apps(["nanoXOR"])
            .backend_for(CellFilter::any(), Arc::new(OracleBackend))
            .backend_for(CellFilter::any().app("nanoXOR"), Arc::new(SimulatedBackend))
            .build();
        for cell in plan.cells() {
            assert_eq!(plan.backend_of(cell).name(), "simulated");
        }
    }

    #[test]
    fn cost_hints_rank_techniques_and_scale_with_repair_budget() {
        let eval0 = default_eval();
        let eval3 = EvalConfig {
            repair_budget: 3,
            ..default_eval()
        };
        // Infeasible cells cost nothing, whatever the technique.
        for t in Technique::ALL {
            assert_eq!(sample_cost_hint(t, &eval3, false), 0);
        }
        // SWE-agent > top-down > non-agentic, at any budget.
        for eval in [&eval0, &eval3] {
            let hints: Vec<u32> = Technique::ALL
                .iter()
                .map(|t| sample_cost_hint(*t, eval, true))
                .collect();
            assert!(hints[0] < hints[1] && hints[1] < hints[2], "{hints:?}");
        }
        // A repair budget multiplies the tail estimate.
        assert!(
            sample_cost_hint(Technique::NonAgentic, &eval3, true)
                > sample_cost_hint(Technique::NonAgentic, &eval0, true)
        );
        // The plan copies the per-cell hint onto every emitted spec.
        let plan = ExperimentPlan::quick();
        for spec in plan.sample_specs() {
            let cell = &plan.cells()[spec.cell];
            assert_eq!(spec.cost_hint, cell.cost_hint);
            assert!(cell.feasible && spec.cost_hint > 0);
        }
    }

    #[test]
    fn generated_apps_extend_the_grid() {
        use minihpc_gen::GenSpec;

        let specs: Vec<GenSpec> = (0..4).map(GenSpec::new).collect();
        let base = ExperimentPlan::builder()
            .samples(1)
            .pairs([TranslationPair::OMP_THREADS_TO_OFFLOAD])
            .techniques([Technique::NonAgentic]);
        let plain = base.clone().build();
        let extended = base
            .clone()
            .extend_apps(pareval_apps::suite_with_generated(&specs).split_off(6))
            .build();
        // 4 generated apps × 1 technique × 5 models of new cells, appended
        // after the built-in suite's.
        assert_eq!(extended.cells().len(), plain.cells().len() + 20);
        let gen_cells: Vec<_> = extended
            .cells()
            .iter()
            .filter(|c| c.key.app.starts_with("gen-"))
            .collect();
        assert_eq!(gen_cells.len(), 20);
        // Generated names intern to stable &'static strs: re-planning the
        // same family yields pointer-identical keys.
        let again = base
            .extend_apps(pareval_apps::suite_with_generated(&specs).split_off(6))
            .build();
        for (a, b) in extended.cells().iter().zip(again.cells()) {
            assert_eq!(a.key, b.key);
        }
        assert_eq!(extended.fingerprint(), again.fingerprint());
    }

    #[test]
    fn fingerprint_pins_generator_digest_but_not_collection_mode() {
        use minihpc_gen::GenSpec;

        let with_specs = |seed: u64, streaming: bool| {
            ExperimentPlan::builder()
                .samples(1)
                .pairs([TranslationPair::OMP_THREADS_TO_OFFLOAD])
                .techniques([Technique::NonAgentic])
                .extend_apps([pareval_apps::generated_app(&GenSpec::new(seed))])
                .streaming(streaming)
                .build()
        };
        // Same generated family → same fingerprint; different generator
        // seed → drift a resume must detect. (The app *name* embeds the
        // seed too, so also check two specs that differ only in a knob
        // that does not change the name.)
        assert_eq!(
            with_specs(7, false).fingerprint(),
            with_specs(7, false).fingerprint()
        );
        assert_ne!(
            with_specs(7, false).fingerprint(),
            with_specs(8, false).fingerprint()
        );
        let knob_a = pareval_apps::generated_app(&GenSpec::new(7).with_files(2));
        let knob_b = pareval_apps::generated_app(
            &GenSpec::new(7)
                .with_files(2)
                .with_kernels([minihpc_gen::KernelKind::Stencil]),
        );
        assert_eq!(knob_a.name, knob_b.name);
        let plan_of = |app: pareval_apps::Application| {
            ExperimentPlan::builder()
                .samples(1)
                .pairs([TranslationPair::OMP_THREADS_TO_OFFLOAD])
                .techniques([Technique::NonAgentic])
                .extend_apps([app])
                .build()
        };
        assert_ne!(
            plan_of(knob_a).fingerprint(),
            plan_of(knob_b).fingerprint(),
            "same name, different generator knobs must not share a fingerprint"
        );
        // Streaming is collection-mode only: fingerprints (and thus
        // journals) are interchangeable between modes.
        assert_eq!(
            with_specs(7, false).fingerprint(),
            with_specs(7, true).fingerprint()
        );
        // And the hand-written suite's fingerprint is untouched by the
        // gen-digest block (no generated apps → no block).
        assert_eq!(
            ExperimentPlan::quick().fingerprint(),
            ExperimentPlan::quick().fingerprint()
        );
    }

    #[test]
    fn cell_key_ord_is_grid_order() {
        let k1 = CellKey {
            pair: TranslationPair::CUDA_TO_OMP_OFFLOAD,
            technique: Technique::NonAgentic,
            model: "a",
            app: "z",
        };
        let k2 = CellKey {
            pair: TranslationPair::CUDA_TO_OMP_OFFLOAD,
            technique: Technique::NonAgentic,
            model: "b",
            app: "a",
        };
        assert!(k1 < k2, "model orders before app");
    }
}
