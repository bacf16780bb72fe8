//! The three named grids the benchmark drives, each built from a plan
//! seed: the plan's own seed and, on `gen-stress`, every generator spec.

use minihpc_gen::{GenSpec, KernelKind};
use minihpc_lang::model::TranslationPair;
use pareval_apps::Application;
use pareval_core::{EvalConfig, ExperimentPlan};
use pareval_llm::TranslationBackend;
use pareval_translate::Technique;
use std::path::Path;
use std::sync::Arc;

/// Synthetic apps on `gen-stress`: with XSBench, 101 apps × 3 techniques ×
/// 5 models = 1515 cells.
const GENERATED_APPS: u64 = 100;

/// Disk-tier budget of the traced run's disk-backed `gen-stress` grid. The
/// grid writes about 2 MB of outcome and unit entries, so a 1 MB budget
/// makes LRU eviction run.
const DISK_BUDGET: u64 = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ExperimentPlan::full(5)`: the paper's Fig. 2 grid.
    PaperGrid,
    /// CUDA→OMP-offload × {non-agentic, top-down} × {SimpleMOC-kernel,
    /// XSBench, llm.c} × 5 models, repair budget 3, analyzer on.
    RepairHeavy,
    /// 100 generated apps plus XSBench, threads→offload, streaming
    /// collection and a journal, 2 workers.
    GenStress,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::RepairHeavy,
        Workload::GenStress,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::RepairHeavy => "repair-heavy",
            Workload::GenStress => "gen-stress",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scheduler workers of the timed run.
    pub fn workers(self) -> usize {
        match self {
            Workload::GenStress => 2,
            Workload::PaperGrid | Workload::RepairHeavy => 1,
        }
    }

    /// Does the grid journal its samples?
    pub fn journaled(self) -> bool {
        self == Workload::GenStress
    }

    /// The generator specs of this grid (none outside `gen-stress`). File
    /// counts and kernel mixes rotate with the index for cost spread, and
    /// the seed draws only names and kernel constants, so every seed's
    /// grid has the same shape. Every spec is a clean threads-model
    /// Makefile repo, which the registry can take as a grid application.
    pub fn gen_specs(self, seed: u64) -> Vec<GenSpec> {
        if self != Workload::GenStress {
            return Vec::new();
        }
        (0..GENERATED_APPS)
            .map(|i| {
                let kernels = match i % 3 {
                    0 => KernelKind::ALL.to_vec(),
                    1 => vec![KernelKind::Stencil, KernelKind::Reduction],
                    _ => vec![KernelKind::GemmLike, KernelKind::MemcpyBound],
                };
                GenSpec::new(mix(seed, i))
                    .with_files(1 + (i as usize % 4))
                    .with_kernels(kernels)
            })
            .collect()
    }

    /// The grid's plan. `generated` holds the apps of [`Workload::gen_specs`].
    /// With `disk_cache`, the `gen-stress` build cache gains a disk tier
    /// there; the other grids ignore it.
    pub fn plan(
        self,
        seed: u64,
        generated: Vec<Application>,
        backend: Arc<dyn TranslationBackend>,
        disk_cache: Option<&Path>,
    ) -> ExperimentPlan {
        let builder = ExperimentPlan::builder()
            .samples(5)
            .seed(seed)
            .backend(backend);
        match self {
            Workload::PaperGrid => builder.build(),
            Workload::RepairHeavy => builder
                .pairs([TranslationPair::CUDA_TO_OMP_OFFLOAD])
                .techniques([Technique::NonAgentic, Technique::TopDownAgentic])
                .apps(["SimpleMOC-kernel", "XSBench", "llm.c"])
                .eval(EvalConfig {
                    max_cases: 1,
                    repair_budget: 3,
                    analyze: true,
                    ..EvalConfig::default()
                })
                .build(),
            Workload::GenStress => builder
                .pairs([TranslationPair::OMP_THREADS_TO_OFFLOAD])
                .apps(["XSBench"])
                .extend_apps(generated)
                .eval(EvalConfig {
                    max_cases: 1,
                    disk_cache_dir: disk_cache.map(Path::to_path_buf),
                    disk_cache_budget: DISK_BUDGET,
                    ..EvalConfig::default()
                })
                .streaming(true)
                .build(),
        }
    }
}

/// Grids per benchmark seed: each run cycles through the plans seeded
/// `seed * 8` to `seed * 8 + 7`, so a run's figures average over eight
/// draws of the grid instead of resting on one.
pub const GRIDS_PER_SEED: u64 = 8;

/// The plan seeds of benchmark seed `seed`, in the order a run cycles them.
pub fn plan_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0..GRIDS_PER_SEED).map(move |j| seed.wrapping_mul(GRIDS_PER_SEED).wrapping_add(j))
}

/// SplitMix64 of `seed` and `index`: distinct, well-spread generator seeds
/// for each app of one benchmark seed.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
