//! Parallel programming (execution) models and detection of which model a
//! source file is written in.
//!
//! The paper's correctness rule requires a translation to be
//! "implemented using the requested target programming model"; the detector
//! here is what the harness uses to enforce that (e.g. a "translation" that
//! leaves CUDA kernel launches in place is rejected even if it runs).

use crate::ast::{ExprKind, Item, ItemKind, StmtKind};
use crate::walk::{walk_stmts, Node};
use std::fmt;

/// The four parallel programming models in ParEval-Repo (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExecutionModel {
    /// OpenMP CPU threading (`#pragma omp parallel for`).
    OmpThreads,
    /// OpenMP GPU offloading (`#pragma omp target ...`).
    OmpOffload,
    /// NVIDIA CUDA (`__global__`, `<<<...>>>`).
    Cuda,
    /// Kokkos (views, `parallel_for`, lambdas).
    Kokkos,
}

impl ExecutionModel {
    pub const ALL: [ExecutionModel; 4] = [
        ExecutionModel::OmpThreads,
        ExecutionModel::OmpOffload,
        ExecutionModel::Cuda,
        ExecutionModel::Kokkos,
    ];

    /// Human-readable name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionModel::OmpThreads => "OpenMP Threads",
            ExecutionModel::OmpOffload => "OpenMP Offload",
            ExecutionModel::Cuda => "CUDA",
            ExecutionModel::Kokkos => "Kokkos",
        }
    }

    /// Short identifier used in file names and reports.
    pub fn id(self) -> &'static str {
        match self {
            ExecutionModel::OmpThreads => "omp-threads",
            ExecutionModel::OmpOffload => "omp-offload",
            ExecutionModel::Cuda => "cuda",
            ExecutionModel::Kokkos => "kokkos",
        }
    }

    /// Does code in this model execute on the (simulated) GPU?
    pub fn is_gpu(self) -> bool {
        !matches!(self, ExecutionModel::OmpThreads)
    }

    /// The build system generator conventionally used with this model in the
    /// paper's tasks (Kokkos uses CMake; the rest use Make).
    pub fn build_system(self) -> BuildSystemKind {
        match self {
            ExecutionModel::Kokkos => BuildSystemKind::CMake,
            _ => BuildSystemKind::Make,
        }
    }
}

impl fmt::Display for ExecutionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which build-system generator a repository uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BuildSystemKind {
    Make,
    CMake,
}

impl BuildSystemKind {
    pub fn file_name(self) -> &'static str {
        match self {
            BuildSystemKind::Make => "Makefile",
            BuildSystemKind::CMake => "CMakeLists.txt",
        }
    }
}

/// A translation pair: source model → destination model (paper Sec. 5.2).
/// `Ord` follows the `(from, to)` field order so the pair can key an
/// allocation-free cell index ([`ExecutionModel`] is already `Ord`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TranslationPair {
    pub from: ExecutionModel,
    pub to: ExecutionModel,
}

impl TranslationPair {
    pub const CUDA_TO_OMP_OFFLOAD: TranslationPair = TranslationPair {
        from: ExecutionModel::Cuda,
        to: ExecutionModel::OmpOffload,
    };
    pub const CUDA_TO_KOKKOS: TranslationPair = TranslationPair {
        from: ExecutionModel::Cuda,
        to: ExecutionModel::Kokkos,
    };
    pub const OMP_THREADS_TO_OFFLOAD: TranslationPair = TranslationPair {
        from: ExecutionModel::OmpThreads,
        to: ExecutionModel::OmpOffload,
    };

    /// The three pairs evaluated in the paper, in figure order.
    pub const ALL: [TranslationPair; 3] = [
        Self::CUDA_TO_OMP_OFFLOAD,
        Self::CUDA_TO_KOKKOS,
        Self::OMP_THREADS_TO_OFFLOAD,
    ];

    pub fn id(self) -> String {
        format!("{}-to-{}", self.from.id(), self.to.id())
    }
}

impl fmt::Display for TranslationPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} to {}", self.from, self.to)
    }
}

/// Evidence of execution-model usage found in a source file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelUsage {
    pub cuda_kernels: usize,
    pub cuda_launches: usize,
    pub cuda_api_calls: usize,
    pub omp_parallel_directives: usize,
    pub omp_target_directives: usize,
    pub kokkos_views: usize,
    pub kokkos_parallel_calls: usize,
}

impl ModelUsage {
    pub fn merge(&mut self, other: &ModelUsage) {
        self.cuda_kernels += other.cuda_kernels;
        self.cuda_launches += other.cuda_launches;
        self.cuda_api_calls += other.cuda_api_calls;
        self.omp_parallel_directives += other.omp_parallel_directives;
        self.omp_target_directives += other.omp_target_directives;
        self.kokkos_views += other.kokkos_views;
        self.kokkos_parallel_calls += other.kokkos_parallel_calls;
    }

    pub fn uses_cuda(&self) -> bool {
        self.cuda_kernels + self.cuda_launches + self.cuda_api_calls > 0
    }

    pub fn uses_omp_offload(&self) -> bool {
        self.omp_target_directives > 0
    }

    pub fn uses_omp_threads(&self) -> bool {
        self.omp_parallel_directives > 0 && self.omp_target_directives == 0
    }

    pub fn uses_kokkos(&self) -> bool {
        self.kokkos_views + self.kokkos_parallel_calls > 0
    }

    /// Which models this file shows evidence of using (possibly several, for
    /// a half-translated file).
    pub fn models(&self) -> Vec<ExecutionModel> {
        let mut out = Vec::new();
        if self.uses_cuda() {
            out.push(ExecutionModel::Cuda);
        }
        if self.uses_omp_offload() {
            out.push(ExecutionModel::OmpOffload);
        }
        if self.uses_omp_threads() {
            out.push(ExecutionModel::OmpThreads);
        }
        if self.uses_kokkos() {
            out.push(ExecutionModel::Kokkos);
        }
        out
    }

    /// Does this usage pattern satisfy "written in `model`" for the
    /// harness's target-model check? Parallel constructs of *other* GPU
    /// models must be absent.
    pub fn conforms_to(&self, model: ExecutionModel) -> bool {
        match model {
            ExecutionModel::Cuda => {
                self.uses_cuda() && !self.uses_kokkos() && !self.uses_omp_offload()
            }
            ExecutionModel::OmpOffload => {
                self.uses_omp_offload() && !self.uses_cuda() && !self.uses_kokkos()
            }
            ExecutionModel::OmpThreads => {
                self.uses_omp_threads() && !self.uses_cuda() && !self.uses_kokkos()
            }
            ExecutionModel::Kokkos => {
                self.uses_kokkos() && !self.uses_cuda() && !self.uses_omp_offload()
            }
        }
    }
}

/// Scan a parsed file's items (or a translation unit's) for evidence of
/// each execution model.
pub fn detect_usage<'a>(items: impl IntoIterator<Item = &'a Item>) -> ModelUsage {
    let mut u = ModelUsage::default();
    for item in items {
        match &item.kind {
            ItemKind::Function(f) => {
                if f.quals.cuda_global || f.quals.cuda_device {
                    u.cuda_kernels += 1;
                }
                if let Some(body) = &f.body {
                    walk_stmts(&body.stmts, &mut |n| count(&mut u, n));
                }
            }
            ItemKind::Global(d) if d.ty.is_view() => {
                u.kokkos_views += 1;
            }
            _ => {}
        }
    }
    u
}

/// Count the model construct `n` is, if any. Inlined into the walk: it
/// runs on every node of every cold unit's sema.
#[inline]
fn count(u: &mut ModelUsage, n: Node) {
    match n {
        Node::Stmt(s) => match &s.kind {
            StmtKind::Decl(d) if d.ty.is_view() => u.kokkos_views += 1,
            StmtKind::Omp { directive, .. } if directive.targets_device() => {
                u.omp_target_directives += 1
            }
            StmtKind::Omp { .. } => u.omp_parallel_directives += 1,
            _ => {}
        },
        Node::Expr(e) => match &e.kind {
            ExprKind::KernelLaunch { .. } => u.cuda_launches += 1,
            ExprKind::Call { callee, .. } => match &callee.kind {
                ExprKind::Ident(name) if name.starts_with("cuda") || name.starts_with("curand") => {
                    u.cuda_api_calls += 1;
                }
                ExprKind::Path(segments)
                    if segments.first().map(String::as_str) == Some("Kokkos")
                        && segments.get(1).is_some_and(|s| s.starts_with("parallel_")) =>
                {
                    u.kokkos_parallel_calls += 1;
                }
                _ => {}
            },
            _ => {}
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    #[test]
    fn detects_cuda() {
        let src = r#"
__global__ void k(int* a) { a[threadIdx.x] = 1; }
int main() { int* d; cudaMalloc(&d, 4); k<<<1, 32>>>(d); return 0; }
"#;
        let u = detect_usage(&parse_file(src).unwrap().items);
        assert!(u.uses_cuda());
        assert_eq!(u.cuda_kernels, 1);
        assert_eq!(u.cuda_launches, 1);
        assert!(u.cuda_api_calls >= 1);
        assert!(u.conforms_to(ExecutionModel::Cuda));
        assert!(!u.conforms_to(ExecutionModel::OmpOffload));
    }

    #[test]
    fn detects_omp_threads_vs_offload() {
        let threads = r#"
void f(int* a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i++) a[i] = i;
}
"#;
        let u = detect_usage(&parse_file(threads).unwrap().items);
        assert!(u.uses_omp_threads());
        assert!(!u.uses_omp_offload());
        assert!(u.conforms_to(ExecutionModel::OmpThreads));

        let offload = r#"
void f(int* a, int n) {
    #pragma omp target teams distribute parallel for map(tofrom: a[0:n])
    for (int i = 0; i < n; i++) a[i] = i;
}
"#;
        let u = detect_usage(&parse_file(offload).unwrap().items);
        assert!(u.uses_omp_offload());
        assert!(u.conforms_to(ExecutionModel::OmpOffload));
    }

    #[test]
    fn detects_kokkos() {
        let src = r#"
int main() {
    Kokkos::View<double*> d("d", 10);
    Kokkos::parallel_for(10, KOKKOS_LAMBDA(int i) { d(i) = i; });
    return 0;
}
"#;
        let u = detect_usage(&parse_file(src).unwrap().items);
        assert!(u.uses_kokkos());
        assert_eq!(u.kokkos_views, 1);
        assert_eq!(u.kokkos_parallel_calls, 1);
        assert!(u.conforms_to(ExecutionModel::Kokkos));
    }

    #[test]
    fn views_declared_inside_lambdas_count() {
        let src = r#"
int main() {
    Kokkos::parallel_for(1, KOKKOS_LAMBDA(int i) { Kokkos::View<double*> t("t", 4); });
    return 0;
}
"#;
        let u = detect_usage(&parse_file(src).unwrap().items);
        assert_eq!(u.kokkos_views, 1);
        assert_eq!(u.kokkos_parallel_calls, 1);
    }

    #[test]
    fn half_translated_file_conforms_to_nothing() {
        // CUDA launch left behind in an "OpenMP offload translation".
        let src = r#"
void f(int* a, int n) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < n; i++) a[i] = i;
}
int main() { int* d; k<<<1, 32>>>(d); return 0; }
"#;
        let u = detect_usage(&parse_file(src).unwrap().items);
        assert!(!u.conforms_to(ExecutionModel::OmpOffload));
        assert!(!u.conforms_to(ExecutionModel::Cuda));
    }

    #[test]
    fn pair_ids() {
        assert_eq!(
            TranslationPair::CUDA_TO_OMP_OFFLOAD.id(),
            "cuda-to-omp-offload"
        );
        assert_eq!(TranslationPair::ALL.len(), 3);
    }

    #[test]
    fn build_system_conventions() {
        assert_eq!(
            ExecutionModel::Kokkos.build_system(),
            BuildSystemKind::CMake
        );
        assert_eq!(ExecutionModel::Cuda.build_system(), BuildSystemKind::Make);
        assert_eq!(BuildSystemKind::CMake.file_name(), "CMakeLists.txt");
    }
}
