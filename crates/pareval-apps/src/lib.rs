//! # pareval-apps
//!
//! The six ParEval-Repo benchmark applications (paper Table 1) as MiniHPC
//! repositories: nanoXOR, microXORh, microXOR, SimpleMOC-kernel, XSBench and
//! llm.c — each in every programming model the paper marks as available,
//! with the developer-provided test cases the harness uses for correctness
//! validation.
//!
//! Expected outputs are not hard-coded: they are produced by building and
//! running the application's own source-model implementation through the
//! MiniHPC toolchain, exactly as the paper leverages "the correctness
//! validation test cases provided by the developers". Each test case's
//! reference output is computed once, lazily on first use, and memoised on
//! the reference repository that every clone of its [`Application`]
//! shares.

mod llmc;
mod simplemoc;
mod xor;
mod xsbench;

use minihpc_build::{build_repo, BuildRequest};
use minihpc_gen::{generate, GenSpec};
use minihpc_lang::fnv::Fnv128;
use minihpc_lang::model::{BuildSystemKind, ExecutionModel, TranslationPair};
use minihpc_lang::repo::{Body, SourceRepo};
use minihpc_runtime::{run, RunConfig};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One developer-provided test case: CLI arguments (expected stdout is
/// derived from the reference implementation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCase {
    pub args: Vec<String>,
}

impl TestCase {
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Self {
        TestCase {
            args: args.into_iter().map(Into::into).collect(),
        }
    }
}

/// A translation task named a source model the application does not
/// implement. Returned by [`Application::repo_arc`] instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasiblePair {
    pub app: String,
    pub model: ExecutionModel,
}

impl std::fmt::Display for InfeasiblePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "application {} has no {} implementation",
            self.app, self.model
        )
    }
}

impl std::error::Error for InfeasiblePair {}

/// A benchmark application.
#[derive(Debug, Clone)]
pub struct Application {
    /// Name as in paper Table 1 (`nanoXOR`, `XSBench`, ...) — or a
    /// generated-family name like `gen-t4-0000002a`. Borrowed for the
    /// hand-written suite, owned for generated apps.
    pub name: Cow<'static, str>,
    /// The binary the build must produce (the build-interface contract).
    pub binary: Cow<'static, str>,
    /// Per-model source repositories (only models marked available).
    /// `Arc`-shared so per-sample pipelines serve the repo without a deep
    /// clone of every file.
    pub repos: BTreeMap<ExecutionModel, Arc<SourceRepo>>,
    /// Developer test cases.
    pub tests: Vec<TestCase>,
    /// CLI contract text, included in prompts for main-function files.
    pub cli_spec: String,
    /// Build contract text, included in prompts for build files.
    pub build_spec: String,
    /// Ground-truth build files per *target* model, hand-written (paper: the
    /// authors' manually translated Makefile/CMakeLists used for the
    /// "Code-only" score). Stored as bodies that are not hashed here:
    /// Code-only scoring hashes a copy on its first overlay.
    pub ground_truth_build: BTreeMap<ExecutionModel, (String, Body)>,
    /// True when public ports exist in the target models (XSBench — the
    /// paper's data-contamination probe).
    pub public_ports_exist: bool,
    /// `Some(GenSpec::digest())` for applications produced by
    /// `minihpc-gen`; `None` for the hand-written suite. Experiment-plan
    /// fingerprints fold this in so a resumed run detects generator drift.
    pub gen_digest: Option<u64>,
}

/// The reference implementation's stdout for one test case, as memoised
/// on the reference repository.
#[derive(Clone)]
struct ReferenceOutput(String);

impl Application {
    /// Models this application is implemented in.
    pub fn available_models(&self) -> Vec<ExecutionModel> {
        self.repos.keys().copied().collect()
    }

    pub fn repo(&self, model: ExecutionModel) -> Option<&SourceRepo> {
        self.repos.get(&model).map(|r| r.as_ref())
    }

    /// The shared handle to the `model` implementation, or a typed error
    /// naming the missing pair. Cloning the `Arc` is O(1) — this is the
    /// per-sample path, replacing deep `SourceRepo` clones.
    pub fn repo_arc(&self, model: ExecutionModel) -> Result<Arc<SourceRepo>, InfeasiblePair> {
        self.repos
            .get(&model)
            .cloned()
            .ok_or_else(|| InfeasiblePair {
                app: self.name.to_string(),
                model,
            })
    }

    /// Which of the paper's three translation pairs apply to this app.
    pub fn pairs(&self) -> Vec<TranslationPair> {
        TranslationPair::ALL
            .into_iter()
            .filter(|p| self.repos.contains_key(&p.from))
            .collect()
    }

    /// The reference implementation's stdout for a test case. Each case is
    /// built and run once, on its first call, and every later call (through
    /// any clone of this application) returns a copy: the output is
    /// memoised on the reference [`SourceRepo`], keyed by the binary and the
    /// case's arguments. Panics if the reference itself fails — that is a
    /// bug in the benchmark suite, not in a translation — and a failure is
    /// never memoised, so every call panics again. Turning that panic into
    /// a typed infeasibility is still open (ROADMAP item 6, "Close the
    /// remaining robustness gaps"); it too must stay lazy.
    pub fn expected_output(&self, case: &TestCase) -> String {
        let (model, repo) = self.reference_repo();
        let mut key = Fnv128::new();
        key.field(self.binary.as_bytes());
        for arg in &case.args {
            key.field(arg.as_bytes());
        }
        let reference = repo.memoized(key.finish(), || {
            let outcome = build_repo(repo, &BuildRequest::new(&*self.binary));
            let exe = outcome.executable.unwrap_or_else(|| {
                panic!(
                    "reference build of {} ({model}) failed:\n{}",
                    self.name,
                    outcome.log.text()
                )
            });
            let result = run(&exe, RunConfig::with_args(case.args.iter().cloned()));
            assert!(
                result.error.is_none() && result.exit_code == 0,
                "reference run of {} failed: {:?}\n{}",
                self.name,
                result.error,
                result.stdout,
            );
            ReferenceOutput(result.stdout)
        });
        reference.0
    }

    /// Cold reference builds and runs begun so far by this application and
    /// its clones, including ones that panicked.
    pub fn cold_reference_runs(&self) -> usize {
        let (_, repo) = self.reference_repo();
        repo.cold_derivations::<ReferenceOutput>()
    }

    /// The implementation the reference outputs come from.
    fn reference_repo(&self) -> (&ExecutionModel, &Arc<SourceRepo>) {
        let first = self.repos.iter().next();
        first.expect("application has at least one implementation")
    }

    /// The build system the source-model repo of `pair` uses.
    pub fn build_system(&self, model: ExecutionModel) -> BuildSystemKind {
        model.build_system()
    }
}

/// The full suite, in paper Table 1 order.
pub fn suite() -> Vec<Application> {
    vec![
        xor::nanoxor(),
        xor::microxorh(),
        xor::microxor(),
        simplemoc::simplemoc_kernel(),
        xsbench::xsbench(),
        llmc::llmc(),
    ]
}

/// The hand-written suite plus one [`Application`] per generated spec —
/// the open-registry path the synthetic stress grids use. Generated specs
/// should be [`ErrorProfile::Clean`](minihpc_gen::ErrorProfile::Clean)
/// `Threads` repos: `expected_output` runs the reference implementation,
/// so a repo that cannot build cannot be a grid application (defective
/// profiles belong to the fuzzing pipeline instead).
pub fn suite_with_generated(specs: &[GenSpec]) -> Vec<Application> {
    let mut apps = suite();
    apps.extend(specs.iter().map(generated_app));
    apps
}

/// Bridge one generated spec into the registry: the generated repo is the
/// source-model implementation, and the ground-truth offload build file is
/// the same clang++ offload Makefile the hand-written suite uses.
pub fn generated_app(spec: &GenSpec) -> Application {
    let g = generate(spec);
    let sources: Vec<&str> = g.sources.iter().map(String::as_str).collect();
    let mut ground_truth_build = BTreeMap::new();
    ground_truth_build.insert(
        ExecutionModel::OmpOffload,
        (
            "Makefile".to_string(),
            gt_make_omp_offload(&g.binary, &sources),
        ),
    );
    let mut repos = BTreeMap::new();
    repos.insert(g.model, Arc::new(g.repo));
    let tests: Vec<TestCase> = g.tests.into_iter().map(TestCase::new).collect();
    Application {
        name: Cow::Owned(g.name),
        binary: Cow::Owned(g.binary),
        repos,
        tests,
        cli_spec: g.cli_spec,
        build_spec: g.build_spec,
        ground_truth_build,
        public_ports_exist: false,
        gen_digest: Some(g.digest),
    }
}

/// Look up one application by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<Application> {
    suite()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
}

/// Wrap a per-model repo map in the `Arc`s the open registry serves.
pub(crate) fn share(
    repos: BTreeMap<ExecutionModel, SourceRepo>,
) -> BTreeMap<ExecutionModel, Arc<SourceRepo>> {
    repos.into_iter().map(|(k, v)| (k, Arc::new(v))).collect()
}

/// Shared ground-truth build files used by several applications.
pub(crate) fn gt_make_omp_offload(binary: &str, sources: &[&str]) -> Body {
    Body::from(format!(
        "CXX = clang++\nCXXFLAGS = -O2 -fopenmp -fopenmp-targets=nvptx64-nvidia-cuda -lm\n\n\
         {binary}: {srcs}\n\t$(CXX) $(CXXFLAGS) -o {binary} {srcs}\n\n\
         .PHONY: clean\nclean:\n\trm -f {binary}\n",
        srcs = sources.join(" "),
    ))
}

pub(crate) fn gt_cmake_kokkos(binary: &str, sources: &[&str]) -> Body {
    Body::from(format!(
        "cmake_minimum_required(VERSION 3.16)\nproject({binary} LANGUAGES CXX)\n\
         find_package(Kokkos REQUIRED)\nset(CMAKE_CXX_STANDARD 17)\n\
         add_executable({binary} {srcs})\n\
         target_link_libraries({binary} PRIVATE Kokkos::kokkos)\n",
        srcs = sources.join(" "),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table1_shape() {
        let apps = suite();
        let names: Vec<&str> = apps.iter().map(|a| a.name.as_ref()).collect();
        assert_eq!(
            names,
            vec![
                "nanoXOR",
                "microXORh",
                "microXOR",
                "SimpleMOC-kernel",
                "XSBench",
                "llm.c"
            ]
        );
        // Availability per Table 1.
        let models = |n: &str| by_name(n).unwrap().available_models();
        assert_eq!(
            models("nanoXOR"),
            vec![ExecutionModel::OmpThreads, ExecutionModel::Cuda]
        );
        assert_eq!(
            models("microXORh"),
            vec![ExecutionModel::OmpThreads, ExecutionModel::Cuda]
        );
        assert_eq!(
            models("microXOR"),
            vec![ExecutionModel::OmpThreads, ExecutionModel::Cuda]
        );
        assert_eq!(models("SimpleMOC-kernel"), vec![ExecutionModel::Cuda]);
        assert_eq!(
            models("XSBench"),
            vec![ExecutionModel::OmpThreads, ExecutionModel::Cuda]
        );
        assert_eq!(models("llm.c"), vec![ExecutionModel::Cuda]);
    }

    #[test]
    fn translation_pair_coverage_is_sixteen_tasks() {
        // Paper Sec. 5.2: six apps for two pairs + four apps for the third.
        let apps = suite();
        let total: usize = apps.iter().map(|a| a.pairs().len()).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn file_counts_increase_with_complexity() {
        let counts: Vec<usize> = suite()
            .iter()
            .map(|a| a.repos.values().next().unwrap().len())
            .collect();
        // nanoXOR(2) < microXORh(3) < microXOR(4) < SimpleMOC(6) < XSBench(9)
        assert!(counts[0] < counts[1]);
        assert!(counts[1] < counts[2]);
        assert!(counts[2] < counts[3]);
        assert!(counts[3] < counts[4]);
    }

    #[test]
    fn generated_specs_register_alongside_builtins() {
        let specs = vec![minihpc_gen::GenSpec::new(42), minihpc_gen::GenSpec::new(43)];
        let apps = suite_with_generated(&specs);
        assert_eq!(apps.len(), suite().len() + 2);
        let gen = &apps[suite().len()];
        assert_eq!(gen.name.as_ref(), specs[0].name());
        assert_eq!(gen.gen_digest, Some(specs[0].digest()));
        assert_eq!(gen.pairs(), vec![TranslationPair::OMP_THREADS_TO_OFFLOAD]);
        // The generated reference implementation must actually run: the
        // expected output is derived from it, like the hand-written suite.
        let out = gen.expected_output(&gen.tests[0]);
        assert!(out.contains("checksum "), "{out}");
        // A missing source model is a typed error, not a panic.
        let err = gen.repo_arc(ExecutionModel::Cuda).unwrap_err();
        assert_eq!(err.model, ExecutionModel::Cuda);
        assert!(err.to_string().contains(gen.name.as_ref()));
    }

    #[test]
    fn expected_output_runs_each_case_once_across_clones() {
        let app = by_name("nanoXOR").unwrap();
        let (first, second) = (&app.tests[0], &app.tests[1]);
        assert_eq!(app.cold_reference_runs(), 0, "the memo must fill lazily");
        let out = app.expected_output(first);
        assert_eq!(app.expected_output(first), out);
        assert_eq!(app.cold_reference_runs(), 1);
        let clone = app.clone();
        assert_eq!(clone.expected_output(first), out);
        assert_eq!(clone.cold_reference_runs(), 1, "a clone shares the memo");
        clone.expected_output(second);
        assert_eq!(app.cold_reference_runs(), 2, "one cold run per case");
        // The memoised output is the cold one.
        assert_eq!(by_name("nanoXOR").unwrap().expected_output(first), out);
        // An undeclared case is memoised like a declared one.
        let undeclared = TestCase::new(["8", "1"]);
        app.expected_output(&undeclared);
        app.expected_output(&undeclared);
        assert_eq!(app.cold_reference_runs(), 3);
    }

    #[test]
    fn failed_reference_panics_on_every_call_and_is_not_memoised() {
        let good = by_name("nanoXOR").unwrap();
        let mut repos = BTreeMap::new();
        repos.insert(
            ExecutionModel::Cuda,
            Arc::new(
                SourceRepo::new()
                    .with_file(
                        "Makefile",
                        "nanoxor: src/main.cu\n\tnvcc -o nanoxor src/main.cu\n",
                    )
                    .with_file("src/main.cu", "int main() { return undeclared_name; }\n"),
            ),
        );
        let broken = Application {
            repos,
            ..good.clone()
        };
        let case = &broken.tests[0];
        for call in 1..=2 {
            let payload = std::panic::catch_unwind(|| broken.expected_output(case)).unwrap_err();
            let message = payload
                .downcast_ref::<String>()
                .expect("the panic carries a formatted message");
            assert!(
                message.starts_with("reference build of nanoXOR (CUDA) failed:"),
                "call {call}: {message}"
            );
            assert_eq!(
                broken.cold_reference_runs(),
                call,
                "call {call} must run cold"
            );
        }
        assert_eq!(
            good.cold_reference_runs(),
            0,
            "the broken app has its own memo"
        );
    }

    #[test]
    fn repo_arc_shares_rather_than_clones() {
        let app = by_name("XSBench").unwrap();
        let a = app.repo_arc(ExecutionModel::OmpThreads).unwrap();
        let b = app.repo_arc(ExecutionModel::OmpThreads).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
