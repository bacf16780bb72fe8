//! # minihpc-gen
//!
//! A deterministic, seed-driven generator of synthetic MiniHPC
//! repositories. The paper evaluates repo-level translation on six
//! hand-ported applications; this crate turns that fixed benchmark into an
//! unbounded family of workloads — and, run with the error-injection knobs,
//! into a fuzzer for the parser/sema/build/run stack.
//!
//! A [`GenSpec`] describes one synthetic application: how many kernel
//! files, which kernel kinds ([`KernelKind`]), which pragma dialect the
//! source uses ([`PragmaModel`]), which build system, and which defect (if
//! any) to inject ([`ErrorProfile`]). [`generate`] expands a spec into a
//! [`GeneratedApp`] — a complete [`SourceRepo`] plus the contract strings a
//! harness needs to register it as a benchmark application.
//!
//! Everything is a pure function of the spec: the same spec yields a
//! byte-identical repository (pinned by proptest in the workspace's
//! `tests/gen.rs`), and the spec's [`GenSpec::digest`] — which hashes the
//! seed and every knob — is what experiment-plan fingerprints incorporate
//! so a resumed run detects generator drift.
//!
//! The generated code deliberately reuses the syntactic shapes of the
//! hand-written suite (kernel functions over `const int* in, int* out`
//! pointer parameters, `#pragma omp parallel for` with optional
//! `reduction`/`collapse` clauses, a `main` driver printing deterministic
//! checksum lines), so the whole existing pipeline — oracle transpiler,
//! simulated backends, static analyzer — applies to generated apps
//! unchanged.

use minihpc_lang::fnv::Fnv64;
use minihpc_lang::model::{BuildSystemKind, ExecutionModel};
use minihpc_lang::repo::SourceRepo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The inner-loop shape of one generated kernel file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelKind {
    /// 1-D three-point neighbour sum (memory-bound, data-parallel).
    Stencil,
    /// Scalar accumulation over the input (`reduction(+: total)`), then a
    /// data-parallel rescale so every output element is written.
    Reduction,
    /// Dense `d x d` inner-product loop nest under `collapse(2)`, with a
    /// copy-through tail for elements beyond the square.
    GemmLike,
    /// Element-wise copy with a cheap per-element twist (bandwidth-bound).
    MemcpyBound,
}

impl KernelKind {
    pub const ALL: [KernelKind; 4] = [
        KernelKind::Stencil,
        KernelKind::Reduction,
        KernelKind::GemmLike,
        KernelKind::MemcpyBound,
    ];

    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Stencil => "stencil",
            KernelKind::Reduction => "reduction",
            KernelKind::GemmLike => "gemm-like",
            KernelKind::MemcpyBound => "memcpy-bound",
        }
    }
}

/// Which pragma dialect the generated *source* repository uses.
///
/// Only [`PragmaModel::Threads`] repositories are registrable on the
/// experiment grid (they are [`ExecutionModel::OmpThreads`] sources for the
/// OMP-threads → OMP-offload translation pair); `Serial` and `Offload`
/// exist for the fuzzing pipeline, which exercises parse/sema/build/run
/// over every dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PragmaModel {
    /// No OpenMP pragmas at all.
    Serial,
    /// `#pragma omp parallel for` (+ `reduction`/`collapse`) on host.
    Threads,
    /// `#pragma omp target teams distribute parallel for` with explicit
    /// `map` clauses.
    Offload,
}

impl PragmaModel {
    pub const ALL: [PragmaModel; 3] = [
        PragmaModel::Serial,
        PragmaModel::Threads,
        PragmaModel::Offload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            PragmaModel::Serial => "serial",
            PragmaModel::Threads => "threads",
            PragmaModel::Offload => "offload",
        }
    }
}

/// Which defect (if any) [`generate`] injects into the repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ErrorProfile {
    /// No injected defect: the repo parses, builds, and runs.
    Clean,
    /// One kernel file ends mid-function (unclosed brace): the parser must
    /// reject it and the build must fail with a parse diagnostic.
    ParseError,
    /// One kernel file references an undeclared identifier: parsing
    /// succeeds, semantic analysis / compilation must reject it.
    SemaError,
    /// A `Reduction` kernel's `reduction(+: ...)` clause is dropped while
    /// the accumulation stays — the directive race `minihpc-analyze` flags
    /// as `RawReduction`. The repo still builds and (on the deterministic
    /// interpreter substrate) still runs.
    DirectiveRace,
}

impl ErrorProfile {
    pub const ALL: [ErrorProfile; 4] = [
        ErrorProfile::Clean,
        ErrorProfile::ParseError,
        ErrorProfile::SemaError,
        ErrorProfile::DirectiveRace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ErrorProfile::Clean => "clean",
            ErrorProfile::ParseError => "parse-error",
            ErrorProfile::SemaError => "sema-error",
            ErrorProfile::DirectiveRace => "directive-race",
        }
    }
}

/// A complete description of one synthetic application. Every field is a
/// knob; [`generate`] is a pure function of the whole struct.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GenSpec {
    /// Seed for every random choice the generator makes (kernel constants,
    /// which file receives an injected defect, ...).
    pub seed: u64,
    /// Number of kernel source files (clamped to at least 1). The repo
    /// additionally holds a shared header, a `main` driver, and a build
    /// file.
    pub files: usize,
    /// Kernel kinds, cycled across the kernel files. Empty = draw each
    /// file's kind from the seed.
    pub kernels: Vec<KernelKind>,
    pub pragma_model: PragmaModel,
    pub build_system: BuildSystemKind,
    pub errors: ErrorProfile,
}

impl GenSpec {
    /// A clean, Makefile-built, threads-model spec — the grid-registrable
    /// default shape.
    pub fn new(seed: u64) -> Self {
        GenSpec {
            seed,
            files: 2,
            kernels: Vec::new(),
            pragma_model: PragmaModel::Threads,
            build_system: BuildSystemKind::Make,
            errors: ErrorProfile::Clean,
        }
    }

    pub fn with_files(mut self, files: usize) -> Self {
        self.files = files;
        self
    }

    pub fn with_kernels(mut self, kernels: impl IntoIterator<Item = KernelKind>) -> Self {
        self.kernels = kernels.into_iter().collect();
        self
    }

    pub fn with_pragma_model(mut self, model: PragmaModel) -> Self {
        self.pragma_model = model;
        self
    }

    pub fn with_build_system(mut self, kind: BuildSystemKind) -> Self {
        self.build_system = kind;
        self
    }

    pub fn with_errors(mut self, errors: ErrorProfile) -> Self {
        self.errors = errors;
        self
    }

    /// The application name this spec registers under. Embeds the seed, so
    /// distinct seeds register distinct grid cells.
    pub fn name(&self) -> String {
        format!(
            "gen-{}{}-{:08x}",
            match self.pragma_model {
                PragmaModel::Serial => "s",
                PragmaModel::Threads => "t",
                PragmaModel::Offload => "o",
            },
            self.files.max(1),
            self.seed,
        )
    }

    /// The binary the build contract requires.
    pub fn binary(&self) -> String {
        format!("gen{:08x}", self.seed)
    }

    /// 64-bit FNV-1a over the seed and every knob — the value experiment
    /// plans fold into their fingerprint so `Runner::resume` refuses a
    /// journal written by a grid of differently-generated apps.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.field(b"minihpc-gen-v1");
        h.field(&self.seed.to_le_bytes());
        h.field(&(self.files as u64).to_le_bytes());
        for k in &self.kernels {
            h.field(k.name().as_bytes());
        }
        h.field(self.pragma_model.name().as_bytes());
        h.field(match self.build_system {
            BuildSystemKind::Make => b"make",
            BuildSystemKind::CMake => b"cmake",
        });
        h.field(self.errors.name().as_bytes());
        h.finish()
    }
}

/// What [`generate`] produces: the repository plus everything a harness
/// needs to register the spec as a benchmark application.
#[derive(Debug, Clone)]
pub struct GeneratedApp {
    pub name: String,
    pub binary: String,
    /// The source repository (header + kernel files + driver + build file).
    pub repo: SourceRepo,
    /// The execution model the repository is written in.
    pub model: ExecutionModel,
    /// The code files the build compiles, in build-file order — what a
    /// ground-truth build file for a *target* model must list.
    pub sources: Vec<String>,
    pub cli_spec: String,
    pub build_spec: String,
    /// Developer test cases: CLI argument vectors.
    pub tests: Vec<Vec<String>>,
    /// [`GenSpec::digest`] of the generating spec.
    pub digest: u64,
}

/// The kernel kind of file `i` under `spec` (the cycled mix, or a draw
/// from the spec's own deterministic side stream when the mix is empty).
fn kind_of(spec: &GenSpec, i: usize) -> KernelKind {
    if spec.kernels.is_empty() {
        // A dedicated stream per file keeps the choice independent of the
        // constants drawn for other files.
        let mut rng =
            StdRng::seed_from_u64(spec.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        KernelKind::ALL[rng.gen_range(0..KernelKind::ALL.len())]
    } else {
        spec.kernels[i % spec.kernels.len()]
    }
}

/// The pragma line opening one parallel loop, or an empty string for
/// serial code. `reduction`/`collapse` are appended per kernel kind;
/// offload directives carry explicit `map` clauses over the kernel's
/// pointer parameters.
fn pragma_line(model: PragmaModel, clauses: &str, maps: &str) -> String {
    match model {
        PragmaModel::Serial => String::new(),
        PragmaModel::Threads => {
            if clauses.is_empty() {
                "    #pragma omp parallel for\n".to_string()
            } else {
                format!("    #pragma omp parallel for {clauses}\n")
            }
        }
        PragmaModel::Offload => {
            let tail = if clauses.is_empty() {
                String::new()
            } else {
                format!(" {clauses}")
            };
            format!("    #pragma omp target teams distribute parallel for{tail} {maps}\n")
        }
    }
}

/// One kernel file: `void kernel<i>(const int* in, int* out, int n)` in the
/// spec's pragma dialect, with seed-drawn constants.
fn kernel_source(spec: &GenSpec, i: usize, kind: KernelKind, rng: &mut StdRng) -> String {
    let pm = spec.pragma_model;
    let maps = "map(to: in[0:n]) map(tofrom: out[0:n])";
    // Small odd constants keep every intermediate well inside 32-bit range
    // for the test sizes the contract allows.
    let c1 = 3 + 2 * rng.gen_range(0..8); // 3..17 odd
    let c2 = 5 + 2 * rng.gen_range(0..8); // 5..19 odd
    let modu = [257usize, 509, 1021, 2039][rng.gen_range(0..4)];
    let body = match kind {
        KernelKind::Stencil => {
            let p = pragma_line(pm, "", maps);
            format!(
                "{p}    for (int i = 0; i < n; i++) {{\n        int acc = in[i] * {c1};\n        if (i > 0) acc += in[i - 1];\n        if (i < n - 1) acc += in[i + 1] * {c2};\n        out[i] = acc % {modu};\n    }}\n"
            )
        }
        KernelKind::Reduction => {
            let drop_clause = spec.errors == ErrorProfile::DirectiveRace;
            let p1 = pragma_line(
                pm,
                if drop_clause {
                    ""
                } else {
                    "reduction(+: total)"
                },
                maps,
            );
            let p2 = pragma_line(pm, "", maps);
            format!(
                "    long total = 0;\n{p1}    for (int i = 0; i < n; i++) {{\n        total += in[i] % {modu};\n    }}\n    int base = (int)(total % {c2}) + {c1};\n{p2}    for (int i = 0; i < n; i++) {{\n        out[i] = (in[i] + base * (i % 7 + 1)) % {modu};\n    }}\n"
            )
        }
        KernelKind::GemmLike => {
            let p1 = pragma_line(pm, "collapse(2)", maps);
            let p2 = pragma_line(pm, "", maps);
            format!(
                "    int d = 1;\n    while ((d + 1) * (d + 1) <= n) {{\n        d = d + 1;\n    }}\n{p1}    for (int i = 0; i < d; i++) {{\n        for (int j = 0; j < d; j++) {{\n            int acc = 0;\n            for (int k = 0; k < d; k++) {{\n                acc += (in[i * d + k] % {c1}) * (in[k * d + j] % {c2});\n            }}\n            out[i * d + j] = acc % {modu};\n        }}\n    }}\n{p2}    for (int i = d * d; i < n; i++) {{\n        out[i] = in[i];\n    }}\n"
            )
        }
        KernelKind::MemcpyBound => {
            let p = pragma_line(pm, "", maps);
            format!(
                "{p}    for (int i = 0; i < n; i++) {{\n        out[i] = (in[i] * {c1} + i % {c2}) % {modu};\n    }}\n"
            )
        }
    };
    let include = if pm == PragmaModel::Serial {
        ""
    } else {
        "#include <omp.h>\n"
    };
    format!(
        "{include}#include \"kernels.h\"\n\n/* {kind}: generated kernel {i} */\nvoid kernel{i}(const int* in, int* out, int n) {{\n{body}}}\n",
        kind = kind.name(),
    )
}

/// The shared header declaring every kernel.
fn header_source(files: usize) -> String {
    let mut out = String::new();
    for i in 0..files {
        out.push_str(&format!(
            "void kernel{i}(const int* in, int* out, int n);\n"
        ));
    }
    out
}

/// The `main` driver: parse `<n> <iterations>`, run every kernel in a
/// ping-pong loop, print the header line and one checksum line per kernel
/// file plus a final combined checksum.
fn main_source(spec: &GenSpec, files: usize, rng: &mut StdRng) -> String {
    let init_mul = 3 + 2 * rng.gen_range(0..12);
    let init_add = rng.gen_range(1..23);
    let init_mod = [23usize, 29, 31, 37][rng.gen_range(0..4)];
    let omp_include = if spec.pragma_model == PragmaModel::Serial {
        ""
    } else {
        "#include <omp.h>\n"
    };
    let mut calls = String::new();
    for i in 0..files {
        calls.push_str(&format!(
            "        kernel{i}(buf_in, buf_out, n);\n        tmp = buf_in;\n        buf_in = buf_out;\n        buf_out = tmp;\n"
        ));
    }
    format!(
        r#"#include <stdio.h>
#include <stdlib.h>
{omp_include}#include "kernels.h"

int main(int argc, char** argv) {{
    if (argc < 3) {{
        printf("usage: gen <n> <iterations>\n");
        return 1;
    }}
    int n = atoi(argv[1]);
    int iterations = atoi(argv[2]);
    int* buf_in = (int*)malloc(n * sizeof(int));
    int* buf_out = (int*)malloc(n * sizeof(int));
    int* tmp;
    for (int i = 0; i < n; i++) {{
        buf_in[i] = (i * {init_mul} + {init_add}) % {init_mod};
        buf_out[i] = 0;
    }}
    for (int t = 0; t < iterations; t++) {{
{calls}    }}
    long sum = 0;
    for (int k = 0; k < n; k++) {{
        sum += buf_in[k] * (k % 13 + 1);
    }}
    printf("gen %d iterations %d\n", n, iterations);
    printf("kernels {files}\n");
    printf("checksum %ld\n", sum);
    free(buf_in);
    free(buf_out);
    return 0;
}}
"#
    )
}

/// Makefile for the generated sources. Threads/serial repos build with
/// plain g++ (+ `-fopenmp` when pragmas are present); offload repos use
/// the clang++ offload toolchain the hand-written suite's ground-truth
/// builds use.
fn makefile(spec: &GenSpec, binary: &str, sources: &[String]) -> String {
    let srcs = sources.join(" ");
    let (cxx, flags) = match spec.pragma_model {
        PragmaModel::Serial => ("g++", "-O2".to_string()),
        PragmaModel::Threads => ("g++", "-O2 -fopenmp".to_string()),
        PragmaModel::Offload => (
            "clang++",
            "-O2 -fopenmp -fopenmp-targets=nvptx64-nvidia-cuda".to_string(),
        ),
    };
    format!(
        "CXX = {cxx}\nCXXFLAGS = {flags}\n\n{binary}: {srcs}\n\t$(CXX) $(CXXFLAGS) -o {binary} {srcs}\n\n.PHONY: clean\nclean:\n\trm -f {binary}\n"
    )
}

/// CMakeLists.txt for the generated sources (OpenMP via
/// `find_package(OpenMP)` when pragmas are present).
fn cmakelists(spec: &GenSpec, binary: &str, sources: &[String]) -> String {
    let srcs = sources.join(" ");
    let mut out = format!(
        "cmake_minimum_required(VERSION 3.16)\nproject({binary} LANGUAGES CXX)\nset(CMAKE_CXX_STANDARD 17)\n"
    );
    if spec.pragma_model != PragmaModel::Serial {
        out.push_str("find_package(OpenMP REQUIRED)\n");
    }
    out.push_str(&format!("add_executable({binary} {srcs})\n"));
    if spec.pragma_model != PragmaModel::Serial {
        out.push_str(&format!(
            "target_link_libraries({binary} PRIVATE OpenMP::OpenMP_CXX)\n"
        ));
    }
    out
}

/// Expand `spec` into a complete synthetic application. Pure: the same
/// spec always yields byte-identical files.
pub fn generate(spec: &GenSpec) -> GeneratedApp {
    let files = spec.files.max(1);
    let binary = spec.binary();
    let mut rng = StdRng::seed_from_u64(spec.seed);

    let mut kinds: Vec<KernelKind> = (0..files).map(|i| kind_of(spec, i)).collect();
    // A directive race needs a reduction to strip; force one in if the mix
    // has none, so the profile is never a silent no-op.
    if spec.errors == ErrorProfile::DirectiveRace && !kinds.contains(&KernelKind::Reduction) {
        let slot = rng.gen_range(0..kinds.len());
        kinds[slot] = KernelKind::Reduction;
    }

    let mut repo = SourceRepo::new();
    let mut sources = Vec::with_capacity(files + 1);
    repo.add("src/kernels.h", header_source(files));
    for (i, kind) in kinds.iter().enumerate() {
        let path = format!("src/k{i}.cpp");
        repo.add(path.clone(), kernel_source(spec, i, *kind, &mut rng));
        sources.push(path);
    }
    let main_path = "src/main.cpp".to_string();
    repo.add(main_path.clone(), main_source(spec, files, &mut rng));
    sources.push(main_path);

    match spec.build_system {
        BuildSystemKind::Make => repo.add("Makefile", makefile(spec, &binary, &sources)),
        BuildSystemKind::CMake => repo.add("CMakeLists.txt", cmakelists(spec, &binary, &sources)),
    }

    // Defect injection, after the clean repo is assembled so the defect is
    // a minimal, localized delta. (DirectiveRace is handled inside
    // `kernel_source`, where the clause is simply not emitted.)
    match spec.errors {
        ErrorProfile::Clean | ErrorProfile::DirectiveRace => {}
        ErrorProfile::ParseError => {
            let victim = rng.gen_range(0..files);
            let path = format!("src/k{victim}.cpp");
            let mut text = repo.get(&path).expect("kernel file exists").to_string();
            text.push_str("\nint truncated(int x) {\n    return x + 1;\n");
            repo.add(path, text);
        }
        ErrorProfile::SemaError => {
            let victim = rng.gen_range(0..files);
            let path = format!("src/k{victim}.cpp");
            let mut text = repo.get(&path).expect("kernel file exists").to_string();
            text.push_str("\nint misuse(int x) {\n    return x + gen_undeclared_identifier;\n}\n");
            repo.add(path, text);
        }
    }

    let model = ExecutionModel::OmpThreads;
    let cli_spec = format!(
        "The program must be invoked as `<binary> <n> <iterations>` where n is the \
         buffer length and iterations the number of kernel sweeps. It must print three \
         lines: `gen <n> <iterations>`, `kernels {files}`, and `checksum <sum>`."
    );
    let build_spec = match spec.build_system {
        BuildSystemKind::Make => "The build must produce an executable named after the \
             application in the repository root, via make. For OpenMP offload use clang++ \
             with -fopenmp -fopenmp-targets=nvptx64-nvidia-cuda."
            .to_string(),
        BuildSystemKind::CMake => "The build must produce an executable named after the \
             application in the repository root, via CMake with find_package(OpenMP)."
            .to_string(),
    };
    let tests = vec![
        vec!["64".to_string(), "2".to_string()],
        vec!["33".to_string(), "3".to_string()],
    ];

    GeneratedApp {
        name: spec.name(),
        binary,
        repo,
        model,
        sources,
        cli_spec,
        build_spec,
        tests,
        digest: spec.digest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihpc_build::{build_repo, BuildRequest};
    use minihpc_runtime::{run, RunConfig};

    fn build_and_run(app: &GeneratedApp, args: &[&str]) -> String {
        let outcome = build_repo(&app.repo, &BuildRequest::new(app.binary.as_str()));
        let exe = outcome
            .executable
            .unwrap_or_else(|| panic!("{} build failed:\n{}", app.name, outcome.log.text()));
        let r = run(&exe, RunConfig::with_args(args.iter().copied()));
        assert!(
            r.error.is_none() && r.exit_code == 0,
            "{} run failed: {:?}\n{}",
            app.name,
            r.error,
            r.stdout
        );
        r.stdout
    }

    #[test]
    fn clean_specs_build_and_run_for_every_kernel_kind() {
        for (i, kind) in KernelKind::ALL.into_iter().enumerate() {
            let spec = GenSpec::new(100 + i as u64)
                .with_kernels([kind])
                .with_files(1);
            let app = generate(&spec);
            let out = build_and_run(&app, &["40", "2"]);
            assert!(out.starts_with("gen 40 iterations 2\n"), "{kind:?}: {out}");
            assert!(out.contains("checksum "), "{kind:?}: {out}");
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = GenSpec::new(7).with_files(3);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(
            a.repo.iter().collect::<Vec<_>>(),
            b.repo.iter().collect::<Vec<_>>()
        );
        assert_eq!(a.digest, b.digest);
        let c = generate(&GenSpec::new(8).with_files(3));
        assert_ne!(
            a.repo.iter().collect::<Vec<_>>(),
            c.repo.iter().collect::<Vec<_>>()
        );
        assert_ne!(a.digest, c.digest);
        assert_ne!(a.name, c.name);
    }

    #[test]
    fn digest_value_is_pinned() {
        // Plan fingerprints fold this digest in, so it must stay
        // bit-identical across refactors of the hash.
        let spec = GenSpec::new(42)
            .with_files(3)
            .with_kernels([KernelKind::Stencil, KernelKind::Reduction])
            .with_build_system(BuildSystemKind::CMake);
        assert_eq!(spec.digest(), 0x5a2882fc0054f42d);
    }

    #[test]
    fn serial_and_offload_dialects_build_and_run() {
        for pm in [PragmaModel::Serial, PragmaModel::Offload] {
            let spec = GenSpec::new(11).with_files(2).with_pragma_model(pm);
            let app = generate(&spec);
            let out = build_and_run(&app, &["25", "1"]);
            assert!(out.contains("checksum "), "{pm:?}: {out}");
        }
    }

    #[test]
    fn cmake_build_system_knob_builds() {
        let spec = GenSpec::new(13)
            .with_files(2)
            .with_build_system(BuildSystemKind::CMake);
        let app = generate(&spec);
        assert!(app.repo.contains("CMakeLists.txt"));
        let out = build_and_run(&app, &["16", "1"]);
        assert!(out.contains("checksum "), "{out}");
    }

    #[test]
    fn parse_error_profile_fails_to_build_with_parse_diagnostic() {
        let spec = GenSpec::new(21).with_errors(ErrorProfile::ParseError);
        let app = generate(&spec);
        let outcome = build_repo(&app.repo, &BuildRequest::new(app.binary.as_str()));
        assert!(!outcome.succeeded(), "parse-error repo must not build");
    }

    #[test]
    fn sema_error_profile_fails_to_build() {
        let spec = GenSpec::new(22).with_errors(ErrorProfile::SemaError);
        let app = generate(&spec);
        let outcome = build_repo(&app.repo, &BuildRequest::new(app.binary.as_str()));
        assert!(!outcome.succeeded(), "sema-error repo must not build");
    }

    #[test]
    fn directive_race_profile_builds_and_is_flagged() {
        let spec = GenSpec::new(23)
            .with_files(2)
            .with_errors(ErrorProfile::DirectiveRace);
        let app = generate(&spec);
        let out = build_and_run(&app, &["30", "1"]);
        assert!(out.contains("checksum "), "{out}");
        let findings = minihpc_analyze::analyze_repo(&app.repo);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == minihpc_analyze::Rule::RawReduction),
            "expected a RawReduction finding, got {findings:?}"
        );
    }

    #[test]
    fn digest_covers_every_knob() {
        let base = GenSpec::new(1);
        let variants = [
            base.clone().with_files(5),
            base.clone().with_kernels([KernelKind::Stencil]),
            base.clone().with_pragma_model(PragmaModel::Serial),
            base.clone().with_build_system(BuildSystemKind::CMake),
            base.clone().with_errors(ErrorProfile::ParseError),
            GenSpec::new(2),
        ];
        let d0 = base.digest();
        for v in &variants {
            assert_ne!(d0, v.digest(), "digest must separate {v:?}");
        }
    }
}
