//! The build driver: interprets the repository's build system, runs each
//! compiler invocation through preprocess → parse → sema, links, and
//! produces a [`BuildOutcome`] whose log is exactly what the paper's error
//! clustering consumes.

use crate::cmake;
use crate::diag::{BuildLog, Diagnostic, ErrorCategory};
use crate::linker;
use crate::makefile;
use crate::object::{Executable, ObjectCode};
use crate::preprocess::{self, Parses};
use crate::sema;
use crate::toolchain::{parse_invocation, Invocation};
use crate::unit::{unit_key, CompiledUnit, UnitCache};
use minihpc_lang::repo::{FileKind, SourceRepo};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What to build.
#[derive(Debug, Clone)]
pub struct BuildRequest {
    /// The executable the harness expects the build to produce (the task's
    /// build-interface contract from the prompt addendum, paper Sec. 3.1).
    pub binary: String,
    /// The make target to invoke (`None` → default/first target).
    pub make_target: Option<String>,
}

impl BuildRequest {
    pub fn new(binary: impl Into<String>) -> Self {
        BuildRequest {
            binary: binary.into(),
            make_target: None,
        }
    }
}

/// Result of a build: the full log plus the executable on success.
#[derive(Debug, Clone)]
pub struct BuildOutcome {
    pub log: BuildLog,
    pub executable: Option<Executable>,
}

impl BuildOutcome {
    pub fn succeeded(&self) -> bool {
        self.executable.is_some()
    }

    pub fn first_error_category(&self) -> Option<ErrorCategory> {
        self.log.first_error_category()
    }
}

/// Build the repository per its build system (Makefile preferred, else
/// CMakeLists.txt), compiling every unit from scratch. Each distinct file
/// is parsed once per call, however many units include it.
pub fn build_repo(repo: &SourceRepo, request: &BuildRequest) -> BuildOutcome {
    build_repo_with(repo, request, None)
}

/// [`build_repo`] with an optional per-file compile-unit cache.
///
/// When `cache` is present, each compiler input's include closure is
/// rediscovered (parses memoized through [`UnitCache::parse_hashed`]) and
/// sema runs only for units whose closure content changed — everything
/// else replays the cached object + diagnostics byte-identically. The
/// link and binary-contract stages always run: they see cross-unit state
/// the per-unit key deliberately excludes.
pub fn build_repo_with(
    repo: &SourceRepo,
    request: &BuildRequest,
    cache: Option<&dyn UnitCache>,
) -> BuildOutcome {
    build(repo, request, &Parses::new(cache))
}

fn build(repo: &SourceRepo, request: &BuildRequest, parses: &Parses<'_>) -> BuildOutcome {
    let mut log = BuildLog::new();
    let Some((build_path, build_text)) = repo.build_file() else {
        log.diagnostic(Diagnostic::error(
            ErrorCategory::MissingFile,
            "(repository)",
            "no Makefile or CMakeLists.txt found in repository",
        ));
        return BuildOutcome {
            log,
            executable: None,
        };
    };
    let build_text = build_text.to_string();

    match FileKind::of(build_path) {
        FileKind::Makefile => build_with_make(repo, &build_text, request, parses, log),
        FileKind::CMakeLists => build_with_cmake(repo, &build_text, request, parses, log),
        _ => unreachable!("build_file returns only build files"),
    }
}

fn build_with_make(
    repo: &SourceRepo,
    text: &str,
    request: &BuildRequest,
    parses: &Parses<'_>,
    mut log: BuildLog,
) -> BuildOutcome {
    let target_desc = request.make_target.clone().unwrap_or_default();
    log.note(format!("$ make {target_desc}").trim_end().to_string());
    let mf = match makefile::parse(text) {
        Ok(mf) => mf,
        Err(d) => {
            log.diagnostic(d);
            return BuildOutcome {
                log,
                executable: None,
            };
        }
    };
    let commands = match mf.make(request.make_target.as_deref(), repo) {
        Ok(c) => c,
        Err(d) => {
            log.diagnostic(d);
            return BuildOutcome {
                log,
                executable: None,
            };
        }
    };

    let mut state = ExecState::default();
    for cmd in commands {
        if !cmd.silent {
            log.note(cmd.words.join(" "));
        }
        let word0 = cmd.words[0].as_str();
        match word0 {
            "rm" | "echo" | "mkdir" | "touch" | "true" => continue,
            _ => {}
        }
        let inv = match parse_invocation(&cmd.words, "Makefile") {
            Ok(inv) => inv,
            Err(d) => {
                if cmd.ignore_errors {
                    log.note(format!("make: [Makefile:{}] Error (ignored)", cmd.line));
                    continue;
                }
                log.diagnostic(d);
                log.note(format!("make: *** [Makefile:{}] Error 1", cmd.line));
                return BuildOutcome {
                    log,
                    executable: None,
                };
            }
        };
        if let Err(()) = run_invocation(repo, &inv, parses, &mut state, &mut log) {
            log.note(format!("make: *** [Makefile:{}] Error 1", cmd.line));
            return BuildOutcome {
                log,
                executable: None,
            };
        }
    }
    finish(request, state, log)
}

fn build_with_cmake(
    repo: &SourceRepo,
    text: &str,
    request: &BuildRequest,
    parses: &Parses<'_>,
    mut log: BuildLog,
) -> BuildOutcome {
    log.note("$ cmake -B build . && cmake --build build".to_string());
    let cfg = match cmake::configure(text) {
        Ok(cfg) => cfg,
        Err(d) => {
            log.diagnostic(d);
            log.note("-- Configuring incomplete, errors occurred!".to_string());
            return BuildOutcome {
                log,
                executable: None,
            };
        }
    };
    for line in &cfg.log {
        log.note(line.clone());
    }
    let mut state = ExecState::default();
    for (name, inv) in &cfg.invocations {
        log.note(format!("[build] Building CXX executable {name}"));
        if let Err(()) = run_invocation(repo, inv, parses, &mut state, &mut log) {
            log.note(format!(
                "gmake[2]: *** [CMakeFiles/{name}.dir/build.make] Error 1"
            ));
            return BuildOutcome {
                log,
                executable: None,
            };
        }
    }
    finish(request, state, log)
}

/// Virtual filesystem of build products. Objects are `Arc`-shared: a
/// cache-replayed unit and the cache's own copy are the same allocation.
#[derive(Default)]
struct ExecState {
    objects: BTreeMap<String, Arc<ObjectCode>>,
    executables: BTreeMap<String, Executable>,
}

/// Compile one source input to a unit, consulting the build's unit cache
/// when it has one.
///
/// Assembly always runs — it is what discovers the include closure the
/// unit key hashes — but parses inside it are memoized (see [`Parses`])
/// and shared by pointer, the key reads each closure file's body hash, never
/// its text, and a key hit skips sema entirely, replaying the
/// stored object and diagnostics. An object compiled through the cache
/// records its unit key, from which `link` keys the executable. Assembly
/// failures (missing file/header, syntax error) are reported directly and
/// never cached: they are cheap to recompute and have no object to store.
fn compile_input(
    repo: &SourceRepo,
    input: &str,
    inv: &Invocation,
    parses: &Parses<'_>,
) -> Result<CompiledUnit, Vec<Diagnostic>> {
    let tu = preprocess::assemble_with(repo, input, &inv.features, parses)?;
    let obj_name = object_name_for(input);
    let keyed = parses.cache().map(|c| {
        let closure = tu.files.iter().map(|p| {
            let spliced = "assembly splices only files the repo holds";
            (p.as_str(), repo.body_hash(p).expect(spliced))
        });
        (c, unit_key(input, &obj_name, &inv.features, closure))
    });
    if let Some(unit) = keyed.and_then(|(c, key)| c.lookup_unit(key)) {
        return Ok(unit);
    }
    let result = sema::check(&tu, input, &obj_name, &inv.features);
    let unit = CompiledUnit {
        object: result.object.map(|mut obj| {
            obj.key = keyed.map(|(_, key)| key);
            Arc::new(obj)
        }),
        diagnostics: result.diagnostics,
    };
    if let Some((c, key)) = keyed {
        c.store_unit(key, &unit);
    }
    Ok(unit)
}

/// Execute one compiler invocation: compile each input (source files inline,
/// `.o` files looked up) and link unless `-c`.
fn run_invocation(
    repo: &SourceRepo,
    inv: &Invocation,
    parses: &Parses<'_>,
    state: &mut ExecState,
    log: &mut BuildLog,
) -> Result<(), ()> {
    let mut objects: Vec<Arc<ObjectCode>> = Vec::new();
    for input in &inv.inputs {
        if input.ends_with(".o") {
            match state.objects.get(input) {
                Some(o) => objects.push(Arc::clone(o)),
                None => {
                    log.diagnostic(Diagnostic::error(
                        ErrorCategory::MissingFile,
                        input,
                        format!("no such file or directory: '{input}'"),
                    ));
                    return Err(());
                }
            }
            continue;
        }
        // `.cu` sources need nvcc.
        if input.ends_with(".cu") && inv.compiler != crate::toolchain::CompilerKind::Nvcc {
            log.diagnostic(Diagnostic::error(
                ErrorCategory::InvalidCompilerFlag,
                input,
                format!(
                    "{}: error: CUDA source file '{input}' requires nvcc",
                    inv.compiler
                ),
            ));
            return Err(());
        }
        let unit = match compile_input(repo, input, inv, parses) {
            Ok(unit) => unit,
            Err(diags) => {
                log.extend_diagnostics(diags);
                return Err(());
            }
        };
        let had_errors = unit.diagnostics.iter().any(Diagnostic::is_error);
        log.extend_diagnostics(unit.diagnostics);
        match unit.object {
            Some(obj) if !had_errors => objects.push(obj),
            _ => return Err(()),
        }
    }

    if inv.compile_only {
        // Register each object under its `-o` name (single input) or its
        // default `<stem>.o` name.
        if let (Some(out), true) = (&inv.output, objects.len() == 1) {
            let obj = objects.pop().unwrap();
            // Rename only when the `-o` name differs from the default;
            // cached units keep their default name, so the clone is rare.
            let obj = if obj.name == *out {
                obj
            } else {
                let mut renamed = (*obj).clone();
                renamed.name = out.clone();
                Arc::new(renamed)
            };
            state.objects.insert(out.clone(), obj);
        } else {
            for obj in objects {
                let name = obj.name.clone();
                state.objects.insert(name, obj);
            }
        }
        return Ok(());
    }

    let output = inv.output.clone().unwrap_or_else(|| "a.out".to_string());
    match linker::link(&objects, &output, inv.compiler, &inv.features) {
        Ok(exe) => {
            state.executables.insert(output, exe);
            Ok(())
        }
        Err(diags) => {
            log.extend_diagnostics(diags);
            Err(())
        }
    }
}

fn object_name_for(input: &str) -> String {
    let base = input.rsplit('/').next().unwrap_or(input);
    match base.rsplit_once('.') {
        Some((stem, _)) => format!("{stem}.o"),
        None => format!("{base}.o"),
    }
}

fn finish(request: &BuildRequest, mut state: ExecState, mut log: BuildLog) -> BuildOutcome {
    // Accept the expected binary name, tolerating path prefixes
    // (`./app`, `bin/app`).
    let found = state
        .executables
        .keys()
        .find(|name| {
            name.as_str() == request.binary
                || name.rsplit('/').next() == Some(request.binary.as_str())
        })
        .cloned();
    match found.and_then(|name| state.executables.remove(&name)) {
        Some(exe) => {
            log.note(format!("build succeeded: produced '{}'", request.binary));
            BuildOutcome {
                log,
                executable: Some(exe),
            }
        }
        None => {
            let produced: Vec<&String> = state.executables.keys().collect();
            log.diagnostic(Diagnostic::error(
                ErrorCategory::MakefileMissingTarget,
                "(build)",
                format!(
                    "build did not produce expected binary '{}' (produced: {:?})",
                    request.binary, produced
                ),
            ));
            BuildOutcome {
                log,
                executable: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cuda_repo() -> SourceRepo {
        SourceRepo::new()
            .with_file(
                "Makefile",
                "NVCC = nvcc\napp: src/main.cu\n\t$(NVCC) -O2 -arch=sm_80 -o app src/main.cu\n",
            )
            .with_file(
                "src/main.cu",
                r#"
#include <cuda_runtime.h>
__global__ void k(int* a, size_t n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) a[i] = i;
}
int main() {
    int* d;
    cudaMalloc(&d, 64 * sizeof(int));
    k<<<2, 32>>>(d, 64);
    cudaDeviceSynchronize();
    cudaFree(d);
    return 0;
}
"#,
            )
    }

    #[test]
    fn cuda_make_build_succeeds() {
        let out = build_repo(&cuda_repo(), &BuildRequest::new("app"));
        assert!(out.succeeded(), "log:\n{}", out.log.text());
        let exe = out.executable.unwrap();
        assert!(exe.features.cuda);
        assert!(exe.usage.uses_cuda());
    }

    #[test]
    fn omp_offload_two_file_build() {
        let repo = SourceRepo::new()
            .with_file(
                "Makefile",
                "CXX = clang++\nFLAGS = -O2 -fopenmp -fopenmp-targets=nvptx64-nvidia-cuda\n\
                 app: src/main.cpp src/kernel.cpp\n\t$(CXX) $(FLAGS) -o app src/main.cpp src/kernel.cpp\n",
            )
            .with_file("src/kernel.h", "void run(int* a, int n);\n")
            .with_file(
                "src/kernel.cpp",
                "#include \"kernel.h\"\nvoid run(int* a, int n) {\n\
                 #pragma omp target teams distribute parallel for map(tofrom: a[0:n])\n\
                 for (int i = 0; i < n; i++) a[i] = i;\n}\n",
            )
            .with_file(
                "src/main.cpp",
                "#include \"kernel.h\"\nint main() {\n    int* a = (int*)malloc(64 * sizeof(int));\n    run(a, 64);\n    free(a);\n    return 0;\n}\n",
            );
        let out = build_repo(&repo, &BuildRequest::new("app"));
        assert!(out.succeeded(), "log:\n{}", out.log.text());
        assert!(out.executable.unwrap().features.offload);
    }

    #[test]
    fn kokkos_cmake_build() {
        let repo = SourceRepo::new()
            .with_file(
                "CMakeLists.txt",
                "cmake_minimum_required(VERSION 3.16)\nproject(app LANGUAGES CXX)\n\
                 find_package(Kokkos REQUIRED)\nadd_executable(app src/main.cpp)\n\
                 target_link_libraries(app PRIVATE Kokkos::kokkos)\n",
            )
            .with_file(
                "src/main.cpp",
                r#"
#include <Kokkos_Core.hpp>
int main() {
    Kokkos::initialize();
    {
        Kokkos::View<double*> d("d", 100);
        Kokkos::parallel_for(100, KOKKOS_LAMBDA(int i) { d(i) = 2.0 * i; });
        Kokkos::fence();
    }
    Kokkos::finalize();
    return 0;
}
"#,
            );
        let out = build_repo(&repo, &BuildRequest::new("app"));
        assert!(out.succeeded(), "log:\n{}", out.log.text());
        assert!(out.executable.unwrap().features.kokkos);
    }

    #[test]
    fn missing_build_file() {
        let repo = SourceRepo::new().with_file("main.cpp", "int main() { return 0; }");
        let out = build_repo(&repo, &BuildRequest::new("app"));
        assert!(!out.succeeded());
        assert_eq!(out.first_error_category(), Some(ErrorCategory::MissingFile));
    }

    #[test]
    fn wrong_binary_name_fails() {
        let repo = SourceRepo::new()
            .with_file("Makefile", "prog: main.cpp\n\tg++ -o prog main.cpp\n")
            .with_file("main.cpp", "int main() { return 0; }");
        let out = build_repo(&repo, &BuildRequest::new("app"));
        assert!(!out.succeeded());
        assert_eq!(
            out.first_error_category(),
            Some(ErrorCategory::MakefileMissingTarget)
        );
    }

    #[test]
    fn object_file_pipeline() {
        let repo = SourceRepo::new()
            .with_file(
                "Makefile",
                "app: main.o util.o\n\tg++ -o app main.o util.o\n\
                 main.o: main.cpp\n\tg++ -c main.cpp -o main.o\n\
                 util.o: util.cpp\n\tg++ -c util.cpp -o util.o\n",
            )
            .with_file("util.h", "int util(int x);\n")
            .with_file(
                "util.cpp",
                "#include \"util.h\"\nint util(int x) { return x + 1; }\n",
            )
            .with_file(
                "main.cpp",
                "#include \"util.h\"\nint main() { return util(41) - 42; }\n",
            );
        // Both units include `util.h`: the build parses each of its three
        // code files once.
        let parses = Parses::new(None);
        let out = build(&repo, &BuildRequest::new("app"), &parses);
        assert!(out.succeeded(), "log:\n{}", out.log.text());
        assert_eq!(parses.own_parses(), 3);
    }

    #[test]
    fn sema_failure_surfaces_in_log() {
        let repo = SourceRepo::new()
            .with_file("Makefile", "app: main.cpp\n\tg++ -o app main.cpp\n")
            .with_file("main.cpp", "int main() { return undeclared_thing; }\n");
        let out = build_repo(&repo, &BuildRequest::new("app"));
        assert!(!out.succeeded());
        assert_eq!(
            out.first_error_category(),
            Some(ErrorCategory::UndeclaredIdentifier)
        );
        assert!(out.log.text().contains("undeclared_thing"));
    }

    #[test]
    fn cu_file_requires_nvcc() {
        let repo = SourceRepo::new()
            .with_file("Makefile", "app: main.cu\n\tg++ -o app main.cu\n")
            .with_file("main.cu", "int main() { return 0; }\n");
        let out = build_repo(&repo, &BuildRequest::new("app"));
        assert_eq!(
            out.first_error_category(),
            Some(ErrorCategory::InvalidCompilerFlag)
        );
    }

    #[test]
    fn linker_failure_across_units() {
        let repo = SourceRepo::new()
            .with_file("Makefile", "app: main.cpp\n\tg++ -o app main.cpp\n")
            .with_file(
                "main.cpp",
                "void helper(int);\nint main() { helper(1); return 0; }\n",
            );
        let out = build_repo(&repo, &BuildRequest::new("app"));
        assert_eq!(out.first_error_category(), Some(ErrorCategory::LinkerError));
    }

    #[test]
    fn ignored_rm_and_echo() {
        let repo = SourceRepo::new()
            .with_file(
                "Makefile",
                "app: main.cpp\n\t@echo building app\n\t-rm -f app\n\tg++ -o app main.cpp\n",
            )
            .with_file("main.cpp", "int main() { return 0; }\n");
        let out = build_repo(&repo, &BuildRequest::new("app"));
        assert!(out.succeeded(), "log:\n{}", out.log.text());
    }
}
