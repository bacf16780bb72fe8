//! The reference ("oracle") transpilers between programming models.
//!
//! These implement the *correct* translations for the three pairs the paper
//! evaluates. The simulated LLM backends (`pareval-llm`) start from this
//! oracle output and inject model-specific mistakes; the harness also uses
//! the oracle directly to verify that every translation task is solvable
//! end-to-end in the MiniHPC world (modulo the cases that are unsolved in
//! the paper as well, e.g. XSBench's pointer-arithmetic helpers under
//! Kokkos).

mod kernel;
mod rw;

use minihpc_lang::ast::*;
use minihpc_lang::fnv::Fnv128;
use minihpc_lang::model::{ExecutionModel, TranslationPair};
use minihpc_lang::parser;
use minihpc_lang::pragma::*;
use minihpc_lang::printer;
use minihpc_lang::repo::{Body, FileKind, SourceRepo};
use minihpc_lang::walk::{walk, walk_stmts, Node};
use rw::{call, for_each_stmt, map_exprs, map_exprs_stmt, map_type, rewrite_stmts};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Outcome of transpiling one source/header file.
///
/// Besides the translated body, the cold transpile records what callers
/// would otherwise rescan in the text on every use: whether it carries a
/// parallel construct, and its line count.
#[derive(Debug, Clone, PartialEq)]
pub struct FileResult {
    pub path: String,
    /// The translated body, hashed when it is derived, so every repository
    /// it is added to by handle carries its content hash.
    pub text: Body,
    pub used_curand: bool,
    /// The text carries an offload `target` construct, a
    /// `Kokkos::parallel_for` or an OpenMP `parallel` region.
    pub parallel: bool,
    /// `text.lines().count()`.
    pub lines: usize,
}

impl FileResult {
    fn new(path: String, text: String, used_curand: bool) -> Self {
        let parallel = text.contains("#pragma omp target")
            || text.contains("Kokkos::parallel_for")
            || text.contains("#pragma omp parallel");
        let lines = text.lines().count();
        let text = Body::from(text);
        text.hash();
        FileResult {
            path,
            text,
            used_curand,
            parallel,
            lines,
        }
    }
}

/// Portable-RNG helpers emitted where cuRAND was used. The arithmetic is
/// bit-for-bit the splitmix64 chain the simulated cuRAND implements, so
/// translated programs reproduce the source model's random stream exactly.
const RNG_HELPERS: &str = r#"long rng_mix(long x) {
    x = x + 0x9E3779B97F4A7C15;
    long z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    return z ^ (z >> 31);
}

void rng_seed_into(long seed, long seq, long offset, long* state) {
    state[0] = rng_mix(seed ^ seq * 0x9E3779B97F4A7C15 ^ offset);
}

float rng_uniform(long* state) {
    state[0] = rng_mix(state[0]);
    long y = state[0] >> 11;
    return ((double)y + 1.0) / 9007199254740992.0;
}
"#;

const RNG_PROTOS: &str = "long rng_mix(long x);\nvoid rng_seed_into(long seed, long seq, long offset, long* state);\nfloat rng_uniform(long* state);\n";

/// Translate a whole repository to the pair's destination model, producing
/// the translated sources *and* build system (the "Overall" configuration).
///
/// A pure function of its arguments. Each code file goes through
/// [`transpile_file`] and the build file through [`translated_build_file`],
/// so repeated calls on one repository are served from its memo, and the
/// other files are carried by handle; the RNG-helper pass is redone per
/// call.
pub fn transpile_repo(repo: &SourceRepo, pair: TranslationPair, binary: &str) -> SourceRepo {
    let mut out = SourceRepo::new();
    let mut curand_files: Vec<String> = Vec::new();
    let mut results: Vec<FileResult> = Vec::new();

    for (path, body) in repo.iter_bodies() {
        match FileKind::of(path) {
            FileKind::Source | FileKind::Header => {
                let r = transpile_file(repo, path, body, pair);
                if r.used_curand {
                    curand_files.push(r.path.clone());
                }
                results.push(r);
            }
            FileKind::Makefile | FileKind::CMakeLists => {} // regenerated below
            FileKind::Other => out.add(path, body.clone()),
        }
    }

    // Inject RNG helpers: definitions into the first using source file
    // (deterministic order), prototypes into the others.
    curand_files.sort();
    let definer = curand_files
        .iter()
        .find(|p| FileKind::of(p) == FileKind::Source)
        .cloned();
    for mut r in results {
        if r.used_curand && pair.to == ExecutionModel::OmpOffload {
            let helpers = if Some(&r.path) == definer.as_ref() {
                RNG_HELPERS
            } else {
                RNG_PROTOS
            };
            r.text = Body::from(format!("{helpers}\n{}", &*r.text));
        }
        out.add(r.path, r.text);
    }

    let build = translated_build_file(repo, pair, binary);
    out.add(build.path, build.text);
    out
}

/// Translate one source or header file.
///
/// A pure function of `repo`'s files, `path`, `text` and `pair`: `text`
/// need not be `repo`'s copy of `path` (the top-down technique passes
/// chunks), and under CUDA→Kokkos the result also reads every other code
/// file of `repo`. It is therefore memoised on `repo` under the
/// [`Fnv128`] hash of (`pair`, `path`, the content hash of `text`), and
/// counted there as a cold derivation of a [`FileResult`]. When `text` is
/// `repo`'s body at `path`, its hash is that body's, hashed once per
/// repository ([`SourceRepo::hash_of`]); a chunk is hashed afresh. Any
/// mutation of `repo` drops the memo.
pub fn transpile_file(
    repo: &SourceRepo,
    path: &str,
    text: &str,
    pair: TranslationPair,
) -> FileResult {
    let mut key = Fnv128::new();
    key.field(pair.from.id().as_bytes());
    key.field(pair.to.id().as_bytes());
    key.field(path.as_bytes());
    key.field(&repo.hash_of(path, text).to_le_bytes());
    repo.memoized(key.finish(), || transpile_file_cold(repo, path, text, pair))
}

fn transpile_file_cold(
    repo: &SourceRepo,
    path: &str,
    text: &str,
    pair: TranslationPair,
) -> FileResult {
    let new_path = rename_for_target(path, pair.to);
    let Ok(mut file) = parser::parse_file(text) else {
        // Untranslatable input passes through (the build will fail there,
        // as it would have in the source model).
        return FileResult::new(new_path, text.to_string(), false);
    };
    let used_curand = file_uses_curand(&file);
    match (pair.from, pair.to) {
        (ExecutionModel::Cuda, ExecutionModel::OmpOffload) => cuda_to_offload(&mut file),
        (ExecutionModel::Cuda, ExecutionModel::Kokkos) => cuda_to_kokkos(&mut file, repo),
        (ExecutionModel::OmpThreads, ExecutionModel::OmpOffload) => threads_to_offload(&mut file),
        _ => {}
    }
    FileResult::new(new_path, printer::print_file(&file), used_curand)
}

/// The destination build file of `repo`'s translation.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildFile {
    pub path: String,
    /// Hashed when it is derived, like [`FileResult::text`].
    pub text: Body,
}

/// [`transpile_build_file`] for `repo`'s source files, renamed for
/// `pair`'s target. A pure function of `repo`'s file paths, `pair` and
/// `binary`, so it is memoised on `repo` under the [`Fnv128`] hash of
/// (`pair`, `binary`) and counted there as a cold derivation of a
/// [`BuildFile`].
pub fn translated_build_file(repo: &SourceRepo, pair: TranslationPair, binary: &str) -> BuildFile {
    let mut key = Fnv128::new();
    key.field(pair.from.id().as_bytes());
    key.field(pair.to.id().as_bytes());
    key.field(binary.as_bytes());
    repo.memoized(key.finish(), || {
        let sources: Vec<String> = repo
            .paths()
            .filter(|p| FileKind::of(p) == FileKind::Source)
            .map(|p| rename_for_target(p, pair.to))
            .collect();
        let (path, text) = transpile_build_file(pair, binary, &sources);
        let text = Body::from(text);
        text.hash();
        BuildFile { path, text }
    })
}

/// Generate the destination build file.
pub fn transpile_build_file(
    pair: TranslationPair,
    binary: &str,
    sources: &[String],
) -> (String, String) {
    let srcs = sources.join(" ");
    match pair.to {
        ExecutionModel::Kokkos => (
            "CMakeLists.txt".to_string(),
            format!(
                "cmake_minimum_required(VERSION 3.16)\nproject({binary} LANGUAGES CXX)\n\
                 find_package(Kokkos REQUIRED)\nset(CMAKE_CXX_STANDARD 17)\n\
                 add_executable({binary} {srcs})\n\
                 target_link_libraries({binary} PRIVATE Kokkos::kokkos)\n\
                 target_link_libraries({binary} PRIVATE m)\n"
            ),
        ),
        ExecutionModel::OmpOffload => (
            "Makefile".to_string(),
            format!(
                "CXX = clang++\nCXXFLAGS = -O2 -fopenmp -fopenmp-targets=nvptx64-nvidia-cuda -lm\n\
                 SRCS = {srcs}\n\n{binary}: $(SRCS)\n\t$(CXX) $(CXXFLAGS) -o {binary} $(SRCS)\n\n\
                 .PHONY: clean\nclean:\n\trm -f {binary}\n"
            ),
        ),
        ExecutionModel::Cuda => (
            "Makefile".to_string(),
            format!(
                "NVCC = nvcc\nNVCCFLAGS = -O2 -arch=sm_80\nSRCS = {srcs}\n\n\
                 {binary}: $(SRCS)\n\t$(NVCC) $(NVCCFLAGS) -o {binary} $(SRCS)\n\n\
                 .PHONY: clean\nclean:\n\trm -f {binary}\n"
            ),
        ),
        ExecutionModel::OmpThreads => (
            "Makefile".to_string(),
            format!(
                "CXX = g++\nCXXFLAGS = -O2 -fopenmp -lm\nSRCS = {srcs}\n\n\
                 {binary}: $(SRCS)\n\t$(CXX) $(CXXFLAGS) -o {binary} $(SRCS)\n\n\
                 .PHONY: clean\nclean:\n\trm -f {binary}\n"
            ),
        ),
    }
}

/// `.cu` sources become `.cpp` when leaving CUDA.
pub fn rename_for_target(path: &str, to: ExecutionModel) -> String {
    if to != ExecutionModel::Cuda && path.ends_with(".cu") {
        format!("{}.cpp", &path[..path.len() - 3])
    } else {
        path.to_string()
    }
}

/// Does the file use cuRAND: does any text the printer would emit for it
/// mention it? That is include paths, macro and directive text, type and
/// struct names, declared names, identifiers, members, pragmas and string
/// literals. Comments never reach the AST, so they never count.
fn file_uses_curand(file: &SourceFile) -> bool {
    fn named(s: &str) -> bool {
        s.contains("curand")
    }
    fn typed(t: &Type) -> bool {
        match t {
            Type::Ptr(inner) | Type::Const(inner) => typed(inner),
            Type::Named(n) => named(n),
            _ => false,
        }
    }
    let declared = |p: &Param| named(&p.name) || typed(&p.ty);
    let mut in_code = false;
    let mut visit = |n: Node| {
        in_code |= match n {
            Node::Stmt(s) => match &s.kind {
                StmtKind::Decl(d) => named(&d.name) || typed(&d.ty),
                StmtKind::Omp { directive, .. } => named(&directive.text()),
                StmtKind::RawPragma(text) => named(text),
                _ => false,
            },
            Node::Expr(e) => match &e.kind {
                ExprKind::Ident(s) | ExprKind::StrLit(s) => named(s),
                ExprKind::KernelLaunch { kernel, .. } => named(kernel),
                ExprKind::Member { member, .. } => named(member),
                ExprKind::Path(segments) => segments.iter().any(|s| named(s)),
                ExprKind::Cast { ty, .. } | ExprKind::SizeOfType(ty) => typed(ty),
                ExprKind::Lambda { params, .. } => params.iter().any(declared),
                _ => false,
            },
        }
    };
    let in_items = file.items.iter().any(|item| match &item.kind {
        ItemKind::Include { path, .. } => named(path),
        ItemKind::Define { name, body_text } => named(name) || named(body_text),
        ItemKind::OtherDirective(text) => named(text),
        ItemKind::Struct(s) => {
            for dim in s.fields.iter().flat_map(|f| &f.array_dims) {
                walk(Node::Expr(dim), &mut visit);
            }
            named(&s.name) || s.fields.iter().any(|f| named(&f.name) || typed(&f.ty))
        }
        ItemKind::Global(g) => {
            let init = match &g.init {
                Some(Init::Expr(e)) => std::slice::from_ref(e),
                Some(Init::List(es) | Init::Ctor(es)) => es,
                None => &[],
            };
            for e in g.array_dims.iter().chain(init) {
                walk(Node::Expr(e), &mut visit);
            }
            named(&g.name) || typed(&g.ty)
        }
        ItemKind::Function(f) => {
            if let Some(body) = &f.body {
                walk_stmts(&body.stmts, &mut visit);
            }
            named(&f.name) || typed(&f.ret) || f.params.iter().any(declared)
        }
    });
    in_items || in_code
}

// ===========================================================================
// CUDA → OpenMP offload
// ===========================================================================

fn cuda_to_offload(file: &mut SourceFile) {
    rewrite_includes(file, &[("omp.h", true)]);
    rewrite_curand_types(file);
    let var_types = collect_fn_types(file);
    for item in &mut file.items {
        let ItemKind::Function(f) = &mut item.kind else {
            continue;
        };
        let was_kernel = f.quals.cuda_global;
        f.quals.cuda_global = false;
        f.quals.cuda_device = false;
        f.quals.cuda_host = false;
        if was_kernel {
            if let Some(loops) = kernel::extract(f) {
                let n = loops.vars.len();
                let collapse = (n > 1).then_some(OmpClause::Collapse(n as i64));
                // Map every pointer parameter.
                let pointers = f.params.iter().filter_map(|p| pointer(&p.name, &p.ty));
                let directive = offload_directive(collapse.into_iter().collect(), pointers);
                let nest = kernel::build_for_nest(&loops);
                f.body = Some(Block::new(vec![Stmt::synth(StmtKind::Omp {
                    directive,
                    body: Some(Box::new(nest)),
                })]));
            }
        }
        if let Some(body) = &mut f.body {
            rewrite_cuda_host_stmts(body, &var_types);
        }
    }
}

/// `target teams distribute parallel for` with `clauses`, then the
/// `pointers`: those whose pointee is const go only to the device
/// (`map(to:)`), the others both ways (`map(tofrom:)`).
fn offload_directive<'a>(
    clauses: Vec<OmpClause>,
    pointers: impl Iterator<Item = (&'a str, bool)>,
) -> OmpDirective {
    let mut d = OmpDirective::new(vec![
        OmpConstruct::Target,
        OmpConstruct::Teams,
        OmpConstruct::Distribute,
        OmpConstruct::Parallel,
        OmpConstruct::For,
    ]);
    d.clauses = clauses;
    let (to, tofrom): (Vec<_>, Vec<_>) = pointers.partition(|&(_, is_const)| is_const);
    for (kind, vars) in [(MapKind::To, to), (MapKind::ToFrom, tofrom)] {
        if !vars.is_empty() {
            let sections = vars.into_iter().map(|(v, _)| ArraySection::scalar(v));
            d.clauses.push(OmpClause::Map {
                kind,
                sections: sections.collect(),
            });
        }
    }
    d
}

/// `(name, pointee is const)` when `ty` is a pointer.
fn pointer<'a>(name: &'a str, ty: &Type) -> Option<(&'a str, bool)> {
    match ty.unqualified() {
        Type::Ptr(inner) => Some((name, matches!(**inner, Type::Const(_)))),
        _ => None,
    }
}

// ===========================================================================
// CUDA → Kokkos
// ===========================================================================

fn cuda_to_kokkos(file: &mut SourceFile, repo: &SourceRepo) {
    rewrite_includes(file, &[("Kokkos_Core.hpp", true)]);
    rewrite_curand_types(file);
    // Repo-wide analysis: which function parameters carry device data (and
    // therefore become views)? Kernels seed the set; ordinary calls and
    // kernel launches propagate it to wrappers like `runXOR`.
    let view_param_map = view_params(repo);

    let var_types = collect_fn_types(file);
    for item in &mut file.items {
        let ItemKind::Function(f) = &mut item.kind else {
            continue;
        };
        let was_kernel = f.quals.cuda_global;
        f.quals.cuda_global = false;
        f.quals.cuda_device = false;
        f.quals.cuda_host = false;

        let mut view_params: HashSet<String> = HashSet::new();
        if let Some(mask) = view_param_map.get(&f.name) {
            for (p, is_view) in f.params.iter_mut().zip(mask) {
                if !is_view {
                    continue;
                }
                if let Some(elem) = scalar_pointee(&p.ty) {
                    p.ty = Type::View { elem, rank: 1 };
                    view_params.insert(p.name.clone());
                }
            }
        }

        if was_kernel {
            // The runtime's `MDRangePolicy` has rank 2: a kernel with more
            // index variables stays as it is, like one `extract` rejects.
            if let Some(loops) = kernel::extract(f).filter(|loops| loops.vars.len() <= 2) {
                let lambda_params: Vec<Param> = loops
                    .vars
                    .iter()
                    .map(|v| Param::new(Type::INT, v.clone()))
                    .collect();
                let mut body = Block::new(loops.body.clone());
                for s in &mut body.stmts {
                    rewrite_index_to_view_call(s, &view_params);
                }
                let lambda = Expr::synth(ExprKind::Lambda {
                    capture: CaptureMode::KokkosLambda,
                    params: lambda_params,
                    body,
                });
                let policy = if loops.vars.len() == 1 {
                    loops.bounds[0].clone()
                } else {
                    Expr::call(
                        Expr::path(&["Kokkos", "MDRangePolicy"]),
                        vec![
                            Expr::int(0),
                            Expr::int(0),
                            loops.bounds[0].clone(),
                            loops.bounds[1].clone(),
                        ],
                    )
                };
                let parallel_for = Expr::call(
                    Expr::path(&["Kokkos", "parallel_for"]),
                    vec![policy, lambda],
                );
                f.body = Some(Block::new(vec![Stmt::expr(parallel_for)]));
            }
        } else if !view_params.is_empty() {
            // Device helper / wrapper: rewrite indexing of its view params.
            if let Some(body) = &mut f.body {
                for s in &mut body.stmts {
                    rewrite_index_to_view_call(s, &view_params);
                }
            }
        }

        if let Some(body) = &mut f.body {
            // Host-side CUDA API rewrites (views for device buffers).
            let device_views = kokkos_rewrite_host(body, &var_types);
            // Rewrite indexing of device views in host code (rare; deep_copy
            // is the normal path).
            for s in &mut body.stmts {
                rewrite_index_to_view_call(s, &device_views);
            }
            if f.name == "main" {
                wrap_main_with_kokkos(body);
            }
        }
    }
}

/// [`view_params_map`] of `repo`, memoised on it: one derivation per
/// repository, however many of its files are transpiled, counted there as
/// a cold derivation of a [`ViewParams`].
fn view_params(repo: &SourceRepo) -> Arc<BTreeMap<String, Vec<bool>>> {
    // The map has no input besides the repository: its key hashes none.
    let derive = || ViewParams(Arc::new(view_params_map(repo)));
    repo.memoized(Fnv128::new().finish(), derive).0
}

/// The memoised [`view_params_map`]: a type of its own, so its memo entry
/// is told apart from other results by type.
#[derive(Clone)]
struct ViewParams(Arc<BTreeMap<String, Vec<bool>>>);

/// Repo-wide analysis: per function, which parameters become Kokkos views.
///
/// Seeds: every scalar-pointer parameter of a `__global__` kernel and of any
/// function transitively called from a kernel. Propagation: if function F
/// passes its parameter `p` as argument `i` of a call (or kernel launch) to
/// G whose parameter `i` is a view, then `p` is a view too — this is how
/// host wrappers that forward device pointers (`runXOR`) get view types.
fn view_params_map(repo: &SourceRepo) -> BTreeMap<String, Vec<bool>> {
    struct FnInfo {
        params: Vec<Param>,
        is_kernel: bool,
        /// (callee, arg index, param name of this function used as the arg)
        forwards: Vec<(String, usize, String)>,
        callees: HashSet<String>,
    }
    let mut fns: BTreeMap<String, FnInfo> = BTreeMap::new();
    for (path, text) in repo.iter() {
        if !FileKind::of(path).is_code() {
            continue;
        }
        let Ok(file) = parser::parse_file(text) else {
            continue;
        };
        for f in file.functions() {
            let param_names: HashSet<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
            let mut forwards = Vec::new();
            let mut callees = HashSet::new();
            if let Some(body) = &f.body {
                walk_stmts(&body.stmts, &mut |n| {
                    let Node::Expr(e) = n else { return };
                    let (callee, args) = match &e.kind {
                        ExprKind::Call { callee, args } => match &callee.kind {
                            ExprKind::Ident(n) => (n.clone(), args),
                            _ => return,
                        },
                        ExprKind::KernelLaunch { kernel, args, .. } => (kernel.clone(), args),
                        _ => return,
                    };
                    callees.insert(callee.clone());
                    for (i, a) in args.iter().enumerate() {
                        if let ExprKind::Ident(n) = &a.kind {
                            if param_names.contains(n.as_str()) {
                                forwards.push((callee.clone(), i, n.clone()));
                            }
                        }
                    }
                });
            }
            let entry = fns.entry(f.name.clone()).or_insert(FnInfo {
                params: f.params.clone(),
                is_kernel: f.quals.cuda_global,
                forwards: vec![],
                callees: HashSet::new(),
            });
            entry.is_kernel |= f.quals.cuda_global;
            if f.is_definition() {
                entry.params = f.params.clone();
                entry.forwards = forwards;
                entry.callees = callees;
            }
        }
    }

    // Seed: kernels and transitive device callees.
    let mut device: HashSet<String> = HashSet::new();
    let mut stack: Vec<String> = fns
        .iter()
        .filter(|(_, i)| i.is_kernel)
        .map(|(n, _)| n.clone())
        .collect();
    while let Some(name) = stack.pop() {
        if !device.insert(name.clone()) {
            continue;
        }
        if let Some(info) = fns.get(&name) {
            for c in &info.callees {
                if fns.contains_key(c) && !device.contains(c) {
                    stack.push(c.clone());
                }
            }
        }
    }

    let mut masks: BTreeMap<String, Vec<bool>> = BTreeMap::new();
    for (name, info) in &fns {
        let mask: Vec<bool> = info
            .params
            .iter()
            .map(|p| device.contains(name) && scalar_pointee(&p.ty).is_some())
            .collect();
        masks.insert(name.clone(), mask);
    }
    // Propagate view-ness backwards through forwarding call sites.
    loop {
        let mut changed = false;
        for (name, info) in &fns {
            if name == "main" {
                continue;
            }
            for (callee, arg_idx, param_name) in &info.forwards {
                let callee_is_view = masks
                    .get(callee)
                    .and_then(|m| m.get(*arg_idx))
                    .copied()
                    .unwrap_or(false);
                if !callee_is_view {
                    continue;
                }
                if let Some(pi) = info.params.iter().position(|p| &p.name == param_name) {
                    if scalar_pointee(&info.params[pi].ty).is_some() {
                        let mask = masks.get_mut(name).unwrap();
                        if !mask[pi] {
                            mask[pi] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    masks
}

fn scalar_pointee(t: &Type) -> Option<ScalarType> {
    match t.unqualified() {
        Type::Ptr(inner) => match inner.unqualified() {
            Type::Scalar(s) if *s != ScalarType::Void => Some(*s),
            _ => None,
        },
        _ => None,
    }
}

/// Host-side CUDA→Kokkos statement rewrites; returns the set of variables
/// that became device views.
fn kokkos_rewrite_host(body: &mut Block, var_types: &BTreeMap<String, Type>) -> HashSet<String> {
    // Pass 1: find device allocations `cudaMalloc(&p, n * sizeof(T))`.
    let mut view_info: BTreeMap<String, (ScalarType, Expr)> = BTreeMap::new();
    walk_stmts(&body.stmts, &mut |n| {
        let Node::Stmt(Stmt {
            kind: StmtKind::Expr(e),
            ..
        }) = n
        else {
            return;
        };
        if let Some(("cudaMalloc", [target, bytes, ..])) = call(e) {
            if let Some(var) = malloc_target_var(target) {
                let elem = var_types.get(&var).and_then(scalar_pointee);
                let elem = elem.unwrap_or(ScalarType::Double);
                view_info.insert(var, (elem, element_count_expr(bytes)));
            }
        }
    });
    // Pointer aliases of device views (`int* tmp = d_in;` ping-pong swaps)
    // become view handles too; iterate to a fixpoint. Each view keeps the
    // element type of the first view it aliases.
    let mut views: BTreeMap<String, ScalarType> = view_info
        .iter()
        .map(|(k, (e, _))| (k.clone(), *e))
        .collect();
    loop {
        let before = views.len();
        walk_stmts(&body.stmts, &mut |n| {
            let Node::Stmt(Stmt {
                kind: StmtKind::Decl(d),
                ..
            }) = n
            else {
                return;
            };
            let Some(Init::Expr(Expr {
                kind: ExprKind::Ident(v),
                ..
            })) = &d.init
            else {
                return;
            };
            let Some(&elem) = views.get(v) else { return };
            if d.ty.is_pointer() {
                views.entry(d.name.clone()).or_insert(elem);
            }
        });
        if views.len() == before {
            break;
        }
    }

    // Pass 2: rewrite statements.
    rewrite_stmts(body, &mut |s| {
        match &s.kind {
            // Drop the plain pointer declaration of a future view.
            StmtKind::Decl(d) if views.contains_key(&d.name) && d.init.is_none() => vec![],
            StmtKind::Decl(d) if matches!(d.ty.unqualified(), Type::Dim3) => vec![],
            // Alias declarations become view-handle declarations.
            StmtKind::Decl(d)
                if views.contains_key(&d.name)
                    && matches!(&d.init, Some(Init::Expr(e))
                        if matches!(&e.kind, ExprKind::Ident(v) if views.contains_key(v))) =>
            {
                let mut d = d.clone();
                d.ty = Type::View {
                    elem: views[&d.name],
                    rank: 1,
                };
                vec![Stmt::synth(StmtKind::Decl(d))]
            }
            StmtKind::Expr(e) => match call(e) {
                Some(("cudaMalloc", [target, _, ..])) => {
                    let Some(var) = malloc_target_var(target) else {
                        return vec![s];
                    };
                    let Some((elem, len)) = view_info.get(&var) else {
                        return vec![s];
                    };
                    vec![Stmt::synth(StmtKind::Decl(VarDecl {
                        name: var.clone(),
                        ty: Type::View {
                            elem: *elem,
                            rank: 1,
                        },
                        array_dims: vec![],
                        init: Some(Init::Ctor(vec![
                            Expr::synth(ExprKind::StrLit(var.clone())),
                            len.clone(),
                        ])),
                        is_static: false,
                    }))]
                }
                Some(("cudaMemcpy", [dst, src, ..])) => vec![Stmt::expr(Expr::call(
                    Expr::path(&["Kokkos", "deep_copy"]),
                    vec![dst.clone(), src.clone()],
                ))],
                Some(("cudaFree", _)) => vec![],
                Some(("cudaDeviceSynchronize" | "cudaGetLastError", _)) => {
                    vec![Stmt::expr(Expr::call(
                        Expr::path(&["Kokkos", "fence"]),
                        vec![],
                    ))]
                }
                _ => {
                    let mut s = s;
                    if let StmtKind::Expr(e) = &mut s.kind {
                        launch_to_call(e);
                    }
                    vec![s]
                }
            },
            _ => vec![s],
        }
    });
    views.into_keys().collect()
}

/// `&p` (possibly cast) → `p`.
fn malloc_target_var(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Unary {
            op: UnaryOp::AddrOf,
            expr,
        } => match &expr.kind {
            ExprKind::Ident(n) => Some(n.clone()),
            _ => None,
        },
        ExprKind::Cast { expr, .. } | ExprKind::Paren(expr) => malloc_target_var(expr),
        _ => None,
    }
}

/// Peel a trailing `* sizeof(T)` factor off a byte-size expression to get an
/// element count; falls back to `bytes / sizeof(double)`.
fn element_count_expr(bytes: &Expr) -> Expr {
    if let ExprKind::Binary {
        op: BinOp::Mul,
        lhs,
        rhs,
    } = &bytes.kind
    {
        if matches!(rhs.kind, ExprKind::SizeOfType(_) | ExprKind::SizeOfExpr(_)) {
            return (**lhs).clone();
        }
    }
    Expr::binary(
        BinOp::Div,
        bytes.clone(),
        Expr::synth(ExprKind::SizeOfType(Type::DOUBLE)),
    )
}

fn launch_to_call(e: &mut Expr) {
    map_exprs(e, &mut |e| {
        if let ExprKind::KernelLaunch { kernel, args, .. } = &e.kind {
            *e = Expr::call(Expr::ident(kernel.clone()), args.clone());
        }
    });
}

/// `p[expr]` → `p(expr)` for view variables.
fn rewrite_index_to_view_call(s: &mut Stmt, views: &HashSet<String>) {
    if views.is_empty() {
        return;
    }
    map_exprs_stmt(s, &mut |e| {
        if let ExprKind::Index { base, index } = &e.kind {
            if let ExprKind::Ident(n) = &base.kind {
                if views.contains(n) {
                    *e = Expr::call(Expr::ident(n.clone()), vec![(**index).clone()]);
                }
            }
        }
    });
}

fn wrap_main_with_kokkos(body: &mut Block) {
    // `Kokkos::finalize()` before every return; `initialize()` first.
    rewrite_stmts(body, &mut |s| {
        if matches!(s.kind, StmtKind::Return(_)) {
            vec![
                Stmt::expr(Expr::call(Expr::path(&["Kokkos", "finalize"]), vec![])),
                s,
            ]
        } else {
            vec![s]
        }
    });
    body.stmts.insert(
        0,
        Stmt::expr(Expr::call(Expr::path(&["Kokkos", "initialize"]), vec![])),
    );
}

// ===========================================================================
// OpenMP threads → OpenMP offload
// ===========================================================================

fn threads_to_offload(file: &mut SourceFile) {
    for item in &mut file.items {
        let ItemKind::Function(f) = &mut item.kind else {
            continue;
        };
        let Some(body) = &mut f.body else { continue };
        // A directive maps the pointer parameters and the pointers declared
        // before it (in preorder) that its loop references. An upgraded
        // loop is device code: nothing in it is upgraded or mapped later.
        let mut pointers: Vec<(String, bool)> = f
            .params
            .iter()
            .filter_map(|p| pointer(&p.name, &p.ty))
            .map(|(v, is_const)| (v.to_string(), is_const))
            .collect();
        for s in &mut body.stmts {
            for_each_stmt(s, &mut |s| match &mut s.kind {
                StmtKind::Decl(d) => {
                    if let Some((v, is_const)) = pointer(&d.name, &d.ty) {
                        pointers.push((v.to_string(), is_const));
                    }
                    true
                }
                StmtKind::Omp { directive, body }
                    if directive.has(OmpConstruct::Parallel)
                        && directive.has(OmpConstruct::For)
                        && !directive.targets_device() =>
                {
                    // Keep collapse/reduction clauses only.
                    let kept = directive.clauses.iter().filter(|c| {
                        matches!(c, OmpClause::Collapse(_) | OmpClause::Reduction { .. })
                    });
                    let referenced = referenced_idents(body.as_deref());
                    let mapped = pointers
                        .iter()
                        .filter(|(v, _)| referenced.contains(v.as_str()))
                        .map(|(v, is_const)| (v.as_str(), *is_const));
                    *directive = offload_directive(kept.cloned().collect(), mapped);
                    false
                }
                _ => true,
            });
        }
    }
}

fn referenced_idents(s: Option<&Stmt>) -> HashSet<&str> {
    let mut out = HashSet::new();
    let Some(s) = s else { return out };
    walk(Node::Stmt(s), &mut |n| {
        if let Node::Expr(Expr {
            kind: ExprKind::Ident(name),
            ..
        }) = n
        {
            out.insert(name.as_str());
        }
    });
    out
}

// ===========================================================================
// Shared rewrites
// ===========================================================================

/// Rewrite CUDA host API statements for the OpenMP-offload target: device
/// buffers become plain host allocations and transfers become memcpy.
fn rewrite_cuda_host_stmts(body: &mut Block, var_types: &BTreeMap<String, Type>) {
    rewrite_stmts(body, &mut |mut s| {
        match &mut s.kind {
            StmtKind::Decl(d) if matches!(d.ty.unqualified(), Type::Dim3) => return vec![],
            StmtKind::Expr(e) => {
                let host = match call(e) {
                    Some(("cudaDeviceSynchronize" | "cudaGetLastError", _)) => return vec![],
                    Some(("cudaMalloc", [target, size, ..])) => {
                        malloc_target_var(target).map(|var| {
                            let ptr_ty = var_types.get(&var).cloned();
                            let ptr_ty = ptr_ty.unwrap_or(Type::ptr(Type::DOUBLE));
                            Expr::synth(ExprKind::Assign {
                                op: None,
                                lhs: Box::new(Expr::ident(var)),
                                rhs: Box::new(Expr::synth(ExprKind::Cast {
                                    ty: strip_const_ptr(&ptr_ty),
                                    expr: Box::new(Expr::call(
                                        Expr::ident("malloc"),
                                        vec![size.clone()],
                                    )),
                                })),
                            })
                        })
                    }
                    Some(("cudaMemcpy", [dst, src, bytes, ..])) => Some(Expr::call(
                        Expr::ident("memcpy"),
                        vec![dst.clone(), src.clone(), bytes.clone()],
                    )),
                    Some(("cudaFree", [p, ..])) => {
                        Some(Expr::call(Expr::ident("free"), vec![p.clone()]))
                    }
                    _ => None,
                };
                match host {
                    Some(host) => *e = host,
                    None => launch_to_call(e),
                }
            }
            _ => {}
        }
        vec![s]
    });
}

fn strip_const_ptr(t: &Type) -> Type {
    match t.unqualified() {
        Type::Ptr(inner) => Type::ptr(inner.unqualified().clone()),
        other => other.clone(),
    }
}

/// `curandState` → `long` throughout (types and sizeof), and the cuRAND
/// calls → the portable RNG helpers.
fn rewrite_curand_types(file: &mut SourceFile) {
    for item in &mut file.items {
        match &mut item.kind {
            ItemKind::Function(f) => {
                fix_curand_type(&mut f.ret);
                for p in &mut f.params {
                    fix_curand_type(&mut p.ty);
                }
                for s in f.body.iter_mut().flat_map(|b| &mut b.stmts) {
                    for_each_stmt(s, &mut |s| {
                        if let StmtKind::Decl(d) = &mut s.kind {
                            fix_curand_type(&mut d.ty);
                        }
                        true
                    });
                    map_exprs_stmt(s, &mut |e| match &mut e.kind {
                        ExprKind::SizeOfType(t) | ExprKind::Cast { ty: t, .. } => {
                            fix_curand_type(t)
                        }
                        ExprKind::SizeOfExpr(inner) => {
                            if matches!(&inner.kind, ExprKind::Ident(n) if n == "curandState") {
                                e.kind = ExprKind::SizeOfType(Type::Scalar(ScalarType::Long));
                            }
                        }
                        ExprKind::Call { callee, .. } => {
                            if let ExprKind::Ident(n) = &mut callee.kind {
                                match n.as_str() {
                                    "curand_init" => *n = "rng_seed_into".into(),
                                    "curand_uniform" | "curand_uniform_double" => {
                                        *n = "rng_uniform".into()
                                    }
                                    _ => {}
                                }
                            }
                        }
                        _ => {}
                    });
                }
            }
            ItemKind::Struct(sd) => {
                for f in &mut sd.fields {
                    fix_curand_type(&mut f.ty);
                }
            }
            ItemKind::Global(g) => fix_curand_type(&mut g.ty),
            _ => {}
        }
    }
}

fn fix_curand_type(t: &mut Type) {
    map_type(t, &mut |t| {
        if matches!(t, Type::Named(n) if n == "curandState") {
            *t = Type::Scalar(ScalarType::Long);
        }
    });
}

/// Replace CUDA system includes; ensure `adds` are present (once) if any
/// CUDA include was removed or the file has code items.
fn rewrite_includes(file: &mut SourceFile, adds: &[(&str, bool)]) {
    let mut removed_any = false;
    file.items.retain(|item| {
        if let ItemKind::Include { path, system: true } = &item.kind {
            if matches!(
                path.as_str(),
                "cuda_runtime.h" | "cuda.h" | "curand_kernel.h" | "curand.h"
            ) {
                removed_any = true;
                return false;
            }
        }
        true
    });
    if removed_any {
        for (path, system) in adds.iter().rev() {
            let already = file
                .items
                .iter()
                .any(|i| matches!(&i.kind, ItemKind::Include { path: p, .. } if p == path));
            if !already {
                file.items.insert(
                    0,
                    Item::synth(ItemKind::Include {
                        path: path.to_string(),
                        system: *system,
                    }),
                );
            }
        }
    }
}

/// Collect declared variable types (params + locals) for every function in
/// the file, flattened into one map (names in our apps are unique enough;
/// collisions resolve to the last declaration, which only affects allocation
/// element-type inference).
fn collect_fn_types(file: &SourceFile) -> BTreeMap<String, Type> {
    let mut out = BTreeMap::new();
    for f in file.functions() {
        for p in &f.params {
            out.insert(p.name.clone(), p.ty.clone());
        }
        let body = f.body.as_ref().map_or(&[][..], |b| &b.stmts);
        walk_stmts(body, &mut |n| {
            if let Node::Stmt(Stmt {
                kind: StmtKind::Decl(d),
                ..
            }) = n
            {
                out.insert(d.name.clone(), d.ty.clone());
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihpc_lang::fnv::fnv128;

    #[test]
    fn memoised_transpile_matches_the_cold_path() {
        for app in pareval_apps::suite() {
            for pair in app.pairs() {
                let repo = app.repo(pair.from).unwrap();
                let cold_before = repo.cold_derivations::<FileResult>();
                for path in repo.code_files() {
                    let text = repo.get(path).unwrap();
                    let cold = transpile_file_cold(repo, path, text, pair);
                    let first = transpile_file(repo, path, text, pair);
                    let warm = transpile_file(repo, path, text, pair);
                    assert_eq!(first, cold, "{}: {path} ({pair})", app.name);
                    assert_eq!(warm, cold, "{}: {path} ({pair})", app.name);
                }
                assert_eq!(
                    repo.cold_derivations::<FileResult>() - cold_before,
                    repo.code_files().len(),
                    "{} ({pair}): one cold transpile per file",
                    app.name
                );
            }
        }
    }

    #[test]
    fn memoised_results_record_their_text() {
        for app in pareval_apps::suite() {
            for pair in app.pairs() {
                let repo = app.repo(pair.from).unwrap();
                for path in repo.code_files() {
                    let r = transpile_file(repo, path, repo.get(path).unwrap(), pair);
                    assert_eq!(r.text.hash(), fnv128(r.text.as_bytes()));
                    assert_eq!(r.lines, r.text.lines().count(), "{path}");
                    let parallel = [
                        "#pragma omp target",
                        "Kokkos::parallel_for",
                        "#pragma omp parallel",
                    ]
                    .iter()
                    .any(|construct| r.text.contains(construct));
                    assert_eq!(r.parallel, parallel, "{}: {path} ({pair})", app.name);
                }
            }
        }
    }

    #[test]
    fn memoised_build_file_matches_transpile_build_file() {
        for app in pareval_apps::suite() {
            for pair in app.pairs() {
                let repo = app.repo(pair.from).unwrap().clone();
                // The translated sources, as the transpiled files name them.
                let sources: Vec<String> = repo
                    .code_files()
                    .into_iter()
                    .map(|p| transpile_file(&repo, p, repo.get(p).unwrap(), pair).path)
                    .filter(|p| FileKind::of(p) == FileKind::Source)
                    .collect();
                let (path, text) = transpile_build_file(pair, &app.binary, &sources);
                let first = translated_build_file(&repo, pair, &app.binary);
                assert_eq!((&first.path, &*first.text), (&path, text.as_str()));
                assert_eq!(first.text.hash(), fnv128(text.as_bytes()));
                let warm = translated_build_file(&repo, pair, &app.binary);
                assert!(Body::ptr_eq(&first.text, &warm.text));
                assert_eq!(repo.cold_derivations::<BuildFile>(), 1);
                let out = transpile_repo(&repo, pair, &app.binary);
                assert_eq!(out.get(&path), Some(text.as_str()), "{} ({pair})", app.name);
            }
        }
    }

    #[test]
    fn short_cuda_calls_pass_through_unchanged() {
        // Too few arguments to translate: the call is left as it is, never
        // a panic. (Under Kokkos every `cudaFree` is dropped, and
        // `cudaMemcpy` needs only two arguments.)
        let src = "int main() {\n    double* p;\n    cudaMalloc(&p);\n    \
                   cudaMemcpy(p, p);\n    cudaMemcpy(p);\n    cudaFree();\n    return 0;\n}\n";
        let offload = [
            "cudaMalloc(&p);",
            "cudaMemcpy(p, p);",
            "cudaMemcpy(p);",
            "cudaFree();",
        ];
        let kokkos = ["cudaMalloc(&p);", "cudaMemcpy(p);"];
        for (pair, kept) in [
            (TranslationPair::CUDA_TO_OMP_OFFLOAD, &offload[..]),
            (TranslationPair::CUDA_TO_KOKKOS, &kokkos[..]),
        ] {
            let mut repo = SourceRepo::new();
            repo.add("main.cu", src);
            let out = transpile_file(&repo, "main.cu", src, pair).text;
            for call in kept {
                assert!(out.contains(call), "{pair}: {call} missing from\n{}", &*out);
            }
        }
    }

    #[test]
    fn curand_named_only_in_comments_is_not_a_use() {
        let uses = |src: &str| file_uses_curand(&parser::parse_file(src).unwrap());
        assert!(!uses(
            "// seeds like curand_init\nvoid f(long* s) {\n    /* curandState */\n    s[0] = 1;\n}\n"
        ));
        assert!(uses("#include <curand_kernel.h>\n"));
        assert!(uses("void f(curandState* s);\n"));
        assert!(uses(
            "void f(float* x, long* s) {\n    x[0] = curand_uniform(s);\n}\n"
        ));
        // Text the AST keeps outside identifiers counts as the printed file did.
        assert!(uses("#define RNG_T curandState\nvoid f(RNG_T* s);\n"));
        assert!(uses("struct curand_box {\n    long s;\n};\n"));
        assert!(uses(
            "void f(struct Box* b) {\n    b->curand_seed = 1;\n}\n"
        ));
        assert!(uses("long seeds[4] = {1, curand_seed, 3, 4};\n"));
    }

    #[test]
    fn a_kernel_with_three_index_variables_stays_untranslated() {
        // The runtime's `MDRangePolicy` takes two dimensions; a 3-D kernel
        // is left as `kernel::extract` leaves a kernel it cannot read.
        let kernel = |dims: &[(&str, &str, &str)]| {
            let idx: String = dims
                .iter()
                .map(|(v, axis, _)| {
                    format!("    int {v} = blockIdx.{axis} * blockDim.{axis} + threadIdx.{axis};\n")
                })
                .collect();
            let guard: Vec<String> = dims.iter().map(|(v, _, n)| format!("{v} < {n}")).collect();
            format!(
                "__global__ void fill(double* a, int n, int m, int p) {{\n{idx}    if ({}) {{\n        \
                 a[0] = 1.0;\n    }}\n}}\n",
                guard.join(" && ")
            )
        };
        let pair = TranslationPair::CUDA_TO_KOKKOS;
        let translate = |src: String| {
            let mut repo = SourceRepo::new();
            repo.add("k.cu", src.as_str());
            transpile_file(&repo, "k.cu", &src, pair).text
        };
        let two = translate(kernel(&[("i", "x", "n"), ("j", "y", "m")]));
        assert!(two.contains("Kokkos::MDRangePolicy"), "{}", &*two);
        let three = translate(kernel(&[("i", "x", "n"), ("j", "y", "m"), ("k", "z", "p")]));
        assert!(!three.contains("Kokkos::parallel_for"), "{}", &*three);
        assert!(
            three.contains("if (i < n && j < m && k < p)"),
            "{}",
            &*three
        );
    }

    #[test]
    fn a_directive_maps_the_pointers_declared_before_it() {
        // `tmp` is declared before both loops and `row` inside each one;
        // `out` is referenced by neither.
        let src = "void f(const double* in, double* out, int n) {\n    double* tmp = out;\n    \
                   #pragma omp parallel for\n    for (int i = 0; i < n; i++) {\n        \
                   double* row = tmp;\n        row[i] = in[i];\n    }\n    \
                   #pragma omp parallel for\n    for (int i = 0; i < n; i++) {\n        \
                   double* row = tmp;\n        row[i] = row[i] + 1.0;\n    }\n}\n";
        let mut repo = SourceRepo::new();
        repo.add("f.cpp", src);
        let pair = TranslationPair::OMP_THREADS_TO_OFFLOAD;
        let out = transpile_file(&repo, "f.cpp", src, pair).text;
        let target = "#pragma omp target teams distribute parallel for";
        let first = format!("{target} map(to: in) map(tofrom: tmp)\n");
        let second = format!("{target} map(tofrom: tmp)\n");
        assert!(out.contains(&first) && out.contains(&second), "{}", &*out);
    }

    #[test]
    fn editing_another_file_invalidates_a_kokkos_transpile() {
        // Under CUDA→Kokkos, kernel.h's `runXOR` parameters become views
        // only because kernel.cu's `runXOR` forwards them to a kernel.
        let app = pareval_apps::by_name("microXOR").unwrap();
        let pair = TranslationPair::CUDA_TO_KOKKOS;
        let mut repo = app.repo(pair.from).unwrap().clone();
        let header = repo.get("src/kernel.h").unwrap().to_string();
        let before = transpile_file(&repo, "src/kernel.h", &header, pair);

        let kernel = repo.get("src/kernel.cu").unwrap();
        let unlaunched = kernel.replace("cellsXOR<<<grid, block>>>(in, out, N);", "");
        assert_ne!(unlaunched, kernel);
        repo.add("src/kernel.cu", unlaunched);

        let after = transpile_file(&repo, "src/kernel.h", &header, pair);
        assert_eq!(
            after,
            transpile_file_cold(&repo, "src/kernel.h", &header, pair)
        );
        assert_ne!(after, before, "the edit must matter to kernel.h");
    }

    #[test]
    fn a_kokkos_transpile_derives_the_view_map_once_per_repo() {
        // microXOR's CUDA repo has three code files, and each one's
        // CUDA→Kokkos transpile reads the repo-wide view map.
        let app = pareval_apps::by_name("microXOR").unwrap();
        let pair = TranslationPair::CUDA_TO_KOKKOS;
        let repo = app.repo(pair.from).unwrap().clone();
        assert_eq!(repo.code_files().len(), 3);
        for path in repo.code_files() {
            transpile_file(&repo, path, repo.get(path).unwrap(), pair);
        }
        assert_eq!(repo.cold_derivations::<FileResult>(), 3);
        assert_eq!(repo.cold_derivations::<ViewParams>(), 1);
    }
}
