//! Semantic analysis for MiniHPC translation units.
//!
//! Produces the diagnostic categories the paper's Fig. 3 clusters:
//! undeclared identifiers, function argument/type mismatches, invalid OpenMP
//! directives — and records the symbol information linking needs.
//!
//! Checking is deliberately *loose* in the places C is loose (numeric
//! conversions) and strict where real toolchains are strict (pointer
//! pointee mismatches, calling `__global__` kernels directly, Kokkos used
//! without its package, OpenMP loop-directive shape).

use crate::diag::{Diagnostic, ErrorCategory};
use crate::object::ObjectCode;
use crate::preprocess::TranslationUnit;
use crate::toolchain::CompileFeatures;
use minihpc_lang::ast::*;
use minihpc_lang::model::detect_usage;
use minihpc_lang::pragma::{OmpClause, OmpConstruct, OmpDirective};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock};

/// Result of checking one translation unit: the object (present unless
/// errors occurred) and all diagnostics, warnings included.
pub struct SemaResult {
    pub object: Option<ObjectCode>,
    pub diagnostics: Vec<Diagnostic>,
}

/// Parameter class for builtin signatures.
#[derive(Debug, Clone, Copy, PartialEq)]
enum P {
    /// Any numeric scalar.
    Num,
    /// Any pointer (or view — views decay for the generic API shims).
    AnyPtr,
    /// Pointer to pointer (e.g. `cudaMalloc(&ptr, n)`).
    PtrPtr,
    /// String literal / char pointer.
    Str,
    /// Anything.
    Any,
}

struct Builtin {
    params: &'static [P],
    variadic: bool,
    ret: Type,
    /// Requires `features.cuda`.
    needs_cuda: bool,
    /// Requires `features.curand` (and cuda).
    needs_curand: bool,
    /// Counts as a libm reference (link-time `-lm` requirement).
    libm: bool,
}

/// Every builtin function, built once per process and borrowed by each
/// [`Checker`].
static BUILTINS: LazyLock<HashMap<&'static str, Builtin>> = LazyLock::new(builtin_table);

fn builtin_table() -> HashMap<&'static str, Builtin> {
    fn b(params: &'static [P], ret: Type) -> Builtin {
        Builtin {
            params,
            variadic: false,
            ret,
            needs_cuda: false,
            needs_curand: false,
            libm: false,
        }
    }
    fn libm(params: &'static [P], ret: Type) -> Builtin {
        Builtin {
            libm: true,
            ..b(params, ret)
        }
    }
    fn cuda(params: &'static [P], ret: Type) -> Builtin {
        Builtin {
            needs_cuda: true,
            ..b(params, ret)
        }
    }
    fn curand(params: &'static [P], ret: Type) -> Builtin {
        Builtin {
            needs_cuda: true,
            needs_curand: true,
            ..b(params, ret)
        }
    }
    let dbl = Type::Scalar(ScalarType::Double);
    let flt = Type::Scalar(ScalarType::Float);
    let int = Type::INT;
    let voidp = Type::ptr(Type::VOID);

    let mut m = HashMap::new();
    // stdio / stdlib
    m.insert(
        "printf",
        Builtin {
            variadic: true,
            ..b(&[P::Str], int.clone())
        },
    );
    m.insert(
        "fprintf",
        Builtin {
            variadic: true,
            ..b(&[P::Any, P::Str], int.clone())
        },
    );
    m.insert("malloc", b(&[P::Num], voidp.clone()));
    m.insert("calloc", b(&[P::Num, P::Num], voidp.clone()));
    m.insert("free", b(&[P::AnyPtr], Type::VOID));
    m.insert("memset", b(&[P::AnyPtr, P::Num, P::Num], voidp.clone()));
    m.insert("memcpy", b(&[P::AnyPtr, P::AnyPtr, P::Num], voidp));
    m.insert("strcmp", b(&[P::Str, P::Str], int.clone()));
    m.insert("atoi", b(&[P::Str], int.clone()));
    m.insert("atol", b(&[P::Str], Type::Scalar(ScalarType::Long)));
    m.insert("atof", b(&[P::Str], dbl.clone()));
    m.insert("exit", b(&[P::Num], Type::VOID));
    m.insert("abs", b(&[P::Num], int.clone()));
    m.insert("labs", b(&[P::Num], Type::Scalar(ScalarType::Long)));
    m.insert("min", b(&[P::Num, P::Num], int.clone()));
    m.insert("max", b(&[P::Num, P::Num], int.clone()));
    m.insert("rand", b(&[], int.clone()));
    m.insert("srand", b(&[P::Num], Type::VOID));
    m.insert(
        "assert",
        Builtin {
            variadic: false,
            ..b(&[P::Any], Type::VOID)
        },
    );
    // omp runtime (omp.h links without -fopenmp too; stubs exist)
    m.insert("omp_get_wtime", b(&[], dbl.clone()));
    m.insert("omp_get_num_threads", b(&[], int.clone()));
    m.insert("omp_get_max_threads", b(&[], int.clone()));
    m.insert("omp_get_thread_num", b(&[], int.clone()));
    m.insert("omp_get_num_devices", b(&[], int.clone()));
    m.insert("omp_is_initial_device", b(&[], int.clone()));
    m.insert("omp_set_num_threads", b(&[P::Num], Type::VOID));
    // libm
    for name in [
        "sqrt", "fabs", "exp", "log", "log2", "floor", "ceil", "sin", "cos", "tanh", "erf",
    ] {
        m.insert(name, libm(&[P::Num], dbl.clone()));
    }
    for name in ["pow", "fmax", "fmin", "fmod"] {
        m.insert(name, libm(&[P::Num, P::Num], dbl.clone()));
    }
    for name in [
        "sqrtf", "fabsf", "expf", "logf", "log2f", "floorf", "ceilf", "sinf", "cosf", "tanhf",
        "coshf", "erff",
    ] {
        m.insert(name, libm(&[P::Num], flt.clone()));
    }
    for name in ["powf", "fmaxf", "fminf"] {
        m.insert(name, libm(&[P::Num, P::Num], flt.clone()));
    }
    // CUDA runtime API
    m.insert("cudaMalloc", cuda(&[P::PtrPtr, P::Num], int.clone()));
    m.insert(
        "cudaMemcpy",
        cuda(&[P::AnyPtr, P::AnyPtr, P::Num, P::Num], int.clone()),
    );
    m.insert(
        "cudaMemset",
        cuda(&[P::AnyPtr, P::Num, P::Num], int.clone()),
    );
    m.insert("cudaFree", cuda(&[P::AnyPtr], int.clone()));
    m.insert("cudaDeviceSynchronize", cuda(&[], int.clone()));
    m.insert("cudaGetLastError", cuda(&[], int.clone()));
    m.insert(
        "cudaGetErrorString",
        cuda(&[P::Num], Type::ptr(Type::Scalar(ScalarType::Char))),
    );
    m.insert("atomicAdd", cuda(&[P::AnyPtr, P::Num], dbl.clone()));
    // cuRAND device API
    m.insert(
        "curand_init",
        curand(&[P::Num, P::Num, P::Num, P::AnyPtr], Type::VOID),
    );
    m.insert("curand", curand(&[P::AnyPtr], int.clone()));
    m.insert("curand_uniform", curand(&[P::AnyPtr], flt));
    m.insert("curand_uniform_double", curand(&[P::AnyPtr], dbl));
    m
}

/// The type of the builtin constant `name` (CUDA enums, limits), if it is
/// one under `features`.
fn builtin_constant(name: &str, features: &CompileFeatures) -> Option<Type> {
    match name {
        "RAND_MAX" | "INT_MAX" => Some(Type::INT),
        "NULL" => Some(Type::ptr(Type::VOID)),
        "DBL_MAX" => Some(Type::Scalar(ScalarType::Double)),
        "cudaMemcpyHostToDevice"
        | "cudaMemcpyDeviceToHost"
        | "cudaMemcpyDeviceToDevice"
        | "cudaSuccess"
            if features.cuda =>
        {
            Some(Type::INT)
        }
        _ => None,
    }
}

struct UserFn {
    ret: Type,
    params: Vec<Param>,
    quals: FnQuals,
    defined: bool,
    referenced: std::cell::Cell<bool>,
}

pub struct Checker<'a> {
    features: &'a CompileFeatures,
    source: String,
    builtins: &'static HashMap<&'static str, Builtin>,
    structs: BTreeMap<String, StructDef>,
    functions: BTreeMap<String, UserFn>,
    globals: HashMap<String, Type>,
    scopes: Vec<HashMap<String, Type>>,
    diags: Vec<Diagnostic>,
    in_kernel: bool,
    in_lambda_device: bool,
    uses_libm: bool,
}

/// Check a translation unit, producing an object on success.
pub fn check(
    tu: &TranslationUnit,
    source_path: &str,
    object_name: &str,
    features: &CompileFeatures,
) -> SemaResult {
    let mut ck = Checker {
        features,
        source: source_path.to_string(),
        builtins: &BUILTINS,
        structs: BTreeMap::new(),
        functions: BTreeMap::new(),
        globals: HashMap::new(),
        scopes: vec![],
        diags: vec![],
        in_kernel: false,
        in_lambda_device: false,
        uses_libm: false,
    };
    // curandState is a library-provided opaque struct.
    if features.cuda && features.curand {
        ck.structs.insert(
            "curandState".to_string(),
            StructDef {
                name: "curandState".into(),
                fields: vec![],
                is_typedef: true,
                span: minihpc_lang::span::Span::DUMMY,
            },
        );
    }

    // Pass 1: collect top-level declarations.
    // Object-like macros from headers behave as constants across the TU
    // (lexer-level expansion is per-file; cross-file uses resolve here):
    // each becomes a `static` global of this object, so every object that
    // includes a header carries a copy, and `link` keeps one copy of each
    // name whose copies are equal constants.
    let mut define_globals: Vec<VarDecl> = Vec::new();
    for item in tu.items() {
        if let ItemKind::Define { name, body_text } = &item.kind {
            if let Ok(e) = minihpc_lang::parser::parse_expr_str(body_text) {
                let ty = match &e.kind {
                    ExprKind::FloatLit(_) => Type::DOUBLE,
                    _ => Type::INT,
                };
                ck.globals.insert(name.clone(), ty.clone());
                define_globals.push(VarDecl {
                    name: name.clone(),
                    ty,
                    array_dims: vec![],
                    init: Some(Init::Expr(e)),
                    is_static: true,
                });
            }
        }
    }
    for item in tu.items() {
        match &item.kind {
            ItemKind::Struct(s) => {
                ck.structs.insert(s.name.clone(), s.clone());
            }
            ItemKind::Function(f) => {
                let entry = ck.functions.entry(f.name.clone());
                match entry {
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        if f.is_definition() {
                            if e.get().defined {
                                ck.diags.push(Diagnostic::error(
                                    ErrorCategory::CodeSyntax,
                                    source_path,
                                    format!("redefinition of '{}'", f.name),
                                ));
                            }
                            e.get_mut().defined = true;
                            e.get_mut().ret = f.ret.clone();
                            e.get_mut().params = f.params.clone();
                            e.get_mut().quals = f.quals;
                        }
                    }
                    std::collections::btree_map::Entry::Vacant(v) => {
                        v.insert(UserFn {
                            ret: f.ret.clone(),
                            params: f.params.clone(),
                            quals: f.quals,
                            defined: f.is_definition(),
                            referenced: std::cell::Cell::new(false),
                        });
                    }
                }
            }
            ItemKind::Global(d) => {
                let ty = decl_runtime_type(d);
                ck.globals.insert(d.name.clone(), ty);
            }
            _ => {}
        }
    }

    // Pass 2: check bodies.
    for item in tu.items() {
        match &item.kind {
            ItemKind::Function(f) => {
                if let Some(body) = &f.body {
                    ck.check_function_body(f, body);
                }
            }
            ItemKind::Global(d) => {
                if let Some(Init::Expr(e)) = &d.init {
                    ck.scopes.push(HashMap::new());
                    ck.infer(e);
                    ck.scopes.pop();
                }
            }
            _ => {}
        }
    }

    let has_errors = ck.diags.iter().any(Diagnostic::is_error);
    let object = if has_errors {
        None
    } else {
        let mut functions = BTreeMap::new();
        let mut globals = define_globals;
        for item in tu.items() {
            match &item.kind {
                ItemKind::Function(f) if f.is_definition() => {
                    functions.insert(f.name.clone(), Arc::new(f.clone()));
                }
                ItemKind::Global(d) => globals.push(d.clone()),
                _ => {}
            }
        }
        let undefined: Vec<String> = ck
            .functions
            .iter()
            .filter(|(_, uf)| !uf.defined && uf.referenced.get())
            .map(|(n, _)| n.clone())
            .collect();
        Some(ObjectCode {
            source: source_path.to_string(),
            name: object_name.to_string(),
            functions,
            structs: ck.structs.clone(),
            globals,
            undefined,
            uses_libm: ck.uses_libm,
            features: *features,
            usage: detect_usage(tu.items()),
            key: None,
        })
    };
    SemaResult {
        object,
        diagnostics: ck.diags,
    }
}

/// The type a declaration has at use sites (arrays decay to pointers).
fn decl_runtime_type(d: &VarDecl) -> Type {
    let mut ty = d.ty.clone();
    for _ in &d.array_dims {
        ty = Type::ptr(ty);
    }
    ty
}

impl<'a> Checker<'a> {
    fn error(&mut self, category: ErrorCategory, message: impl Into<String>) {
        let d = Diagnostic::error(category, self.source.clone(), message);
        self.diags.push(d);
    }

    fn warn(&mut self, category: ErrorCategory, message: impl Into<String>) {
        let d = Diagnostic::warning(category, self.source.clone(), message);
        self.diags.push(d);
    }

    fn lookup_var(&self, name: &str) -> Option<Type> {
        for scope in self.scopes.iter().rev() {
            if let Some(t) = scope.get(name) {
                return Some(t.clone());
            }
        }
        self.globals.get(name).cloned()
    }

    fn declare(&mut self, name: &str, ty: Type) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), ty);
        }
    }

    fn check_function_body(&mut self, f: &Function, body: &Block) {
        self.in_kernel = f.quals.cuda_global || f.quals.cuda_device;
        self.scopes.push(HashMap::new());
        for p in &f.params {
            if !p.name.is_empty() {
                self.declare(&p.name, p.ty.clone());
            }
        }
        for s in &body.stmts {
            self.check_stmt(s);
        }
        self.scopes.pop();
        self.in_kernel = false;
    }

    fn check_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl(d) => self.check_decl(d),
            StmtKind::Expr(e) => {
                self.infer(e);
            }
            StmtKind::If { cond, then, els } => {
                self.infer(cond);
                self.check_stmt(then);
                if let Some(e) = els {
                    self.check_stmt(e);
                }
            }
            StmtKind::While { cond, body } => {
                self.infer(cond);
                self.check_stmt(body);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.check_stmt(i);
                }
                if let Some(c) = cond {
                    self.infer(c);
                }
                if let Some(st) = step {
                    self.infer(st);
                }
                self.check_stmt(body);
                self.scopes.pop();
            }
            StmtKind::Return(Some(e)) => {
                self.infer(e);
            }
            StmtKind::Block(b) => {
                self.scopes.push(HashMap::new());
                for s in &b.stmts {
                    self.check_stmt(s);
                }
                self.scopes.pop();
            }
            StmtKind::Omp { directive, body } => {
                self.check_omp(directive, body.as_deref());
            }
            _ => {}
        }
    }

    fn check_decl(&mut self, d: &VarDecl) {
        // Named struct types must exist (unless opaque library type).
        if let Type::Named(n) = d.ty.unqualified() {
            if !self.structs.contains_key(n) {
                self.error(
                    ErrorCategory::UndeclaredIdentifier,
                    format!("unknown type name '{n}'"),
                );
            }
        }
        if let Type::View { .. } = d.ty.unqualified() {
            if !self.features.kokkos {
                self.error(
                    ErrorCategory::UndeclaredIdentifier,
                    "use of undeclared identifier 'Kokkos'",
                );
            }
        }
        for dim in &d.array_dims {
            self.infer(dim);
        }
        match &d.init {
            Some(Init::Expr(e)) => {
                let rhs = self.infer(e);
                let lhs = decl_runtime_type(d);
                self.check_assignable(&lhs, rhs.as_ref(), &d.name);
            }
            Some(Init::List(es)) => {
                for e in es {
                    self.infer(e);
                }
            }
            Some(Init::Ctor(es)) => {
                for e in es {
                    self.infer(e);
                }
            }
            None => {}
        }
        self.declare(&d.name, decl_runtime_type(d));
    }

    fn check_assignable(&mut self, lhs: &Type, rhs: Option<&Type>, what: &str) {
        let Some(rhs) = rhs else { return };
        if !types_compatible(lhs, rhs) {
            self.error(
                ErrorCategory::ArgTypeMismatch,
                format!(
                    "incompatible types assigning to '{}' from '{}' in '{}'",
                    minihpc_lang::printer::type_to_string(lhs),
                    minihpc_lang::printer::type_to_string(rhs),
                    what
                ),
            );
        }
    }

    // -- OpenMP directive validation ----------------------------------------

    fn check_omp(&mut self, d: &OmpDirective, body: Option<&Stmt>) {
        if !self.features.openmp {
            self.warn(
                ErrorCategory::OmpInvalidDirective,
                format!("'#pragma {}' ignored: compiled without -fopenmp", d.text()),
            );
        }
        // Clause variable references must resolve.
        for clause in &d.clauses {
            match clause {
                OmpClause::Map { sections, .. } => {
                    for s in sections {
                        if self.lookup_var(&s.var).is_none() {
                            self.error(
                                ErrorCategory::UndeclaredIdentifier,
                                format!("use of undeclared identifier '{}' in map clause", s.var),
                            );
                        }
                        for (lo, len) in &s.ranges {
                            self.infer(lo);
                            self.infer(len);
                        }
                    }
                }
                OmpClause::Reduction { vars, .. }
                | OmpClause::Private(vars)
                | OmpClause::FirstPrivate(vars)
                | OmpClause::Shared(vars) => {
                    for v in vars {
                        if self.lookup_var(v).is_none() {
                            self.error(
                                ErrorCategory::UndeclaredIdentifier,
                                format!(
                                    "use of undeclared identifier '{}' in {} clause",
                                    v,
                                    clause.name()
                                ),
                            );
                        }
                    }
                }
                OmpClause::NumThreads(e)
                | OmpClause::NumTeams(e)
                | OmpClause::ThreadLimit(e)
                | OmpClause::If(e)
                | OmpClause::Device(e) => {
                    self.infer(e);
                }
                OmpClause::Unknown { name, .. } => {
                    self.warn(
                        ErrorCategory::OmpInvalidDirective,
                        format!("ignoring unknown OpenMP clause '{name}'"),
                    );
                }
                _ => {}
            }
        }
        // Structural rules.
        if d.has(OmpConstruct::Distribute) && !d.has(OmpConstruct::Teams) {
            self.error(
                ErrorCategory::OmpInvalidDirective,
                "region cannot be closely nested inside of a non-teams region; \
                 'distribute' requires 'teams'",
            );
        }
        if d.has(OmpConstruct::Teams) && !d.targets_device() {
            // Paper Listing 4: compiles, executes on the host.
            self.warn(
                ErrorCategory::OmpInvalidDirective,
                "'teams' construct outside a 'target' region executes on the host",
            );
        }
        if d.clauses
            .iter()
            .any(|c| matches!(c, OmpClause::NumThreads(_)))
            && !d.has(OmpConstruct::Parallel)
        {
            self.warn(
                ErrorCategory::OmpInvalidDirective,
                "'num_threads' clause has no effect without a 'parallel' construct",
            );
        }
        if d.map_clauses().next().is_some() && !d.targets_device() {
            self.warn(
                ErrorCategory::OmpInvalidDirective,
                "'map' clause has no effect on a non-target directive",
            );
        }
        // Loop-directive shape.
        if d.is_loop_directive() {
            match body {
                Some(b) if is_for_stmt(b) => {
                    let depth = nested_for_depth(b);
                    let collapse = d.collapse();
                    if (collapse as usize) > depth {
                        self.error(
                            ErrorCategory::OmpInvalidDirective,
                            format!(
                                "collapse({collapse}) requires {collapse} perfectly nested \
                                 loops, but only {depth} found"
                            ),
                        );
                    }
                }
                _ => {
                    self.error(
                        ErrorCategory::OmpInvalidDirective,
                        format!("statement after '#pragma {}' must be a for loop", d.text()),
                    );
                }
            }
        }
        if let Some(b) = body {
            self.check_stmt(b);
        }
    }

    // -- expression type inference -------------------------------------------

    fn infer(&mut self, e: &Expr) -> Option<Type> {
        match &e.kind {
            ExprKind::IntLit(_) => Some(Type::INT),
            ExprKind::FloatLit(_) => Some(Type::DOUBLE),
            ExprKind::StrLit(_) => Some(Type::ptr(Type::Scalar(ScalarType::Char))),
            ExprKind::CharLit(_) => Some(Type::Scalar(ScalarType::Char)),
            ExprKind::BoolLit(_) => Some(Type::Scalar(ScalarType::Bool)),
            ExprKind::Ident(name) => self.infer_ident(name),
            ExprKind::Path(segments) => self.infer_path(segments, &[]),
            ExprKind::Unary { op, expr } => {
                let t = self.infer(expr)?;
                match op {
                    UnaryOp::Deref => match t.unqualified() {
                        Type::Ptr(inner) => Some((**inner).clone()),
                        _ => {
                            self.error(
                                ErrorCategory::ArgTypeMismatch,
                                "indirection requires pointer operand",
                            );
                            None
                        }
                    },
                    UnaryOp::AddrOf => Some(Type::ptr(t)),
                    UnaryOp::Not => Some(Type::Scalar(ScalarType::Bool)),
                    _ => Some(t),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.infer(lhs);
                let rt = self.infer(rhs);
                self.infer_binary(*op, lt, rt)
            }
            ExprKind::Assign { lhs, rhs, .. } => {
                let lt = self.infer(lhs);
                let rt = self.infer(rhs);
                if let (Some(lt), Some(rt)) = (&lt, &rt) {
                    if !types_compatible(lt, rt) {
                        self.error(
                            ErrorCategory::ArgTypeMismatch,
                            format!(
                                "incompatible types assigning '{}' to '{}'",
                                minihpc_lang::printer::type_to_string(rt),
                                minihpc_lang::printer::type_to_string(lt),
                            ),
                        );
                    }
                }
                lt
            }
            ExprKind::Ternary { cond, then, els } => {
                self.infer(cond);
                let t = self.infer(then);
                self.infer(els);
                t
            }
            ExprKind::Call { callee, args } => self.infer_call(callee, args),
            ExprKind::KernelLaunch {
                kernel,
                grid,
                block,
                args,
            } => self.infer_launch(kernel, grid, block, args),
            ExprKind::Index { base, index } => {
                let bt = self.infer(base);
                let it = self.infer(index);
                if let Some(it) = &it {
                    if !it.is_numeric() {
                        self.error(
                            ErrorCategory::ArgTypeMismatch,
                            "array subscript is not an integer",
                        );
                    }
                }
                match bt.as_ref().map(Type::unqualified) {
                    Some(Type::Ptr(inner)) => Some((**inner).clone()),
                    Some(_) => {
                        self.error(
                            ErrorCategory::ArgTypeMismatch,
                            "subscripted value is not an array or pointer",
                        );
                        None
                    }
                    None => None,
                }
            }
            ExprKind::Member {
                base,
                member,
                arrow,
            } => self.infer_member(base, member, *arrow),
            ExprKind::Cast { ty, expr } => {
                self.infer(expr);
                Some(ty.clone())
            }
            ExprKind::SizeOfType(_) => Some(Type::Scalar(ScalarType::SizeT)),
            ExprKind::SizeOfExpr(e) => {
                // `sizeof(Name)` where Name is a struct type parses as an
                // expression; accept it silently when the type exists.
                let is_type_name = matches!(
                    &e.kind,
                    ExprKind::Ident(n) if self.structs.contains_key(n) && self.lookup_var(n).is_none()
                );
                if !is_type_name {
                    self.infer(e);
                }
                Some(Type::Scalar(ScalarType::SizeT))
            }
            ExprKind::Lambda {
                capture,
                params,
                body,
            } => {
                if *capture == CaptureMode::KokkosLambda && !self.features.kokkos {
                    self.error(
                        ErrorCategory::UndeclaredIdentifier,
                        "use of undeclared identifier 'KOKKOS_LAMBDA'",
                    );
                }
                self.scopes.push(HashMap::new());
                for p in params {
                    self.declare(&p.name, p.ty.clone());
                }
                let was = self.in_lambda_device;
                self.in_lambda_device = true;
                for s in &body.stmts {
                    self.check_stmt(s);
                }
                self.in_lambda_device = was;
                self.scopes.pop();
                None
            }
            ExprKind::Paren(inner) => self.infer(inner),
        }
    }

    fn infer_ident(&mut self, name: &str) -> Option<Type> {
        if let Some(t) = self.lookup_var(name) {
            return Some(t);
        }
        if let Some(t) = builtin_constant(name, self.features) {
            return Some(t);
        }
        // CUDA kernel builtins.
        if matches!(name, "threadIdx" | "blockIdx" | "blockDim" | "gridDim") {
            if self.features.cuda && self.in_kernel {
                return Some(Type::Dim3);
            }
            self.error(
                ErrorCategory::UndeclaredIdentifier,
                format!("use of undeclared identifier '{name}'"),
            );
            return None;
        }
        // A function name used as a value (e.g. passed as callback) — not
        // modelled; report undeclared only if it is not a known function.
        if self.functions.contains_key(name) || self.builtins.contains_key(name) {
            return None;
        }
        self.error(
            ErrorCategory::UndeclaredIdentifier,
            format!("use of undeclared identifier '{name}'"),
        );
        None
    }

    fn infer_path(&mut self, segments: &[String], _args: &[Expr]) -> Option<Type> {
        if segments.first().map(String::as_str) == Some("Kokkos") && !self.features.kokkos {
            self.error(
                ErrorCategory::UndeclaredIdentifier,
                "use of undeclared identifier 'Kokkos'",
            );
        }
        None
    }

    fn infer_call(&mut self, callee: &Expr, args: &[Expr]) -> Option<Type> {
        // View element access: `v(i)` / `v(i, j)`.
        if let ExprKind::Ident(name) = &callee.kind {
            if let Some(Type::View { elem, rank }) =
                self.lookup_var(name).map(|t| t.unqualified().clone())
            {
                if args.len() != rank as usize {
                    self.error(
                        ErrorCategory::ArgTypeMismatch,
                        format!(
                            "view '{name}' has rank {rank} but is accessed with {} indices",
                            args.len()
                        ),
                    );
                }
                for a in args {
                    self.infer(a);
                }
                return Some(Type::Scalar(elem));
            }
            return self.infer_named_call(name, args);
        }
        // Method-style calls: `view.extent(i)`.
        if let ExprKind::Member { base, member, .. } = &callee.kind {
            let bt = self.infer(base);
            if let Some(Type::View { .. }) = bt.as_ref().map(Type::unqualified) {
                match member.as_str() {
                    "extent" => {
                        for a in args {
                            self.infer(a);
                        }
                        return Some(Type::Scalar(ScalarType::SizeT));
                    }
                    _ => {
                        self.error(
                            ErrorCategory::ArgTypeMismatch,
                            format!("no member named '{member}' in 'Kokkos::View'"),
                        );
                        return None;
                    }
                }
            }
            for a in args {
                self.infer(a);
            }
            return None;
        }
        // Namespaced calls: `Kokkos::parallel_for(...)`.
        if let ExprKind::Path(segments) = &callee.kind {
            return self.infer_kokkos_call(segments, args);
        }
        for a in args {
            self.infer(a);
        }
        None
    }

    fn infer_named_call(&mut self, name: &str, args: &[Expr]) -> Option<Type> {
        // User-defined function?
        if let Some(uf) = self.functions.get(name) {
            uf.referenced.set(true);
            let params = uf.params.clone();
            let ret = uf.ret.clone();
            let quals = uf.quals;
            if quals.cuda_global && !self.in_kernel {
                self.error(
                    ErrorCategory::ArgTypeMismatch,
                    format!("call to __global__ function '{name}' requires a kernel launch (`<<<...>>>`)"),
                );
            }
            self.check_call_args(name, &params, args, false);
            return Some(ret);
        }
        // Builtin?
        let (needs_cuda, needs_curand, libm, params, variadic, ret) =
            if let Some(b) = self.builtins.get(name) {
                (
                    b.needs_cuda,
                    b.needs_curand,
                    b.libm,
                    b.params,
                    b.variadic,
                    b.ret.clone(),
                )
            } else {
                self.error(
                    ErrorCategory::UndeclaredIdentifier,
                    format!("use of undeclared identifier '{name}'"),
                );
                for a in args {
                    self.infer(a);
                }
                return None;
            };
        if needs_cuda && !self.features.cuda || needs_curand && !self.features.curand {
            self.error(
                ErrorCategory::UndeclaredIdentifier,
                format!("use of undeclared identifier '{name}'"),
            );
            for a in args {
                self.infer(a);
            }
            return None;
        }
        if libm {
            self.uses_libm = true;
        }
        self.check_builtin_args(name, params, variadic, args);
        Some(ret)
    }

    fn infer_kokkos_call(&mut self, segments: &[String], args: &[Expr]) -> Option<Type> {
        if segments.first().map(String::as_str) != Some("Kokkos") {
            for a in args {
                self.infer(a);
            }
            return None;
        }
        if !self.features.kokkos {
            self.error(
                ErrorCategory::UndeclaredIdentifier,
                "use of undeclared identifier 'Kokkos'",
            );
            for a in args {
                self.infer(a);
            }
            return None;
        }
        let func = segments.get(1).map(String::as_str).unwrap_or("");
        // Template suffixes were folded into the segment (`RangePolicy<>`).
        let func_base = func.split('<').next().unwrap_or(func);
        match func_base {
            "initialize" | "finalize" | "fence" => {
                for a in args {
                    self.infer(a);
                }
                Some(Type::VOID)
            }
            "parallel_for" | "parallel_reduce" => {
                // Optional label string, then policy/count, then functor,
                // then (for reduce) result reference.
                let mut rest = args;
                if matches!(rest.first().map(|a| &a.kind), Some(ExprKind::StrLit(_))) {
                    rest = &rest[1..];
                }
                let min_args = if func_base == "parallel_for" { 2 } else { 3 };
                if rest.len() < min_args {
                    self.error(
                        ErrorCategory::ArgTypeMismatch,
                        format!(
                            "too few arguments to 'Kokkos::{func_base}': expected at least \
                             {min_args}, have {}",
                            rest.len()
                        ),
                    );
                }
                for a in args {
                    self.infer(a);
                }
                // Functor must be a lambda.
                if rest.len() >= 2 && !matches!(rest[1].kind, ExprKind::Lambda { .. }) {
                    self.error(
                        ErrorCategory::ArgTypeMismatch,
                        format!("'Kokkos::{func_base}' requires a lambda functor argument"),
                    );
                }
                Some(Type::VOID)
            }
            "deep_copy" => {
                if args.len() != 2 {
                    self.error(
                        ErrorCategory::ArgTypeMismatch,
                        format!(
                            "'Kokkos::deep_copy' expects 2 arguments, have {}",
                            args.len()
                        ),
                    );
                }
                for a in args {
                    self.infer(a);
                }
                Some(Type::VOID)
            }
            "create_mirror_view" => {
                let t = args.first().and_then(|a| self.infer(a));
                if args.len() != 1
                    || !matches!(t.as_ref().map(Type::unqualified), Some(Type::View { .. }))
                {
                    self.error(
                        ErrorCategory::ArgTypeMismatch,
                        "'Kokkos::create_mirror_view' expects a view argument",
                    );
                }
                t
            }
            "RangePolicy" | "MDRangePolicy" => {
                for a in args {
                    self.infer(a);
                }
                Some(Type::Named("Kokkos::Policy".into()))
            }
            other => {
                self.error(
                    ErrorCategory::UndeclaredIdentifier,
                    format!("no member named '{other}' in namespace 'Kokkos'"),
                );
                for a in args {
                    self.infer(a);
                }
                None
            }
        }
    }

    fn infer_launch(
        &mut self,
        kernel: &str,
        grid: &Expr,
        block: &Expr,
        args: &[Expr],
    ) -> Option<Type> {
        if !self.features.cuda {
            self.error(
                ErrorCategory::CodeSyntax,
                "kernel launch syntax '<<<...>>>' requires CUDA compilation (nvcc)",
            );
            return None;
        }
        for dim in [grid, block] {
            if let Some(t) = self.infer(dim) {
                if !matches!(t.unqualified(), Type::Dim3) && !t.is_numeric() {
                    self.error(
                        ErrorCategory::ArgTypeMismatch,
                        "kernel launch configuration must be an integer or dim3",
                    );
                }
            }
        }
        let Some(uf) = self.functions.get(kernel) else {
            self.error(
                ErrorCategory::UndeclaredIdentifier,
                format!("use of undeclared identifier '{kernel}'"),
            );
            for a in args {
                self.infer(a);
            }
            return None;
        };
        uf.referenced.set(true);
        let params = uf.params.clone();
        let is_global = uf.quals.cuda_global;
        if !is_global {
            self.error(
                ErrorCategory::ArgTypeMismatch,
                format!("kernel call to non-__global__ function '{kernel}'"),
            );
        }
        self.check_call_args(kernel, &params, args, false);
        Some(Type::VOID)
    }

    fn check_call_args(&mut self, name: &str, params: &[Param], args: &[Expr], variadic: bool) {
        if args.len() < params.len() {
            self.error(
                ErrorCategory::ArgTypeMismatch,
                format!(
                    "too few arguments to function call '{name}': expected {}, have {}",
                    params.len(),
                    args.len()
                ),
            );
        } else if args.len() > params.len() && !variadic {
            self.error(
                ErrorCategory::ArgTypeMismatch,
                format!(
                    "too many arguments to function call '{name}': expected {}, have {}",
                    params.len(),
                    args.len()
                ),
            );
        }
        for (i, a) in args.iter().enumerate() {
            let at = self.infer(a);
            if let (Some(p), Some(at)) = (params.get(i), at.as_ref()) {
                if !types_compatible(&p.ty, at) {
                    self.error(
                        ErrorCategory::ArgTypeMismatch,
                        format!(
                            "no matching function for call to '{name}': argument {} has type \
                             '{}' but parameter '{}' has type '{}'",
                            i + 1,
                            minihpc_lang::printer::type_to_string(at),
                            p.name,
                            minihpc_lang::printer::type_to_string(&p.ty),
                        ),
                    );
                }
            }
        }
    }

    fn check_builtin_args(&mut self, name: &str, params: &[P], variadic: bool, args: &[Expr]) {
        if args.len() < params.len() || (args.len() > params.len() && !variadic) {
            self.error(
                ErrorCategory::ArgTypeMismatch,
                format!(
                    "function '{name}' expects {}{} arguments, have {}",
                    params.len(),
                    if variadic { "+" } else { "" },
                    args.len()
                ),
            );
        }
        for (i, a) in args.iter().enumerate() {
            let at = self.infer(a);
            let Some(p) = params.get(i) else { continue };
            let Some(at) = at else { continue };
            let ok = match p {
                P::Num => at.is_numeric(),
                P::AnyPtr => at.is_pointer() || at.is_view(),
                P::PtrPtr => matches!(at.unqualified(), Type::Ptr(inner) if inner.is_pointer()),
                P::Str => matches!(
                    at.unqualified(),
                    Type::Ptr(inner) if matches!(inner.unqualified(), Type::Scalar(ScalarType::Char))
                ),
                P::Any => true,
            };
            if !ok {
                self.error(
                    ErrorCategory::ArgTypeMismatch,
                    format!(
                        "no matching function for call to '{name}': argument {} has \
                         incompatible type '{}'",
                        i + 1,
                        minihpc_lang::printer::type_to_string(&at),
                    ),
                );
            }
        }
    }

    fn infer_member(&mut self, base: &Expr, member: &str, arrow: bool) -> Option<Type> {
        let bt = self.infer(base)?;
        let (struct_ty, is_ptr) = match bt.unqualified() {
            Type::Ptr(inner) => ((**inner).clone(), true),
            other => (other.clone(), false),
        };
        if arrow && !is_ptr {
            self.error(
                ErrorCategory::ArgTypeMismatch,
                format!("member reference type is not a pointer; did you mean '.{member}'?"),
            );
        } else if !arrow && is_ptr {
            self.error(
                ErrorCategory::ArgTypeMismatch,
                format!("member reference type is a pointer; did you mean '->{member}'?"),
            );
        }
        match struct_ty.unqualified() {
            Type::Dim3 => {
                if matches!(member, "x" | "y" | "z") {
                    Some(Type::INT)
                } else {
                    self.error(
                        ErrorCategory::ArgTypeMismatch,
                        format!("no member named '{member}' in 'dim3'"),
                    );
                    None
                }
            }
            Type::Named(n) => {
                let field_ty = self
                    .structs
                    .get(n)
                    .and_then(|s| s.fields.iter().find(|f| f.name == member))
                    .map(|f| {
                        let mut t = f.ty.clone();
                        for _ in &f.array_dims {
                            t = Type::ptr(t);
                        }
                        t
                    });
                match field_ty {
                    Some(t) => Some(t),
                    None => {
                        if self.structs.contains_key(n) {
                            self.error(
                                ErrorCategory::ArgTypeMismatch,
                                format!("no member named '{member}' in '{n}'"),
                            );
                        }
                        None
                    }
                }
            }
            _ => {
                self.error(
                    ErrorCategory::ArgTypeMismatch,
                    format!(
                        "member reference base type '{}' is not a structure",
                        minihpc_lang::printer::type_to_string(&struct_ty)
                    ),
                );
                None
            }
        }
    }

    fn infer_binary(&mut self, op: BinOp, lt: Option<Type>, rt: Option<Type>) -> Option<Type> {
        let (lt, rt) = (lt?, rt?);
        let l = lt.unqualified();
        let r = rt.unqualified();
        if op.is_comparison() || op.is_logical() {
            return Some(Type::Scalar(ScalarType::Bool));
        }
        match (l, r) {
            (Type::Ptr(_), t) if t.is_numeric() && matches!(op, BinOp::Add | BinOp::Sub) => {
                Some(l.clone())
            }
            (t, Type::Ptr(_)) if t.is_numeric() && op == BinOp::Add => Some(r.clone()),
            (Type::Ptr(_), Type::Ptr(_)) if op == BinOp::Sub => {
                Some(Type::Scalar(ScalarType::Long))
            }
            _ if l.is_numeric() && r.is_numeric() => {
                // Usual arithmetic conversions, collapsed to int/double.
                let lf = matches!(l, Type::Scalar(s) if s.is_float());
                let rf = matches!(r, Type::Scalar(s) if s.is_float());
                if lf || rf {
                    Some(Type::DOUBLE)
                } else {
                    Some(l.clone())
                }
            }
            _ => {
                self.error(
                    ErrorCategory::ArgTypeMismatch,
                    format!(
                        "invalid operands to binary expression ('{}' and '{}')",
                        minihpc_lang::printer::type_to_string(&lt),
                        minihpc_lang::printer::type_to_string(&rt),
                    ),
                );
                None
            }
        }
    }
}

fn is_for_stmt(s: &Stmt) -> bool {
    matches!(s.kind, StmtKind::For { .. })
}

/// Depth of the perfectly nested loop chain starting at `s` (a `for` whose
/// body is exactly another `for`, possibly wrapped in a single-statement
/// block, extends the chain).
fn nested_for_depth(s: &Stmt) -> usize {
    match &s.kind {
        StmtKind::For { body, .. } => {
            let inner = match &body.kind {
                StmtKind::Block(b) if b.stmts.len() == 1 => &b.stmts[0],
                _ => body,
            };
            1 + match &inner.kind {
                StmtKind::For { .. } => nested_for_depth(inner),
                _ => 0,
            }
        }
        _ => 0,
    }
}

/// Loose type compatibility for assignment and argument passing.
fn types_compatible(lhs: &Type, rhs: &Type) -> bool {
    let l = lhs.unqualified();
    let r = rhs.unqualified();
    match (l, r) {
        _ if l == r => true,
        (Type::Scalar(a), Type::Scalar(b)) => {
            a.is_integer() && b.is_integer()
                || a.is_float() && (b.is_float() || b.is_integer())
                || a.is_integer() && b.is_float() // narrowing allowed in C
        }
        // bool accepts anything numeric or pointer (truthiness).
        (Type::Scalar(ScalarType::Bool), _) => r.is_numeric() || r.is_pointer(),
        (Type::Ptr(a), Type::Ptr(b)) => {
            matches!(a.unqualified(), Type::Scalar(ScalarType::Void))
                || matches!(b.unqualified(), Type::Scalar(ScalarType::Void))
                || a.unqualified() == b.unqualified()
        }
        (Type::Dim3, t) if t.is_numeric() => true, // implicit dim3(int)
        (Type::View { elem: e1, rank: r1 }, Type::View { elem: e2, rank: r2 }) => {
            e1 == e2 && r1 == r2
        }
        (Type::Named(a), Type::Named(b)) => a == b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::assemble;
    use minihpc_lang::repo::SourceRepo;

    fn check_src(src: &str, features: CompileFeatures) -> SemaResult {
        let repo = SourceRepo::new().with_file("main.cpp", src);
        let tu = assemble(&repo, "main.cpp", &features).expect("preprocess ok");
        check(&tu, "main.cpp", "main.o", &features)
    }

    fn cuda_features() -> CompileFeatures {
        CompileFeatures {
            cuda: true,
            curand: true,
            libm: true,
            ..CompileFeatures::default()
        }
    }

    fn omp_features() -> CompileFeatures {
        CompileFeatures {
            openmp: true,
            offload: true,
            libm: true,
            ..CompileFeatures::default()
        }
    }

    fn first_error(r: &SemaResult) -> &Diagnostic {
        r.diagnostics
            .iter()
            .find(|d| d.is_error())
            .expect("expected an error")
    }

    #[test]
    fn clean_cuda_program_checks() {
        let src = r#"
__global__ void k(const int* in, int* out, size_t n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) out[i] = in[i] ^ 1;
}
int main() {
    int* d_in;
    int* d_out;
    cudaMalloc(&d_in, 64 * sizeof(int));
    cudaMalloc(&d_out, 64 * sizeof(int));
    k<<<2, 32>>>(d_in, d_out, 64);
    cudaDeviceSynchronize();
    cudaFree(d_in);
    cudaFree(d_out);
    return 0;
}
"#;
        let r = check_src(src, cuda_features());
        assert!(
            r.object.is_some(),
            "diags: {:?}",
            r.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn undeclared_identifier() {
        let r = check_src(
            "int main() { x = 3; return 0; }",
            CompileFeatures::default(),
        );
        assert!(r.object.is_none());
        let d = first_error(&r);
        assert_eq!(d.category, ErrorCategory::UndeclaredIdentifier);
        assert!(d.message.contains("'x'"));
    }

    #[test]
    fn undeclared_function() {
        let r = check_src(
            "int main() { computeWithCuda(); return 0; }",
            CompileFeatures::default(),
        );
        assert_eq!(
            first_error(&r).category,
            ErrorCategory::UndeclaredIdentifier
        );
    }

    #[test]
    fn arity_mismatch() {
        let src = "void f(int a, int b) { }\nint main() { f(1); return 0; }";
        let r = check_src(src, CompileFeatures::default());
        let d = first_error(&r);
        assert_eq!(d.category, ErrorCategory::ArgTypeMismatch);
        assert!(d.message.contains("too few arguments"));
    }

    #[test]
    fn arg_type_mismatch() {
        let src = "void f(int* p) { }\nint main() { double d = 0.0; f(d); return 0; }";
        let r = check_src(src, CompileFeatures::default());
        assert_eq!(first_error(&r).category, ErrorCategory::ArgTypeMismatch);
    }

    #[test]
    fn cuda_builtins_unavailable_without_nvcc() {
        let src = "int main() { int* p; cudaMalloc(&p, 4); return 0; }";
        let r = check_src(src, CompileFeatures::default());
        assert_eq!(
            first_error(&r).category,
            ErrorCategory::UndeclaredIdentifier
        );
    }

    #[test]
    fn thread_idx_outside_kernel_is_undeclared() {
        let src = "int main() { int i = threadIdx.x; return i; }";
        let r = check_src(src, cuda_features());
        assert_eq!(
            first_error(&r).category,
            ErrorCategory::UndeclaredIdentifier
        );
    }

    #[test]
    fn kernel_launch_without_cuda_is_syntax_error() {
        let src = "void k(int n) { }\nint main() { k<<<1, 2>>>(3); return 0; }";
        let r = check_src(src, omp_features());
        assert_eq!(first_error(&r).category, ErrorCategory::CodeSyntax);
    }

    #[test]
    fn direct_call_to_global_kernel_rejected() {
        let src = "__global__ void k(int n) { }\nint main() { k(3); return 0; }";
        let r = check_src(src, cuda_features());
        let d = first_error(&r);
        assert_eq!(d.category, ErrorCategory::ArgTypeMismatch);
        assert!(d.message.contains("kernel launch"));
    }

    #[test]
    fn launch_of_non_global_rejected() {
        let src = "void f(int n) { }\nint main() { f<<<1, 1>>>(3); return 0; }";
        let r = check_src(src, cuda_features());
        let d = first_error(&r);
        assert!(d.message.contains("non-__global__"));
    }

    #[test]
    fn omp_distribute_without_teams_rejected() {
        let src = r#"
void f(int* a, int n) {
    #pragma omp distribute
    for (int i = 0; i < n; i++) a[i] = i;
}
"#;
        let r = check_src(src, omp_features());
        assert_eq!(first_error(&r).category, ErrorCategory::OmpInvalidDirective);
    }

    #[test]
    fn omp_teams_without_target_is_warning_only() {
        // Paper Listing 4 must *build* (its failure is at run time).
        let src = r#"
void f(int* a, int n) {
    #pragma omp teams distribute collapse(2) num_threads(16)
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            a[i * n + j] = 0;
}
"#;
        let r = check_src(src, omp_features());
        assert!(r.object.is_some(), "{:?}", r.diagnostics);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| !d.is_error() && d.category == ErrorCategory::OmpInvalidDirective));
    }

    #[test]
    fn omp_collapse_requires_nesting() {
        let src = r#"
void f(int* a, int n) {
    #pragma omp target teams distribute parallel for collapse(2) map(tofrom: a[0:n])
    for (int i = 0; i < n; i++) a[i] = i;
}
"#;
        let r = check_src(src, omp_features());
        let d = first_error(&r);
        assert_eq!(d.category, ErrorCategory::OmpInvalidDirective);
        assert!(d.message.contains("collapse(2)"));
    }

    #[test]
    fn omp_loop_directive_requires_for() {
        let src = r#"
void f(int* a, int n) {
    #pragma omp parallel for
    a[0] = 1;
}
"#;
        let r = check_src(src, omp_features());
        assert_eq!(first_error(&r).category, ErrorCategory::OmpInvalidDirective);
    }

    #[test]
    fn omp_map_of_undeclared_var() {
        let src = r#"
void f(int n) {
    #pragma omp target teams distribute parallel for map(tofrom: ghost[0:n])
    for (int i = 0; i < n; i++) { }
}
"#;
        let r = check_src(src, omp_features());
        assert_eq!(
            first_error(&r).category,
            ErrorCategory::UndeclaredIdentifier
        );
    }

    #[test]
    fn kokkos_without_package_is_undeclared() {
        let src = r#"
int main() {
    Kokkos::initialize();
    Kokkos::finalize();
    return 0;
}
"#;
        let r = check_src(src, CompileFeatures::default());
        assert_eq!(
            first_error(&r).category,
            ErrorCategory::UndeclaredIdentifier
        );
        assert!(first_error(&r).message.contains("Kokkos"));
    }

    #[test]
    fn kokkos_program_checks_with_feature() {
        let src = r#"
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
"#;
        let f = CompileFeatures {
            kokkos: true,
            ..CompileFeatures::default()
        };
        let r = check_src(src, f);
        assert!(
            r.object.is_some(),
            "{:?}",
            r.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn view_rank_mismatch() {
        let src = r#"
int main() {
    Kokkos::View<double*> d("d", 100);
    Kokkos::parallel_for(100, KOKKOS_LAMBDA(int i) { d(i, 0) = 1.0; });
    return 0;
}
"#;
        let f = CompileFeatures {
            kokkos: true,
            ..CompileFeatures::default()
        };
        let r = check_src(src, f);
        let d = first_error(&r);
        assert_eq!(d.category, ErrorCategory::ArgTypeMismatch);
        assert!(d.message.contains("rank"));
    }

    #[test]
    fn struct_member_checks() {
        let src = r#"
typedef struct { double energy; int mat; } Lookup;
int main() {
    Lookup l;
    l.energy = 1.0;
    l.nuclide = 3;
    return 0;
}
"#;
        let r = check_src(src, CompileFeatures::default());
        let d = first_error(&r);
        assert_eq!(d.category, ErrorCategory::ArgTypeMismatch);
        assert!(d.message.contains("nuclide"));
    }

    #[test]
    fn arrow_vs_dot() {
        let src = r#"
typedef struct { int x; } S;
int main() {
    S s;
    S* p = &s;
    p.x = 1;
    return 0;
}
"#;
        let r = check_src(src, CompileFeatures::default());
        assert!(first_error(&r).message.contains("->"));
    }

    #[test]
    fn libm_usage_recorded() {
        let src = "int main() { double x = sqrt(2.0); return 0; }";
        let r = check_src(src, CompileFeatures::default());
        assert!(r.object.unwrap().uses_libm);
    }

    #[test]
    fn undefined_prototype_recorded_for_linker() {
        let src = "void helper(int x);\nint main() { helper(1); return 0; }";
        let r = check_src(src, CompileFeatures::default());
        let obj = r.object.unwrap();
        assert_eq!(obj.undefined, vec!["helper".to_string()]);
    }

    #[test]
    fn unknown_named_type() {
        let src = "int main() { Widget w; return 0; }";
        let r = check_src(src, CompileFeatures::default());
        let d = first_error(&r);
        assert_eq!(d.category, ErrorCategory::UndeclaredIdentifier);
        assert!(d.message.contains("Widget"));
    }

    #[test]
    fn pointer_pointee_mismatch() {
        let src = "int main() { double* d; int* i = d; return 0; }";
        let r = check_src(src, CompileFeatures::default());
        assert_eq!(first_error(&r).category, ErrorCategory::ArgTypeMismatch);
    }

    #[test]
    fn void_pointer_compatible() {
        let src = "int main() { int* i = (int*)malloc(4 * sizeof(int)); free(i); return 0; }";
        let r = check_src(src, CompileFeatures::default());
        assert!(r.object.is_some(), "{:?}", r.diagnostics);
    }

    #[test]
    fn pragma_without_fopenmp_warns() {
        let src = r#"
void f(int* a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i++) a[i] = i;
}
"#;
        let r = check_src(src, CompileFeatures::default());
        assert!(r.object.is_some());
        assert!(r.diagnostics.iter().any(|d| d.message.contains("-fopenmp")));
    }
}
