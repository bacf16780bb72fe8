//! The resolve pass: lowers a linked [`Executable`] to the tree the
//! interpreter runs, with every name looked up once per run instead of
//! once per access.
//!
//! - Every local and parameter is a frame slot, with its declared type
//!   stored per slot. Each declaration gets a slot of its own, so a slot's
//!   type and name never change during a run.
//! - Every global is an index into the interpreter's global vector.
//! - Every other identifier is resolved to what it names: a CUDA builtin
//!   (`threadIdx`…), a constant (`NULL`, `RAND_MAX`…), or
//!   [`Name::Unbound`], which raises the run-time error only when reached.
//! - Every callee is resolved to a user function index, a [`Builtin`], a
//!   Kokkos entry point, or a possible view access (`v(i)` on a local).
//! - Struct fields are resolved to interned symbols, and struct names are
//!   shared `Rc<str>`s.
//!
//! Resolution never fails. A construct the interpreter rejects becomes a
//! node that raises the same error, at the same point, when it executes.
//! Scoping follows the interpreter's dynamic rules statically: a name
//! resolves to the innermost binding declared before it, then (inside a
//! lambda) to a by-value capture of the enclosing frame's binding, then to
//! a CUDA builtin (in a kernel's frame), the global of that name, or a
//! constant.

use crate::interp::builtins::{Builtin, Kokkos};
use crate::value::*;
use minihpc_build::object::Executable;
use minihpc_lang::ast::*;
use minihpc_lang::pragma::{MapKind, OmpClause, OmpConstruct, OmpDirective, ReductionOp};
use std::collections::HashMap;
use std::rc::Rc;

/// A resolved executable: what [`crate::run`] executes.
pub(crate) struct Program {
    pub functions: Vec<RFunction>,
    pub main: Option<u32>,
    /// In initialisation order (the executable's global declarations).
    pub globals: Vec<RGlobal>,
    pub layouts: Layouts,
}

pub(crate) struct RGlobal {
    pub name: Rc<str>,
    pub init: DeclInit,
}

/// The executable's struct layouts, and the `curandState` the runtime
/// adds.
pub(crate) struct Layouts(Vec<StructLayout>);

impl Layouts {
    pub fn get(&self, name: &str) -> Option<&StructLayout> {
        self.0.iter().find(|l| &*l.name == name)
    }

    pub fn size_of(&self, ty: &Type) -> usize {
        byte_size(ty, &|n| self.get(n).map(|l| l.fields_size.max(1)))
    }

    /// The zero value of a type (a fresh declaration or allocation).
    pub fn zero_of(&self, ty: &Type) -> Value {
        match ty.unqualified() {
            Type::Named(n) => match self.get(n) {
                Some(l) => l.zero.clone(),
                None => Value::Struct(Box::new(StructVal {
                    name: n.as_str().into(),
                    fields: vec![],
                })),
            },
            other => zero_value(other),
        }
    }
}

/// A struct definition, with `T name[N]` fields typed as pointers.
pub(crate) struct StructLayout {
    pub name: Rc<str>,
    pub fields: Vec<(u32, Type)>,
    /// Sum of the field sizes (`sizeof` of the struct is this, at least 1).
    pub fields_size: usize,
    /// The zero value (a fresh declaration or allocation element).
    pub zero: Value,
}

/// What a frame slot holds: the declared name (for race reports) and the
/// declared type, if the binding has one. Lambda captures and the device
/// copies of mapped globals are untyped, as they were in the interpreter's
/// name-keyed frames.
#[derive(Debug)]
pub(crate) struct SlotVar {
    pub name: Rc<str>,
    pub ty: Option<Declared>,
}

/// A declared type, with how values convert to it.
#[derive(Debug)]
pub(crate) struct Declared {
    pub ty: Type,
    pub conv: Conv,
}

impl Declared {
    fn new(ty: Type) -> Self {
        Declared {
            conv: Conv::of(&ty),
            ty,
        }
    }
}

pub(crate) struct RFunction {
    pub name: String,
    pub cuda_global: bool,
    /// Parameter `i` lives in slot `i`.
    pub params: usize,
    pub vars: Vec<SlotVar>,
    pub body: Option<RBlock>,
}

/// A lambda body, shared by every closure its expression creates.
#[derive(Debug)]
pub(crate) struct Lambda {
    pub(crate) vars: Vec<SlotVar>,
    /// Parameter `i` lives in slot `i`.
    pub(crate) params: usize,
    /// (enclosing frame's slot, this frame's slot): copied at creation.
    pub(crate) captures: Vec<(u32, u32)>,
    pub(crate) body: RBlock,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum CudaDim {
    ThreadIdx,
    BlockIdx,
    BlockDim,
    GridDim,
}

/// What an identifier names.
#[derive(Debug, Clone)]
pub(crate) enum Name {
    Local(u32),
    Global(u32),
    /// A global named in a `map` clause, inside the target region: the
    /// slot holds its device copy while the region has it mapped, and is
    /// `Void` (so the name reaches the global) otherwise.
    Mapped {
        slot: u32,
        global: u32,
    },
    /// A CUDA builtin: its value in a kernel's frame, else the global of
    /// that name, if any.
    Cuda(CudaDim, Option<u32>, Rc<str>),
    Const(Value, Rc<str>),
    Unbound(Rc<str>),
}

#[derive(Debug)]
pub(crate) enum RExpr {
    Lit(Value),
    Var(Name),
    /// A type error raised when evaluated.
    Fail(String),
    Unary(UnaryOp, Box<RExpr>),
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
    Assign(Option<BinOp>, Box<RExpr>, Box<RExpr>),
    Ternary(Box<RExpr>, Box<RExpr>, Box<RExpr>),
    Call(Box<RCall>),
    Launch(Box<RLaunch>),
    Index(Box<RExpr>, Box<RExpr>),
    Member(Box<RExpr>, bool, FieldName),
    Cast(Declared, Box<RExpr>),
    /// `sizeof expr` where no declared type applies: sized by value.
    SizeOfValue(Box<RExpr>),
    Lambda(Rc<Lambda>),
}

#[derive(Debug)]
pub(crate) struct FieldName {
    pub name: Rc<str>,
    pub sym: u32,
}

#[derive(Debug)]
pub(crate) struct RCall {
    /// The local the callee names, if any: a call on a local holding a
    /// Kokkos view is an element access.
    pub view: Option<u32>,
    pub target: Target,
    pub args: Vec<RExpr>,
}

#[derive(Debug)]
pub(crate) enum Target {
    User(u32),
    Builtin(Builtin),
    /// `cudaMalloc(&place, bytes)`: the place and its pointee type, or
    /// `None` when the first argument is not `&place`.
    CudaMalloc(Option<(RExpr, Type)>),
    CurandInit(RngState),
    /// `curand` (integer) or `curand_uniform*` (float).
    CurandNext(RngState, bool),
    Kokkos(Kokkos),
    /// `view.method(args)`.
    Method(RExpr, Rc<str>),
    Fail(String),
}

/// The cuRAND state argument: `&place`, or a pointer value.
#[derive(Debug)]
pub(crate) enum RngState {
    Place(RExpr),
    Pointer(RExpr),
}

#[derive(Debug)]
pub(crate) struct RLaunch {
    pub kernel: Result<u32, Rc<str>>,
    pub grid: RExpr,
    pub block: RExpr,
    pub args: Vec<RExpr>,
}

#[derive(Debug)]
pub(crate) enum RStmt {
    Decl(u32, Box<DeclInit>),
    Expr(RExpr),
    If(RExpr, Box<RStmt>, Option<Box<RStmt>>),
    While(RExpr, Box<RStmt>),
    For(Box<RFor>),
    Return(Option<RExpr>),
    Break,
    Continue,
    Block(RBlock),
    Omp(Box<ROmp>),
    Empty,
}

#[derive(Debug)]
pub(crate) struct RBlock {
    pub stmts: Vec<RStmt>,
}

#[derive(Debug)]
pub(crate) struct RFor {
    pub init: Option<RStmt>,
    pub cond: Option<RExpr>,
    pub step: Option<RExpr>,
    pub body: RStmt,
}

/// How a declaration computes its initial value.
#[derive(Debug)]
pub(crate) enum DeclInit {
    /// A fixed-size array: a zeroed buffer, optionally filled from a list.
    Array {
        dims: Vec<RExpr>,
        elem: Type,
        zero: Value,
        list: Vec<RExpr>,
    },
    /// `View<T*> v("label", extents...)`.
    View {
        elem: ScalarType,
        rank: u8,
        extents: Vec<RExpr>,
    },
    Dim3(Vec<RExpr>),
    /// `= expr`, converted to the declared type.
    Expr(RExpr, Declared),
    Zero(Value),
    Fail(String),
}

/// An OpenMP directive with a body.
#[derive(Debug)]
pub(crate) struct ROmp {
    /// `map` clauses of a target construct, in clause order.
    pub maps: Vec<RMap>,
    pub region: Region,
    pub body: RStmt,
}

#[derive(Debug)]
pub(crate) struct RMap {
    pub kind: MapKind,
    pub name: Rc<str>,
    /// The variable's binding outside the region.
    pub var: Name,
    /// The slot that holds the device pointer inside the region.
    pub slot: Option<u32>,
    /// The first array section `[lo : len]`, if any.
    pub range: Option<(RExpr, RExpr)>,
}

#[derive(Debug)]
pub(crate) enum Region {
    TargetData,
    Target,
    HostParallel,
    Loop(Box<RLoop>),
    /// A loop directive not followed by a `for` loop.
    NotALoop(String),
}

#[derive(Debug)]
pub(crate) struct RLoop {
    pub target: bool,
    /// `parallel` or `teams`: iterations are distributed.
    pub parallel: bool,
    pub nest: NestPlan,
    pub reductions: Vec<(ReductionOp, Rc<str>, Option<u32>)>,
    /// Names the directive privatizes per worker (reduction, `private`,
    /// `firstprivate`): exempt from shared-write recording.
    pub exempt: Vec<String>,
    /// Slots below this hold the state every worker shares.
    pub shared_slots: u32,
}

/// A canonical loop nest's bounds, resolved outside the loop. The levels
/// are evaluated in order; a nest that is not canonical lists the levels
/// evaluated before its shape check fails, and then runs serially.
#[derive(Debug)]
pub(crate) struct NestPlan {
    pub levels: Vec<NestLevel>,
    pub canonical: bool,
}

#[derive(Debug)]
pub(crate) struct NestLevel {
    pub slot: u32,
    pub start: RExpr,
    /// `None` when the level's shape check fails after its start.
    pub bound: Option<RExpr>,
    pub inclusive: bool,
}

/// Resolve a linked executable.
pub(crate) fn resolve(exe: &Executable) -> Program {
    let mut r = Resolver::new(exe);
    let mut globals = Vec::with_capacity(exe.globals.len());
    // A global initialiser sees the globals declared before it.
    for (i, d) in exe.globals.iter().enumerate() {
        r.ctxs.push(FnCtx::new(false));
        let init = r.decl_init(d);
        r.ctxs.pop();
        globals.push(RGlobal {
            name: d.name.as_str().into(),
            init,
        });
        r.global_ids.insert(&d.name, i as u32);
    }
    let functions = exe.functions.values().map(|f| r.function(f)).collect();
    Program {
        functions,
        main: r.fn_ids.get("main").copied(),
        globals,
        layouts: r.layouts,
    }
}

/// One scope's bindings.
type Scope<'a> = Vec<(&'a str, Name)>;

/// A function or lambda being resolved.
struct FnCtx<'a> {
    vars: Vec<SlotVar>,
    scopes: Vec<Scope<'a>>,
    /// Lambdas capture from the enclosing context.
    lambda: bool,
    captures: Vec<(u32, u32)>,
}

impl<'a> FnCtx<'a> {
    fn new(lambda: bool) -> Self {
        FnCtx {
            vars: Vec::new(),
            scopes: vec![Vec::new()],
            lambda,
            captures: Vec::new(),
        }
    }

    fn slot(&mut self, name: &str, ty: Option<Type>) -> u32 {
        self.vars.push(SlotVar {
            name: name.into(),
            ty: ty.map(Declared::new),
        });
        (self.vars.len() - 1) as u32
    }

    fn find(&self, name: &str) -> Option<&Name> {
        self.scopes
            .iter()
            .rev()
            .flat_map(|s| s.iter().rev())
            .find(|(n, _)| *n == name)
            .map(|(_, b)| b)
    }
}

struct Resolver<'a> {
    ctxs: Vec<FnCtx<'a>>,
    global_ids: HashMap<&'a str, u32>,
    /// Declared type of each global name (ptr-wrapped for arrays).
    global_types: HashMap<&'a str, Type>,
    fn_ids: HashMap<&'a str, u32>,
    layouts: Layouts,
    syms: HashMap<String, u32>,
}

/// `ty` with one pointer level per array dimension.
fn array_type(ty: &Type, dims: usize) -> Type {
    let mut t = ty.clone();
    for _ in 0..dims {
        t = Type::ptr(t);
    }
    t
}

impl<'a> Resolver<'a> {
    fn new(exe: &'a Executable) -> Self {
        let mut r = Resolver {
            ctxs: Vec::new(),
            global_ids: HashMap::new(),
            global_types: exe
                .globals
                .iter()
                .map(|d| (d.name.as_str(), array_type(&d.ty, d.array_dims.len())))
                .collect(),
            fn_ids: exe
                .functions
                .keys()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i as u32))
                .collect(),
            layouts: Layouts(Vec::new()),
            syms: HashMap::new(),
        };
        let mut defs: Vec<(&str, Vec<(String, Type)>)> = exe
            .structs
            .iter()
            .map(|(name, def)| {
                let fields = def.fields.iter();
                let fields =
                    fields.map(|f| (f.name.clone(), array_type(&f.ty, f.array_dims.len())));
                (name.as_str(), fields.collect())
            })
            .collect();
        // The cuRAND state is an opaque one-field struct at run time.
        if !exe.structs.contains_key("curandState") {
            let state = vec![("__state".to_string(), Type::Scalar(ScalarType::Long))];
            defs.push(("curandState", state));
        }
        let shapes: HashMap<&str, &[(String, Type)]> =
            defs.iter().map(|(n, f)| (*n, f.as_slice())).collect();
        for (name, fields) in &defs {
            let fields_size = fields
                .iter()
                .map(|(_, t)| type_size(t, &shapes, &mut vec![name.to_string()]))
                .sum();
            let zero = type_zero(&Type::Named(name.to_string()), &shapes, &mut Vec::new());
            let fields = fields.iter().map(|(f, t)| (r.sym(f), t.clone())).collect();
            r.layouts.0.push(StructLayout {
                name: (*name).into(),
                fields,
                fields_size,
                zero,
            });
        }
        r
    }

    fn sym(&mut self, name: &str) -> u32 {
        let next = self.syms.len() as u32;
        *self.syms.entry(name.to_string()).or_insert(next)
    }

    fn ctx(&mut self) -> &mut FnCtx<'a> {
        self.ctxs.last_mut().expect("a context is open")
    }

    fn push_scope(&mut self) {
        self.ctx().scopes.push(Vec::new());
    }

    fn pop_scope(&mut self) {
        self.ctx().scopes.pop();
    }

    /// Declare `name` in the innermost scope, in a fresh slot.
    fn declare(&mut self, name: &'a str, ty: Option<Type>) -> u32 {
        let ctx = self.ctx();
        let slot = ctx.slot(name, ty);
        ctx.scopes
            .last_mut()
            .unwrap()
            .push((name, Name::Local(slot)));
        slot
    }

    /// The local binding of `name` in context `depth`, capturing it from
    /// the enclosing contexts if that context is a lambda.
    fn local(&mut self, depth: usize, name: &'a str) -> Option<Name> {
        if let Some(b) = self.ctxs[depth].find(name) {
            return Some(b.clone());
        }
        if !self.ctxs[depth].lambda || depth == 0 {
            return None;
        }
        let outer = match self.local(depth - 1, name)? {
            Name::Local(s) => (s, None),
            Name::Mapped { slot, global } => (slot, Some(global)),
            _ => unreachable!("only slots are local"),
        };
        let ctx = &mut self.ctxs[depth];
        let slot = ctx.slot(name, None);
        ctx.captures.push((outer.0, slot));
        let b = match outer.1 {
            None => Name::Local(slot),
            Some(global) => Name::Mapped { slot, global },
        };
        ctx.scopes[0].push((name, b.clone()));
        Some(b)
    }

    fn name(&mut self, name: &'a str) -> Name {
        let depth = self.ctxs.len() - 1;
        if let Some(b) = self.local(depth, name) {
            return b;
        }
        let global = self.global_ids.get(name).copied();
        let dim = match name {
            "threadIdx" => Some(CudaDim::ThreadIdx),
            "blockIdx" => Some(CudaDim::BlockIdx),
            "blockDim" => Some(CudaDim::BlockDim),
            "gridDim" => Some(CudaDim::GridDim),
            _ => None,
        };
        if let Some(dim) = dim {
            return Name::Cuda(dim, global, name.into());
        }
        if let Some(g) = global {
            return Name::Global(g);
        }
        let constant = match name {
            "cudaMemcpyHostToDevice" => Value::Int(1),
            "cudaMemcpyDeviceToHost" => Value::Int(2),
            "cudaMemcpyDeviceToDevice" => Value::Int(3),
            "cudaSuccess" => Value::Int(0),
            "RAND_MAX" => Value::Int(2147483647),
            "INT_MAX" => Value::Int(i32::MAX as i64),
            "DBL_MAX" => Value::Float(f64::MAX),
            "NULL" => Value::Null,
            _ => return Name::Unbound(name.into()),
        };
        Name::Const(constant, name.into())
    }

    /// The declared type `name` has where it is used: its slot's type,
    /// else the type of the global of that name.
    fn declared_type(&mut self, name: &'a str) -> Option<Type> {
        let slot_ty = match self.name(name) {
            Name::Local(s) | Name::Mapped { slot: s, .. } => self.ctx().vars[s as usize]
                .ty
                .as_ref()
                .map(|d| d.ty.clone()),
            _ => None,
        };
        slot_ty.or_else(|| self.global_types.get(name).cloned())
    }

    // ------------------------------------------------------------------
    // Functions and statements
    // ------------------------------------------------------------------

    fn function(&mut self, f: &'a Function) -> RFunction {
        self.ctxs.push(FnCtx::new(false));
        for p in &f.params {
            self.declare(&p.name, Some(p.ty.clone()));
        }
        let body = f.body.as_ref().map(|b| self.block(b));
        let ctx = self.ctxs.pop().unwrap();
        RFunction {
            name: f.name.clone(),
            cuda_global: f.quals.cuda_global,
            params: f.params.len(),
            vars: ctx.vars,
            body,
        }
    }

    fn block(&mut self, b: &'a Block) -> RBlock {
        self.push_scope();
        let stmts = b.stmts.iter().map(|s| self.stmt(s)).collect();
        self.pop_scope();
        RBlock { stmts }
    }

    fn boxed(&mut self, s: &'a Stmt) -> Box<RStmt> {
        Box::new(self.stmt(s))
    }

    fn stmt(&mut self, s: &'a Stmt) -> RStmt {
        match &s.kind {
            StmtKind::Decl(d) => {
                let init = self.decl_init(d);
                let ty = array_type(&d.ty, d.array_dims.len());
                RStmt::Decl(self.declare(&d.name, Some(ty)), Box::new(init))
            }
            StmtKind::Expr(e) => RStmt::Expr(self.expr(e)),
            StmtKind::If { cond, then, els } => {
                let cond = self.expr(cond);
                let then = self.boxed(then);
                RStmt::If(cond, then, els.as_ref().map(|e| self.boxed(e)))
            }
            StmtKind::While { cond, body } => RStmt::While(self.expr(cond), self.boxed(body)),
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                let f = RFor {
                    init: init.as_ref().map(|i| self.stmt(i)),
                    cond: cond.as_ref().map(|c| self.expr(c)),
                    step: step.as_ref().map(|e| self.expr(e)),
                    body: self.stmt(body),
                };
                self.pop_scope();
                RStmt::For(Box::new(f))
            }
            StmtKind::Return(e) => RStmt::Return(e.as_ref().map(|e| self.expr(e))),
            StmtKind::Break => RStmt::Break,
            StmtKind::Continue => RStmt::Continue,
            StmtKind::Block(b) => RStmt::Block(self.block(b)),
            StmtKind::Omp {
                directive,
                body: Some(body),
            } if !directive.is_standalone() => RStmt::Omp(Box::new(self.omp(directive, body))),
            StmtKind::Omp { .. } | StmtKind::RawPragma(_) | StmtKind::Empty => RStmt::Empty,
        }
    }

    fn decl_init(&mut self, d: &'a VarDecl) -> DeclInit {
        if !d.array_dims.is_empty() {
            let list = match &d.init {
                Some(Init::List(elems)) => self.exprs(elems),
                _ => vec![],
            };
            return DeclInit::Array {
                dims: self.exprs(&d.array_dims),
                elem: d.ty.clone(),
                zero: self.layouts.zero_of(&d.ty),
                list,
            };
        }
        match (&d.init, d.ty.unqualified()) {
            (Some(Init::Ctor(args)), Type::View { elem, rank }) => {
                let labelled = matches!(args.first().map(|a| &a.kind), Some(ExprKind::StrLit(_)));
                let extents = &args[usize::from(labelled)..];
                if extents.len() != *rank as usize {
                    return DeclInit::Fail(format!(
                        "view '{}' of rank {rank} constructed with {} extents",
                        d.name,
                        extents.len()
                    ));
                }
                DeclInit::View {
                    elem: *elem,
                    rank: *rank,
                    extents: self.exprs(extents),
                }
            }
            (Some(Init::Ctor(args)), Type::Dim3) => {
                DeclInit::Dim3(args.iter().take(3).map(|a| self.expr(a)).collect())
            }
            (Some(Init::Ctor(_)), _) => DeclInit::Fail(format!(
                "constructor syntax is not supported for type of '{}'",
                d.name
            )),
            (Some(Init::Expr(e)), _) => DeclInit::Expr(self.expr(e), Declared::new(d.ty.clone())),
            (Some(Init::List(_)), _) => {
                DeclInit::Fail("initialiser lists are only supported on arrays".into())
            }
            (None, _) => DeclInit::Zero(self.layouts.zero_of(&d.ty)),
        }
    }

    fn omp(&mut self, d: &'a OmpDirective, body: &'a Stmt) -> ROmp {
        let target = d.targets_device();
        let mut maps = Vec::new();
        let mut names: Vec<&'a str> = Vec::new();
        if target {
            for (kind, sections) in d.map_clauses() {
                for section in sections {
                    let range = section
                        .ranges
                        .first()
                        .map(|(lo, len)| (self.expr(lo), self.expr(len)));
                    maps.push(RMap {
                        kind: *kind,
                        name: section.var.as_str().into(),
                        var: self.name(&section.var),
                        slot: None,
                        range,
                    });
                    names.push(&section.var);
                }
            }
        }
        // Inside the region a mapped name holds the device pointer: a
        // local's own slot is rebound for the region's extent; a global
        // gets a slot of the region's own that shadows it.
        self.push_scope();
        for (m, name) in maps.iter_mut().zip(names) {
            m.slot = match m.var {
                Name::Local(s) | Name::Mapped { slot: s, .. } => Some(s),
                Name::Global(global) | Name::Cuda(_, Some(global), _) => {
                    let ctx = self.ctx();
                    let slot = ctx.slot(name, None);
                    let shadow = Name::Mapped { slot, global };
                    ctx.scopes.last_mut().unwrap().push((name, shadow));
                    Some(slot)
                }
                _ => None,
            };
        }
        let region = if !d.is_loop_directive() {
            if d.has(OmpConstruct::TargetData) {
                Region::TargetData
            } else if d.has(OmpConstruct::Target) {
                Region::Target
            } else {
                Region::HostParallel
            }
        } else if !matches!(body.kind, StmtKind::For { .. }) {
            Region::NotALoop(format!(
                "'#pragma {}' must be followed by a for loop",
                d.text()
            ))
        } else {
            Region::Loop(Box::new(RLoop {
                target,
                parallel: d.has(OmpConstruct::Parallel) || d.has(OmpConstruct::Teams),
                nest: NestPlan {
                    levels: vec![],
                    canonical: false,
                },
                reductions: vec![],
                exempt: vec![],
                shared_slots: self.ctx().vars.len() as u32,
            }))
        };
        let rbody = self.stmt(body);
        let region = match region {
            Region::Loop(mut l) => {
                l.nest = self.nest(body, &rbody, d.collapse().max(1) as usize);
                for (op, vars) in d.reductions() {
                    for v in vars {
                        let slot = match self.name(v) {
                            Name::Local(s) => Some(s),
                            _ => None,
                        };
                        l.reductions.push((*op, v.as_str().into(), slot));
                    }
                }
                l.exempt = d
                    .reductions()
                    .flat_map(|(_, v)| v.iter().cloned())
                    .collect();
                for c in &d.clauses {
                    if let OmpClause::Private(vars) | OmpClause::FirstPrivate(vars) = c {
                        l.exempt.extend(vars.iter().cloned());
                    }
                }
                Region::Loop(l)
            }
            other => other,
        };
        self.pop_scope();
        ROmp {
            maps,
            region,
            body: rbody,
        }
    }

    /// The canonical-nest plan of up to `depth` perfectly nested loops
    /// starting at `stmt` (resolved as `rstmt`), with bounds resolved in
    /// the scope enclosing the loop.
    fn nest(&mut self, stmt: &'a Stmt, rstmt: &RStmt, depth: usize) -> NestPlan {
        let mut levels = Vec::new();
        let (mut current, mut rcurrent) = (stmt, rstmt);
        for level in 0..depth {
            let (
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                },
                RStmt::For(rfor),
            ) = (&current.kind, rcurrent)
            else {
                break;
            };
            // init: `int i = <expr>`
            let (Some(StmtKind::Decl(d)), Some(RStmt::Decl(slot, _))) =
                (init.as_deref().map(|s| &s.kind), &rfor.init)
            else {
                break;
            };
            let Some(Init::Expr(start)) = &d.init else {
                break;
            };
            let var = d.name.as_str();
            let mut lvl = NestLevel {
                slot: *slot,
                start: self.expr(start),
                bound: None,
                inclusive: false,
            };
            // cond: `i < expr` or `i <= expr`
            let Some(ExprKind::Binary { op, lhs, rhs }) = cond.as_ref().map(|c| &c.kind) else {
                levels.push(lvl);
                break;
            };
            if !matches!(&lhs.kind, ExprKind::Ident(n) if n == var) {
                levels.push(lvl);
                break;
            }
            lvl.bound = Some(self.expr(rhs));
            lvl.inclusive = *op == BinOp::Le;
            levels.push(lvl);
            if !matches!(op, BinOp::Lt | BinOp::Le) {
                break;
            }
            // step: `i++`, `++i`, `i += 1`
            let is_var = |e: &Expr| matches!(&e.kind, ExprKind::Ident(n) if n == var);
            let step_ok = match step.as_ref().map(|e| &e.kind) {
                Some(ExprKind::Unary { op, expr }) => {
                    matches!(op, UnaryOp::PostInc | UnaryOp::PreInc) && is_var(expr)
                }
                Some(ExprKind::Assign {
                    op: Some(BinOp::Add),
                    lhs,
                    rhs,
                }) => is_var(lhs) && matches!(rhs.kind, ExprKind::IntLit(1)),
                _ => false,
            };
            if !step_ok {
                break;
            }
            if level + 1 == depth {
                return NestPlan {
                    levels,
                    canonical: true,
                };
            }
            // Descend into the (single) nested loop.
            (current, rcurrent) = match (&body.kind, &rfor.body) {
                (StmtKind::Block(b), RStmt::Block(rb)) if b.stmts.len() == 1 => {
                    (&b.stmts[0], &rb.stmts[0])
                }
                (StmtKind::For { .. }, _) => (&**body, &rfor.body),
                _ => break,
            };
        }
        NestPlan {
            levels,
            canonical: false,
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn exprs(&mut self, es: &'a [Expr]) -> Vec<RExpr> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn boxed_expr(&mut self, e: &'a Expr) -> Box<RExpr> {
        Box::new(self.expr(e))
    }

    fn expr(&mut self, e: &'a Expr) -> RExpr {
        match &e.kind {
            ExprKind::IntLit(v) => RExpr::Lit(Value::Int(*v)),
            ExprKind::FloatLit(v) => RExpr::Lit(Value::Float(*v)),
            ExprKind::StrLit(s) => RExpr::Lit(Value::Str(s.as_str().into())),
            ExprKind::CharLit(c) => RExpr::Lit(Value::Int(*c as i64)),
            ExprKind::BoolLit(b) => RExpr::Lit(Value::Bool(*b)),
            ExprKind::Ident(name) => RExpr::Var(self.name(name)),
            ExprKind::Path(_) => RExpr::Fail("a namespace path is not a value".into()),
            ExprKind::Paren(inner) => self.expr(inner),
            ExprKind::Unary { op, expr } => RExpr::Unary(*op, self.boxed_expr(expr)),
            ExprKind::Binary { op, lhs, rhs } => {
                RExpr::Binary(*op, self.boxed_expr(lhs), self.boxed_expr(rhs))
            }
            ExprKind::Assign { op, lhs, rhs } => {
                RExpr::Assign(*op, self.boxed_expr(lhs), self.boxed_expr(rhs))
            }
            ExprKind::Ternary { cond, then, els } => RExpr::Ternary(
                self.boxed_expr(cond),
                self.boxed_expr(then),
                self.boxed_expr(els),
            ),
            ExprKind::Call { callee, args } => RExpr::Call(Box::new(self.call(callee, args))),
            ExprKind::KernelLaunch {
                kernel,
                grid,
                block,
                args,
            } => RExpr::Launch(Box::new(RLaunch {
                kernel: self
                    .fn_ids
                    .get(kernel.as_str())
                    .copied()
                    .ok_or_else(|| kernel.as_str().into()),
                grid: self.expr(grid),
                block: self.expr(block),
                args: self.exprs(args),
            })),
            ExprKind::Index { base, index } => {
                RExpr::Index(self.boxed_expr(base), self.boxed_expr(index))
            }
            ExprKind::Member {
                base,
                member,
                arrow,
            } => {
                let field = FieldName {
                    name: member.as_str().into(),
                    sym: self.sym(member),
                };
                RExpr::Member(self.boxed_expr(base), *arrow, field)
            }
            ExprKind::Cast { ty, expr } => {
                RExpr::Cast(Declared::new(ty.clone()), self.boxed_expr(expr))
            }
            ExprKind::SizeOfType(ty) => RExpr::Lit(Value::Int(self.layouts.size_of(ty) as i64)),
            ExprKind::SizeOfExpr(inner) => {
                // Prefer the declared type of a plain variable, then a
                // struct of that name.
                if let ExprKind::Ident(name) = &inner.kind {
                    if let Some(ty) = self.declared_type(name) {
                        return RExpr::Lit(Value::Int(self.layouts.size_of(&ty) as i64));
                    }
                    if let Some(l) = self.layouts.get(name) {
                        return RExpr::Lit(Value::Int(l.fields_size.max(1) as i64));
                    }
                }
                RExpr::SizeOfValue(self.boxed_expr(inner))
            }
            ExprKind::Lambda { params, body, .. } => {
                self.ctxs.push(FnCtx::new(true));
                for p in params {
                    self.declare(&p.name, Some(p.ty.clone()));
                }
                let body = self.block(body);
                let ctx = self.ctxs.pop().unwrap();
                RExpr::Lambda(Rc::new(Lambda {
                    vars: ctx.vars,
                    params: params.len(),
                    captures: ctx.captures,
                    body,
                }))
            }
        }
    }

    fn call(&mut self, callee: &'a Expr, args: &'a [Expr]) -> RCall {
        let mut view = None;
        let target = match &callee.kind {
            ExprKind::Ident(name) => {
                let depth = self.ctxs.len() - 1;
                view = match self.local(depth, name) {
                    Some(Name::Local(s) | Name::Mapped { slot: s, .. }) => Some(s),
                    _ => None,
                };
                self.named_target(name, args)
            }
            ExprKind::Member { base, member, .. } => {
                Target::Method(self.expr(base), member.as_str().into())
            }
            ExprKind::Path(segments) => {
                if segments.first().map(String::as_str) != Some("Kokkos") {
                    Target::Fail(format!("unknown namespace '{}'", segments.join("::")))
                } else {
                    let func = segments.get(1).map(String::as_str).unwrap_or("");
                    let label = matches!(args.first().map(|a| &a.kind), Some(ExprKind::StrLit(_)));
                    Target::Kokkos(Kokkos::from_name(func, label))
                }
            }
            _ => Target::Fail("unsupported call target".into()),
        };
        RCall {
            view,
            target,
            args: self.exprs(args),
        }
    }

    /// What a call to `name` reaches when `name` holds no view.
    fn named_target(&mut self, name: &'a str, args: &'a [Expr]) -> Target {
        match name {
            "cudaMalloc" => {
                let [dst, _] = args else {
                    return Target::Fail("cudaMalloc expects (&ptr, bytes)".into());
                };
                let inner = match &dst.kind {
                    ExprKind::Unary {
                        op: UnaryOp::AddrOf,
                        expr,
                    } => Some(expr),
                    ExprKind::Cast { expr, .. } => match &expr.kind {
                        ExprKind::Unary {
                            op: UnaryOp::AddrOf,
                            expr,
                        } => Some(expr),
                        _ => None,
                    },
                    _ => None,
                };
                Target::CudaMalloc(inner.map(|inner| {
                    let elem = self
                        .place_type(inner)
                        .and_then(|t| t.pointee().cloned())
                        .unwrap_or(Type::Scalar(ScalarType::Double));
                    (self.expr(inner), elem)
                }))
            }
            "curand_init" => match args {
                [_, _, _, state] => Target::CurandInit(self.rng_state(state)),
                _ => Target::Fail("curand_init expects 4 arguments".into()),
            },
            "curand" | "curand_uniform" | "curand_uniform_double" => match args.first() {
                Some(state) => Target::CurandNext(self.rng_state(state), name == "curand"),
                None => Target::Fail("curand expects a state pointer".into()),
            },
            _ => match self.fn_ids.get(name) {
                Some(&f) => Target::User(f),
                None => Target::Builtin(Builtin::from_name(name, args)),
            },
        }
    }

    fn rng_state(&mut self, e: &'a Expr) -> RngState {
        match &e.kind {
            ExprKind::Unary {
                op: UnaryOp::AddrOf,
                expr,
            } => RngState::Place(self.expr(expr)),
            _ => RngState::Pointer(self.expr(e)),
        }
    }

    /// Best-effort static type of an lvalue expression (for allocation
    /// typing).
    fn place_type(&mut self, e: &'a Expr) -> Option<Type> {
        match &e.kind {
            ExprKind::Ident(name) => self.declared_type(name),
            ExprKind::Paren(inner) => self.place_type(inner),
            ExprKind::Member { base, member, .. } => {
                let base_ty = self.place_type(base)?;
                let name = match base_ty.unqualified() {
                    Type::Named(n) => n.clone(),
                    Type::Ptr(inner) => match inner.unqualified() {
                        Type::Named(n) => n.clone(),
                        _ => return None,
                    },
                    _ => return None,
                };
                let sym = *self.syms.get(member.as_str())?;
                let layout = self.layouts.get(&name)?;
                let field = layout.fields.iter().find(|(f, _)| *f == sym);
                field.map(|(_, t)| t.clone())
            }
            ExprKind::Index { base, .. } => self.place_type(base)?.pointee().cloned(),
            ExprKind::Unary {
                op: UnaryOp::Deref,
                expr,
            } => self.place_type(expr)?.pointee().cloned(),
            _ => None,
        }
    }
}

/// The zero value of a type over struct shapes: a struct, nested ones
/// included, is zeroed field by field, as [`type_size`] sums it; a struct
/// that contains itself by value falls back to [`zero_value`].
fn type_zero(
    ty: &Type,
    shapes: &HashMap<&str, &[(String, Type)]>,
    open: &mut Vec<String>,
) -> Value {
    let Type::Named(n) = ty.unqualified() else {
        return zero_value(ty);
    };
    match shapes.get(n.as_str()) {
        Some(fields) if !open.contains(n) => {
            open.push(n.clone());
            let fields = fields
                .iter()
                .map(|(_, t)| type_zero(t, shapes, open))
                .collect();
            open.pop();
            Value::Struct(Box::new(StructVal {
                name: n.as_str().into(),
                fields,
            }))
        }
        _ => zero_value(ty),
    }
}

/// `sizeof` over struct shapes, before their layouts exist. A struct that
/// contains itself by value is sized like an unknown type.
fn type_size(
    ty: &Type,
    shapes: &HashMap<&str, &[(String, Type)]>,
    open: &mut Vec<String>,
) -> usize {
    let Type::Named(n) = ty.unqualified() else {
        return byte_size(ty, &|_| None);
    };
    match shapes.get(n.as_str()) {
        Some(fields) if !open.contains(n) => {
            open.push(n.clone());
            let sum: usize = fields.iter().map(|(_, t)| type_size(t, shapes, open)).sum();
            open.pop();
            sum.max(1)
        }
        _ => byte_size(ty, &|_| None),
    }
}
