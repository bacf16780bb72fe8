//! The resolve pass: lowers a linked [`Executable`] to the closures the
//! interpreter calls, with every name looked up once per run instead of
//! once per access.
//!
//! - Every function body, statement, expression, assignment target
//!   ("place"), OpenMP loop nest and lambda body becomes a boxed closure
//!   that calls its children's closures directly, so a run dispatches once
//!   per node. What can be decided here is decided here: each binary
//!   operator gets a closure of its own, with its `Int∘Int` and
//!   `Float∘Float` cases inlined; operators and `a[i]` loads and stores
//!   read an operand that is a local slot or a constant in place; and
//!   assignments and increments of a local slot skip the general place
//!   path.
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
//! Lowering never fails. A construct the interpreter rejects becomes a
//! closure that raises the same error, at the same point, when it runs.
//! The AST is read, not kept: a run owns only its closures, and frees them
//! when it ends. Scoping follows the interpreter's dynamic rules
//! statically: a name resolves to the innermost binding declared before
//! it, then (inside a lambda) to a by-value capture of the enclosing
//! frame's binding, then to a CUDA builtin (in a kernel's frame), the
//! global of that name, or a constant.

use crate::interp::builtins::{self, Builtin, Kokkos, Launch, RngState, Target};
use crate::interp::expr::{self, Operand};
use crate::interp::omp::{self, NestLevel, NestPlan, RLoop, RMap, ROmp, Region};
use crate::interp::{self, Block, ExprFn, Flow, PlaceFn, SharedStmt, StmtFn};
use crate::value::*;
use minihpc_build::object::Executable;
use minihpc_lang::ast::{
    self, BinOp, Expr, ExprKind, Function, Init, ScalarType, Stmt, StmtKind, Type, UnaryOp, VarDecl,
};
use minihpc_lang::pragma::{OmpClause, OmpConstruct, OmpDirective};
use std::collections::HashMap;
use std::rc::Rc;

/// A lowered executable: what [`crate::run`] executes.
pub(crate) struct Program {
    pub functions: Vec<RFunction>,
    pub main: Option<u32>,
    /// In initialisation order (the executable's global declarations).
    pub globals: Vec<RGlobal>,
    pub layouts: Layouts,
}

pub(crate) struct RGlobal {
    pub name: Rc<str>,
    pub init: ExprFn,
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
pub(crate) struct SlotVar {
    pub name: Rc<str>,
    pub ty: Option<Rc<Declared>>,
}

/// A declared type, with how values convert to it.
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
    pub body: Option<Block>,
}

/// A lambda body, shared by every closure value its expression creates.
pub(crate) struct Lambda {
    pub(crate) vars: Vec<SlotVar>,
    /// Parameter `i` lives in slot `i`.
    pub(crate) params: usize,
    /// (enclosing frame's slot, this frame's slot): copied at creation.
    pub(crate) captures: Vec<(u32, u32)>,
    pub(crate) body: Block,
}

impl std::fmt::Debug for Lambda {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lambda")
            .field("params", &self.params)
            .field("captures", &self.captures)
            .finish_non_exhaustive()
    }
}

#[derive(Clone, Copy)]
pub(crate) enum CudaDim {
    ThreadIdx,
    BlockIdx,
    BlockDim,
    GridDim,
}

/// What an identifier names.
#[derive(Clone)]
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

pub(crate) struct FieldName {
    pub name: Rc<str>,
    pub sym: u32,
}

/// Lower a linked executable.
pub(crate) fn resolve(exe: &Executable) -> Program {
    let mut r = Resolver::new(exe);
    let mut globals = Vec::with_capacity(exe.globals.len());
    // A global initialiser sees the globals declared before it.
    for (i, d) in exe.globals.iter().enumerate() {
        r.ctxs.push(FnCtx::new(false));
        let init = match r.decl_init(d) {
            (init, Some(to)) => interp::converted(init, to),
            (init, None) => init,
        };
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
            ty: ty.map(|t| Rc::new(Declared::new(t))),
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

/// A lowered `for` loop: its statement, the slot its `int i = …` init
/// declares, and its body, for the OpenMP loop nest it may head.
struct ForLoop<'a> {
    stmt: &'a Stmt,
    init_slot: Option<u32>,
    body: SharedStmt,
}

struct Resolver<'a> {
    ctxs: Vec<FnCtx<'a>>,
    global_ids: HashMap<&'a str, u32>,
    /// Declared type of each global name (ptr-wrapped for arrays).
    global_types: HashMap<&'a str, Type>,
    fn_ids: HashMap<&'a str, u32>,
    layouts: Layouts,
    syms: HashMap<String, u32>,
    /// The `for` loops lowered so far in this function. An OpenMP loop
    /// directive finds its nest's levels here, then drops its body's.
    loops: Vec<ForLoop<'a>>,
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
            loops: Vec::new(),
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

    /// The slot `name` names in the innermost context, if it is local.
    fn local_slot(&mut self, name: &'a str) -> Option<u32> {
        let depth = self.ctxs.len() - 1;
        match self.local(depth, name) {
            Some(Name::Local(s) | Name::Mapped { slot: s, .. }) => Some(s),
            _ => None,
        }
    }

    fn field(&mut self, member: &str) -> FieldName {
        FieldName {
            name: member.into(),
            sym: self.sym(member),
        }
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
        self.loops.clear();
        RFunction {
            name: f.name.clone(),
            cuda_global: f.quals.cuda_global,
            params: f.params.len(),
            vars: ctx.vars,
            body,
        }
    }

    fn block(&mut self, b: &'a ast::Block) -> Block {
        self.push_scope();
        let stmts = b.stmts.iter().map(|s| self.stmt(s)).collect();
        self.pop_scope();
        stmts
    }

    /// A declaration: the slot it declares, and the statement that
    /// initialises it.
    fn decl(&mut self, d: &'a VarDecl) -> (u32, StmtFn) {
        let (init, to) = self.decl_init(d);
        let ty = array_type(&d.ty, d.array_dims.len());
        let slot = self.declare(&d.name, Some(ty));
        (slot, interp::decl(slot, init, to))
    }

    fn stmt(&mut self, s: &'a Stmt) -> StmtFn {
        match &s.kind {
            StmtKind::Decl(d) => self.decl(d).1,
            StmtKind::Expr(e) => interp::expr_stmt(self.expr(e)),
            StmtKind::If { cond, then, els } => {
                let cond = self.expr(cond);
                let then = self.stmt(then);
                interp::if_else(cond, then, els.as_ref().map(|e| self.stmt(e)))
            }
            StmtKind::While { cond, body } => {
                let cond = self.expr(cond);
                interp::while_loop(cond, self.stmt(body))
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                let (init_slot, init) = match init.as_deref() {
                    Some(Stmt {
                        kind: StmtKind::Decl(d),
                        ..
                    }) => {
                        let (slot, init) = self.decl(d);
                        (Some(slot), Some(init))
                    }
                    other => (None, other.map(|i| self.stmt(i))),
                };
                let cond = cond.as_ref().map(|c| self.expr(c));
                let step = step.as_ref().map(|e| self.expr(e));
                let body: SharedStmt = self.stmt(body).into();
                self.pop_scope();
                self.loops.push(ForLoop {
                    stmt: s,
                    init_slot,
                    body: body.clone(),
                });
                interp::for_loop(init, cond, step, body)
            }
            StmtKind::Return(e) => interp::ret(e.as_ref().map(|e| self.expr(e))),
            StmtKind::Break => interp::jump(Flow::Break),
            StmtKind::Continue => interp::jump(Flow::Continue),
            StmtKind::Block(b) => interp::block(self.block(b)),
            StmtKind::Omp {
                directive,
                body: Some(body),
            } if !directive.is_standalone() => self.omp(directive, body),
            StmtKind::Omp { .. } | StmtKind::RawPragma(_) | StmtKind::Empty => {
                interp::jump(Flow::Normal)
            }
        }
    }

    /// How a declaration computes its initial value, and the type that
    /// value is converted to, if any.
    fn decl_init(&mut self, d: &'a VarDecl) -> (ExprFn, Option<Declared>) {
        if !d.array_dims.is_empty() {
            // A fixed-size array: a zeroed buffer, optionally filled from a
            // list.
            let list = match &d.init {
                Some(Init::List(elems)) => self.exprs(elems),
                _ => vec![],
            };
            let dims = self.exprs(&d.array_dims);
            let zero = self.layouts.zero_of(&d.ty);
            return (interp::array(dims, d.ty.clone(), zero, list), None);
        }
        let init = match (&d.init, d.ty.unqualified()) {
            (Some(Init::Ctor(args)), Type::View { elem, rank }) => {
                let labelled = matches!(args.first().map(|a| &a.kind), Some(ExprKind::StrLit(_)));
                let extents = &args[usize::from(labelled)..];
                if extents.len() != *rank as usize {
                    return (
                        expr::fail(format!(
                            "view '{}' of rank {rank} constructed with {} extents",
                            d.name,
                            extents.len()
                        )),
                        None,
                    );
                }
                interp::view(*elem, *rank, self.exprs(extents))
            }
            (Some(Init::Ctor(args)), Type::Dim3) => {
                interp::dim3(args.iter().take(3).map(|a| self.expr(a)).collect())
            }
            (Some(Init::Ctor(_)), _) => expr::fail(format!(
                "constructor syntax is not supported for type of '{}'",
                d.name
            )),
            (Some(Init::Expr(e)), _) => {
                return (self.expr(e), Some(Declared::new(d.ty.clone())));
            }
            (Some(Init::List(_)), _) => {
                expr::fail("initialiser lists are only supported on arrays".into())
            }
            (None, _) => expr::lit(self.layouts.zero_of(&d.ty)),
        };
        (init, None)
    }

    fn omp(&mut self, d: &'a OmpDirective, body: &'a Stmt) -> StmtFn {
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
                    body: None,
                },
                reductions: vec![],
                exempt: vec![],
                shared_slots: self.ctx().vars.len() as u32,
            }))
        };
        let mark = self.loops.len();
        let rbody = self.stmt(body);
        let region = match region {
            Region::Loop(mut l) => {
                l.nest = self.nest(body, d.collapse().max(1) as usize);
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
        self.loops.truncate(mark);
        self.pop_scope();
        omp::omp(ROmp {
            maps,
            region,
            body: rbody,
        })
    }

    /// The canonical-nest plan of up to `depth` perfectly nested loops
    /// starting at `stmt` (already lowered), with bounds resolved in the
    /// scope enclosing the loop.
    fn nest(&mut self, stmt: &'a Stmt, depth: usize) -> NestPlan {
        let mut levels = Vec::new();
        let mut current = stmt;
        for level in 0..depth {
            let StmtKind::For {
                init,
                cond,
                step,
                body,
            } = &current.kind
            else {
                break;
            };
            let Some(lowered) = self
                .loops
                .iter()
                .position(|l| std::ptr::eq(l.stmt, current))
            else {
                break;
            };
            // init: `int i = <expr>`
            let (Some(StmtKind::Decl(d)), Some(slot)) = (
                init.as_deref().map(|s| &s.kind),
                self.loops[lowered].init_slot,
            ) else {
                break;
            };
            let Some(Init::Expr(start)) = &d.init else {
                break;
            };
            let var = d.name.as_str();
            let mut lvl = NestLevel {
                slot,
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
                    body: Some(self.loops[lowered].body.clone()),
                };
            }
            // Descend into the (single) nested loop.
            current = match &body.kind {
                StmtKind::Block(b) if b.stmts.len() == 1 => &b.stmts[0],
                StmtKind::For { .. } => body,
                _ => break,
            };
        }
        NestPlan { levels, body: None }
    }

    // ------------------------------------------------------------------
    // Expressions and places
    // ------------------------------------------------------------------

    fn exprs(&mut self, es: &'a [Expr]) -> Vec<ExprFn> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn expr(&mut self, e: &'a Expr) -> ExprFn {
        match &e.kind {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::Ident(_) => self.operand(e).lowered(),
            ExprKind::Path(_) => expr::fail("a namespace path is not a value".into()),
            ExprKind::Paren(inner) => self.expr(inner),
            ExprKind::Unary { op, expr: inner } => self.unary(*op, inner),
            ExprKind::Binary { op, lhs, rhs } => {
                let a = self.operand(lhs);
                expr::binary(*op, a, self.operand(rhs))
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let op = op.map(expr::operator);
                if let ExprKind::Index { base, index } = &lhs.kind {
                    let (base, index) = (self.operand(base), self.operand(index));
                    return expr::assign_index(op, base, index, self.expr(rhs));
                }
                match self.target(lhs) {
                    Ok(slot) => {
                        let to = self.ctx().vars[slot as usize].ty.clone();
                        expr::assign_local(op, slot, to, self.expr(rhs))
                    }
                    Err(place) => expr::assign(op, place, self.expr(rhs)),
                }
            }
            ExprKind::Ternary { cond, then, els } => {
                let cond = self.expr(cond);
                let then = self.expr(then);
                expr::ternary(cond, then, self.expr(els))
            }
            ExprKind::Call { callee, args } => self.call(callee, args),
            ExprKind::KernelLaunch {
                kernel,
                grid,
                block,
                args,
            } => builtins::launch(Launch {
                kernel: self
                    .fn_ids
                    .get(kernel.as_str())
                    .copied()
                    .ok_or_else(|| kernel.as_str().into()),
                grid: self.expr(grid),
                block: self.expr(block),
                args: self.exprs(args),
            }),
            ExprKind::Index { base, index } => {
                let base = self.operand(base);
                expr::index(base, self.operand(index))
            }
            ExprKind::Member {
                base,
                member,
                arrow,
            } => {
                let field = self.field(member);
                expr::member(self.expr(base), *arrow, field)
            }
            ExprKind::Cast { ty, expr: inner } => {
                expr::cast(Declared::new(ty.clone()), self.expr(inner))
            }
            ExprKind::SizeOfType(ty) => expr::lit(Value::Int(self.layouts.size_of(ty) as i64)),
            ExprKind::SizeOfExpr(inner) => {
                // Prefer the declared type of a plain variable, then a
                // struct of that name.
                if let ExprKind::Ident(name) = &inner.kind {
                    if let Some(ty) = self.declared_type(name) {
                        return expr::lit(Value::Int(self.layouts.size_of(&ty) as i64));
                    }
                    if let Some(l) = self.layouts.get(name) {
                        return expr::lit(Value::Int(l.fields_size.max(1) as i64));
                    }
                }
                expr::size_of_value(self.expr(inner))
            }
            ExprKind::Lambda { params, body, .. } => {
                self.ctxs.push(FnCtx::new(true));
                for p in params {
                    self.declare(&p.name, Some(p.ty.clone()));
                }
                let body = self.block(body);
                let ctx = self.ctxs.pop().unwrap();
                expr::lambda(Rc::new(Lambda {
                    vars: ctx.vars,
                    params: params.len(),
                    captures: ctx.captures,
                    body,
                }))
            }
        }
    }

    fn unary(&mut self, op: UnaryOp, inner: &'a Expr) -> ExprFn {
        match op {
            UnaryOp::Neg => expr::neg(self.expr(inner)),
            UnaryOp::Not => expr::not(self.expr(inner)),
            UnaryOp::BitNot => expr::bit_not(self.expr(inner)),
            UnaryOp::Deref => expr::deref(self.expr(inner)),
            UnaryOp::AddrOf => expr::addr_of(self.place(inner)),
            UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec => {
                match self.target(inner) {
                    Ok(slot) => expr::inc_dec_local(op, slot),
                    Err(place) => expr::inc_dec(op, place),
                }
            }
        }
    }

    /// `e` lowered as an operand: a local slot or a constant stays visible
    /// to the closure that reads it.
    fn operand(&mut self, e: &'a Expr) -> Operand {
        match &e.kind {
            ExprKind::Paren(inner) => self.operand(inner),
            ExprKind::IntLit(v) => Operand::Const(Value::Int(*v)),
            ExprKind::FloatLit(v) => Operand::Const(Value::Float(*v)),
            ExprKind::StrLit(s) => Operand::Const(Value::Str(s.as_str().into())),
            ExprKind::CharLit(c) => Operand::Const(Value::Int(*c as i64)),
            ExprKind::BoolLit(b) => Operand::Const(Value::Bool(*b)),
            ExprKind::Ident(name) => match self.name(name) {
                Name::Local(slot) => Operand::Local(slot),
                Name::Const(v, _) => Operand::Const(v),
                name => Operand::Expr(expr::var(name)),
            },
            _ => Operand::Expr(self.expr(e)),
        }
    }

    /// The local slot `e` names, else `e` lowered as a place.
    fn target(&mut self, e: &'a Expr) -> Result<u32, PlaceFn> {
        match &e.kind {
            ExprKind::Paren(inner) => self.target(inner),
            ExprKind::Ident(name) => match self.name(name) {
                Name::Local(slot) => Ok(slot),
                name => Err(expr::var_place(name)),
            },
            _ => Err(self.place(e)),
        }
    }

    /// `e` as an assignment target.
    fn place(&mut self, e: &'a Expr) -> PlaceFn {
        match &e.kind {
            ExprKind::Paren(inner) => self.place(inner),
            ExprKind::Ident(name) => expr::var_place(self.name(name)),
            ExprKind::Unary {
                op: UnaryOp::Deref,
                expr: inner,
            } => expr::deref_place(self.expr(inner)),
            ExprKind::Index { base, index } => {
                let base = self.expr(base);
                expr::index_place(base, self.expr(index))
            }
            ExprKind::Member {
                base,
                member,
                arrow,
            } => {
                let field = self.field(member);
                let base = if *arrow {
                    expr::deref_place(self.expr(base))
                } else {
                    self.place(base)
                };
                expr::member_place(base, field)
            }
            // Kokkos view element as lvalue: `v(i) = x;`
            ExprKind::Call { callee, args } => {
                let slot = match &callee.kind {
                    ExprKind::Ident(name) => self.local_slot(name),
                    _ => None,
                };
                match slot {
                    Some(slot) => expr::view_element(slot, self.exprs(args)),
                    None => expr::fail_place("call expression is not assignable"),
                }
            }
            _ => expr::fail_place("expression is not assignable"),
        }
    }

    fn call(&mut self, callee: &'a Expr, args: &'a [Expr]) -> ExprFn {
        let mut view = None;
        let target = match &callee.kind {
            ExprKind::Ident(name) => {
                view = self.local_slot(name);
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
                    let k = Kokkos::from_name(func, label);
                    // `parallel_reduce(policy, lambda, result)` writes its
                    // result to a place.
                    let result = match k {
                        Kokkos::Parallel {
                            reduce: true,
                            label,
                        } => args.get(usize::from(label) + 2).map(|r| self.place(r)),
                        _ => None,
                    };
                    Target::Kokkos(k, result)
                }
            }
            _ => Target::Fail("unsupported call target".into()),
        };
        builtins::call(view, target, self.exprs(args))
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
                    (self.place(inner), elem)
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
            } => RngState::Place(self.place(expr)),
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
