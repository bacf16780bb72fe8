//! The MiniHPC interpreter: executes a linked [`Executable`] against the
//! simulated host+device memory system.
//!
//! Execution-model semantics:
//! - **CUDA**: `<<<grid, block>>>` launches run the kernel once per logical
//!   thread with `threadIdx`/`blockIdx`/... builtins bound, in device space.
//! - **OpenMP offload**: `target` regions switch to device space; `map`
//!   clauses allocate/copy device buffers and rebind the mapped pointers for
//!   the region's extent. A directive *without* `target` (paper Listing 4)
//!   runs on the host — the harness's GPU-execution check then fails it.
//! - **OpenMP threads**: `parallel for` executes the loop in host space,
//!   either as one sequential loop or (with [`RunConfig::parallel`]) as
//!   per-worker chunks run one after another.
//! - **Kokkos**: views are device buffers; `parallel_for`/`parallel_reduce`
//!   execute lambdas in device space; `create_mirror_view`/`deep_copy`
//!   perform the transfers.
//!
//! Telemetry records where parallel work actually executed, which is how the
//! harness enforces the paper's "must execute on the specified hardware"
//! correctness requirement.

use crate::format::printf;
use crate::memory::{Memory, RtResult, RuntimeError, RuntimeErrorKind};
use crate::value::*;
use minihpc_build::object::Executable;
use minihpc_lang::ast::*;
use minihpc_lang::pragma::{MapKind, OmpConstruct, OmpDirective, ReductionOp};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Command-line arguments (argv[1..]).
    pub args: Vec<String>,
    /// Statement budget; exceeding it aborts with `StepLimit` (the run-time
    /// analogue of the paper's per-experiment timeout).
    pub max_steps: u64,
    /// Run OpenMP `parallel for` loops as `workers` logical workers, run in
    /// order on the calling thread: each worker gets its own frame, private
    /// reduction accumulators, and a contiguous chunk of the iterations.
    /// CUDA and Kokkos launches compute the same either way.
    pub parallel: bool,
    /// Number of logical workers for parallel mode, and the value of
    /// `omp_get_max_threads()`. Defaults to 4 on every host, so no result
    /// depends on the machine's CPU count.
    pub workers: usize,
    /// Enable the write-race detector on device memory.
    pub detect_races: bool,
    /// Also record conflicting writes to *shared scalars* of parallel
    /// regions (only meaningful with `parallel` and `workers > 1`).
    /// Opt-in and test-only: the harness uses it to cross-validate the
    /// static analyzer's race verdicts against observed execution.
    pub record_shared_writes: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            args: vec![],
            max_steps: 200_000_000,
            parallel: false,
            workers: 4,
            detect_races: false,
            record_shared_writes: false,
        }
    }
}

impl RunConfig {
    pub fn with_args<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Self {
        RunConfig {
            args: args.into_iter().map(Into::into).collect(),
            ..RunConfig::default()
        }
    }
}

/// Where parallel work executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    pub device_regions: u64,
    pub device_threads: u64,
    pub max_device_parallelism: u64,
    pub host_parallel_regions: u64,
}

impl TelemetrySnapshot {
    /// Did any work execute on the simulated GPU?
    pub fn ran_on_device(self) -> bool {
        self.device_regions > 0
    }

    /// Did device work use more than one logical thread?
    pub fn device_parallel(self) -> bool {
        self.max_device_parallelism > 1
    }
}

/// The outcome of running a program.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub stdout: String,
    pub exit_code: i64,
    pub error: Option<RuntimeError>,
    pub telemetry: TelemetrySnapshot,
    pub races: Vec<String>,
    /// Distinct shared-scalar names the dynamic recorder saw conflict
    /// (sorted, deduped). Empty unless `RunConfig::record_shared_writes`
    /// — the per-variable ground truth for analyzer differential tests.
    pub race_vars: Vec<String>,
}

impl RunResult {
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.exit_code == 0
    }
}

/// Internal control signals.
enum Interrupt {
    Rt(RuntimeError),
    Exit(i64),
}

impl From<RuntimeError> for Interrupt {
    fn from(e: RuntimeError) -> Self {
        Interrupt::Rt(e)
    }
}

type IResult<T> = Result<T, Interrupt>;

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// Per-execution-context state (one per logical thread).
struct Frame {
    scopes: Vec<HashMap<String, Value>>,
    /// Static types of declared locals (needed to type `cudaMalloc(&p, n)`).
    types: HashMap<String, Type>,
    space: Space,
    thread: u64,
    cuda: Option<CudaCtx>,
    depth: u32,
    /// Shared-write recorder for the watched parallel region this frame
    /// executes under, if any (`RunConfig::record_shared_writes`).
    /// Propagated into calls so global writes are still seen.
    watch: Option<Rc<RegionWatch>>,
    /// How many leading scopes of this frame hold the region's shared
    /// snapshot: 1 on worker frames, 0 everywhere else (a callee's scope 0
    /// holds its own parameters, which are private).
    watch_scopes: usize,
}

/// One watched parallel region (see [`RunConfig::record_shared_writes`]).
struct RegionWatch {
    /// Region id, for race messages and per-region write maps.
    region: u64,
    /// Variables the region privatizes per worker — reduction accumulators
    /// and `private`/`firstprivate` clause names — whose snapshot-scope
    /// writes are worker-local by construction.
    exempt: std::collections::HashSet<String>,
}

#[derive(Clone, Copy)]
struct CudaCtx {
    thread_idx: Dim3,
    block_idx: Dim3,
    block_dim: Dim3,
    grid_dim: Dim3,
}

impl Frame {
    fn host() -> Self {
        Frame {
            scopes: vec![HashMap::new()],
            types: HashMap::new(),
            space: Space::Host,
            thread: 0,
            cuda: None,
            depth: 0,
            watch: None,
            watch_scopes: 0,
        }
    }

    /// Index of the scope `name` resolves to (innermost wins), if any.
    fn scope_of(&self, name: &str) -> Option<usize> {
        (0..self.scopes.len())
            .rev()
            .find(|&i| self.scopes[i].contains_key(name))
    }

    fn get(&self, name: &str) -> Option<&Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn set_existing(&mut self, name: &str, value: Value) -> bool {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return true;
            }
        }
        false
    }

    fn declare(&mut self, name: &str, value: Value, ty: Option<Type>) {
        self.scopes
            .last_mut()
            .expect("frame always has a scope")
            .insert(name.to_string(), value);
        if let Some(t) = ty {
            self.types.insert(name.to_string(), t);
        }
    }

    /// All visible bindings (for lambda capture-by-value).
    fn visible(&self) -> Vec<(String, Value)> {
        let mut seen = HashMap::new();
        for scope in self.scopes.iter().rev() {
            for (k, v) in scope {
                seen.entry(k.clone()).or_insert_with(|| v.clone());
            }
        }
        seen.into_iter().collect()
    }
}

struct StructLayout {
    fields: Vec<(String, Type)>,
}

/// The interpreter.
pub struct Interp<'e> {
    exe: &'e Executable,
    mem: Memory,
    out: RefCell<String>,
    steps: Cell<u64>,
    config: RunConfig,
    telemetry: Cell<TelemetrySnapshot>,
    rng: Cell<u64>,
    clock: Cell<f64>,
    layouts: HashMap<String, StructLayout>,
    globals: RefCell<HashMap<String, Value>>,
    global_types: HashMap<String, Type>,
    kokkos_initialized: Cell<bool>,
    /// Monotonic id for watched parallel regions (shared-write recording).
    regions: Cell<u64>,
}

/// Run a linked executable to completion.
pub fn run(exe: &Executable, config: RunConfig) -> RunResult {
    let mut layouts = HashMap::new();
    for (name, def) in &exe.structs {
        layouts.insert(
            name.clone(),
            StructLayout {
                fields: def
                    .fields
                    .iter()
                    .map(|f| {
                        let mut t = f.ty.clone();
                        for _ in &f.array_dims {
                            t = Type::ptr(t);
                        }
                        (f.name.clone(), t)
                    })
                    .collect(),
            },
        );
    }
    // The cuRAND state is an opaque one-field struct at run time.
    layouts
        .entry("curandState".to_string())
        .or_insert(StructLayout {
            fields: vec![("__state".to_string(), Type::Scalar(ScalarType::Long))],
        });

    let detect = config.detect_races;
    let record_shared = config.record_shared_writes;
    let interp = Interp {
        exe,
        mem: Memory::new(detect, record_shared),
        out: RefCell::default(),
        steps: Cell::new(0),
        config,
        telemetry: Cell::default(),
        rng: Cell::new(0x2545F4914F6CDD1D),
        clock: Cell::new(0.0),
        layouts,
        globals: RefCell::default(),
        global_types: exe
            .globals
            .iter()
            .map(|d| {
                let mut t = d.ty.clone();
                for _ in &d.array_dims {
                    t = Type::ptr(t);
                }
                (d.name.clone(), t)
            })
            .collect(),
        kokkos_initialized: Cell::new(false),
        regions: Cell::new(0),
    };
    interp.run_main()
}

impl<'e> Interp<'e> {
    fn run_main(self) -> RunResult {
        let outcome = self.exec_program();
        let telemetry = self.telemetry.get();
        let races = self.mem.detector.races();
        let race_vars = self.mem.detector.shared_conflict_vars();
        let stdout = self.out.into_inner();
        match outcome {
            Ok(code) => RunResult {
                stdout,
                exit_code: code,
                error: None,
                telemetry,
                races,
                race_vars,
            },
            Err(Interrupt::Exit(code)) => RunResult {
                stdout,
                exit_code: code,
                error: None,
                telemetry,
                races,
                race_vars,
            },
            Err(Interrupt::Rt(e)) => RunResult {
                stdout,
                exit_code: 1,
                error: Some(e),
                telemetry,
                races,
                race_vars,
            },
        }
    }

    fn exec_program(&self) -> IResult<i64> {
        let mut frame = Frame::host();
        // Initialise globals.
        for decl in &self.exe.globals {
            let value = self.eval_decl_value(&mut frame, decl)?;
            self.globals.borrow_mut().insert(decl.name.clone(), value);
        }
        let main = self
            .exe
            .main()
            .ok_or_else(|| RuntimeError::new(RuntimeErrorKind::Unsupported, "no main function"))?;
        // Build argv.
        let mut argv_vals: Vec<Value> = vec![Value::Str(self.exe.name.as_str().into())];
        argv_vals.extend(
            self.config
                .args
                .iter()
                .map(|a| Value::Str(a.as_str().into())),
        );
        let argc = argv_vals.len() as i64;
        let args = match main.params.len() {
            0 => vec![],
            2 => {
                let buf = self.alloc_with(
                    Space::Host,
                    Type::ptr(Type::Scalar(ScalarType::Char)),
                    argv_vals,
                );
                vec![
                    Value::Int(argc),
                    Value::Ptr(Pointer {
                        space: Space::Host,
                        buffer: buf,
                        offset: 0,
                    }),
                ]
            }
            n => {
                return Err(Interrupt::Rt(RuntimeError::new(
                    RuntimeErrorKind::Unsupported,
                    format!("main must take 0 or 2 parameters, has {n}"),
                )))
            }
        };
        let ret = self.call_function(&mut frame, main, args)?;
        Ok(ret.as_int().unwrap_or(0))
    }

    fn alloc_with(&self, space: Space, elem: Type, values: Vec<Value>) -> usize {
        let zero = values.first().cloned().unwrap_or(Value::Int(0));
        let buf = self.mem.alloc(space, elem, values.len(), zero);
        for (i, v) in values.into_iter().enumerate() {
            let _ = self.mem.store(space, space, buf, i, v, 0);
        }
        buf
    }

    fn alloc_zeroed(&self, space: Space, elem: Type, len: usize) -> usize {
        let zero = self.zero_of(&elem);
        self.mem.alloc(space, elem, len, zero)
    }

    fn step(&self) -> IResult<()> {
        let n = self.steps.get();
        self.steps.set(n + 1);
        if n >= self.config.max_steps {
            return Err(Interrupt::Rt(RuntimeError::new(
                RuntimeErrorKind::StepLimit,
                format!(
                    "step limit of {} exceeded (runaway loop?)",
                    self.config.max_steps
                ),
            )));
        }
        Ok(())
    }

    /// A device region of `logical_threads` threads ran.
    fn record_device_region(&self, logical_threads: u64) {
        let mut t = self.telemetry.get();
        t.device_regions += 1;
        t.device_threads += logical_threads;
        t.max_device_parallelism = t.max_device_parallelism.max(logical_threads);
        self.telemetry.set(t);
    }

    /// A host `parallel` region ran.
    fn record_host_region(&self) {
        let mut t = self.telemetry.get();
        t.host_parallel_regions += 1;
        self.telemetry.set(t);
    }

    fn struct_zero(&self, name: &str) -> Value {
        let fields = self
            .layouts
            .get(name)
            .map(|l| l.fields.iter().map(|(_, t)| zero_value(t)).collect())
            .unwrap_or_default();
        Value::Struct(Box::new(StructVal {
            name: name.to_string(),
            fields,
        }))
    }

    fn zero_of(&self, ty: &Type) -> Value {
        match ty.unqualified() {
            Type::Named(n) => self.struct_zero(n),
            other => zero_value(other),
        }
    }

    fn sizeof(&self, ty: &Type) -> usize {
        byte_size(ty, &|name| {
            self.layouts.get(name).map(|l| {
                l.fields
                    .iter()
                    .map(|(_, t)| self.sizeof(t))
                    .sum::<usize>()
                    .max(1)
            })
        })
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn call_function(&self, caller: &mut Frame, f: &Function, args: Vec<Value>) -> IResult<Value> {
        if caller.depth > 200 {
            return Err(Interrupt::Rt(RuntimeError::new(
                RuntimeErrorKind::StepLimit,
                "recursion depth limit exceeded",
            )));
        }
        let mut frame = Frame {
            scopes: vec![HashMap::new()],
            types: HashMap::new(),
            space: caller.space,
            thread: caller.thread,
            cuda: caller.cuda,
            depth: caller.depth + 1,
            // Callees see only globals from the watched region's shared
            // state, so their own scopes are all private.
            watch: caller.watch.clone(),
            watch_scopes: 0,
        };
        for (p, v) in f.params.iter().zip(args) {
            let v = self.coerce(v, &p.ty)?;
            frame.declare(&p.name, v, Some(p.ty.clone()));
        }
        let Some(body) = &f.body else {
            return Err(Interrupt::Rt(RuntimeError::new(
                RuntimeErrorKind::Unsupported,
                format!("call to undefined function '{}'", f.name),
            )));
        };
        match self.exec_block(&mut frame, body)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Void),
        }
    }

    fn exec_block(&self, frame: &mut Frame, b: &Block) -> IResult<Flow> {
        frame.scopes.push(HashMap::new());
        let mut flow = Flow::Normal;
        for s in &b.stmts {
            flow = self.exec_stmt(frame, s)?;
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        frame.scopes.pop();
        Ok(flow)
    }

    fn exec_stmt(&self, frame: &mut Frame, s: &Stmt) -> IResult<Flow> {
        self.step()?;
        match &s.kind {
            StmtKind::Decl(d) => {
                let value = self.eval_decl_value(frame, d)?;
                let mut ty = d.ty.clone();
                for _ in &d.array_dims {
                    ty = Type::ptr(ty);
                }
                frame.declare(&d.name, value, Some(ty));
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                self.eval(frame, e)?;
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then, els } => {
                if self.eval(frame, cond)?.truthy() {
                    self.exec_stmt(frame, then)
                } else if let Some(els) = els {
                    self.exec_stmt(frame, els)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                while self.eval(frame, cond)?.truthy() {
                    self.step()?;
                    match self.exec_stmt(frame, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                frame.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.exec_stmt(frame, i)?;
                }
                let flow = loop {
                    if let Some(c) = cond {
                        if !self.eval(frame, c)?.truthy() {
                            break Flow::Normal;
                        }
                    }
                    self.step()?;
                    match self.exec_stmt(frame, body)? {
                        Flow::Break => break Flow::Normal,
                        Flow::Return(v) => break Flow::Return(v),
                        _ => {}
                    }
                    if let Some(st) = step {
                        self.eval(frame, st)?;
                    }
                };
                frame.scopes.pop();
                Ok(flow)
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(frame, e)?,
                    None => Value::Void,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Block(b) => self.exec_block(frame, b),
            StmtKind::Omp { directive, body } => self.exec_omp(frame, directive, body.as_deref()),
            StmtKind::RawPragma(_) | StmtKind::Empty => Ok(Flow::Normal),
        }
    }

    fn eval_decl_value(&self, frame: &mut Frame, d: &VarDecl) -> IResult<Value> {
        // Fixed-size arrays allocate a buffer in the current space.
        if !d.array_dims.is_empty() {
            let mut len = 1usize;
            for dim in &d.array_dims {
                let n = self
                    .eval(frame, dim)?
                    .as_int()
                    .filter(|n| *n >= 0)
                    .ok_or_else(|| type_err("array dimension must be a non-negative integer"))?;
                len *= n as usize;
            }
            let buf = self.alloc_zeroed(frame.space, d.ty.clone(), len);
            if let Some(Init::List(elems)) = &d.init {
                for (i, e) in elems.iter().enumerate() {
                    let v = self.eval(frame, e)?;
                    self.mem
                        .store(frame.space, frame.space, buf, i, v, frame.thread)
                        .map_err(Interrupt::Rt)?;
                }
            }
            return Ok(Value::Ptr(Pointer {
                space: frame.space,
                buffer: buf,
                offset: 0,
            }));
        }
        match (&d.init, d.ty.unqualified()) {
            // Kokkos view construction: `View<double*> v("label", n, ...)`.
            (Some(Init::Ctor(args)), Type::View { elem, rank }) => {
                let mut dims = [1usize; 2];
                let dim_args: Vec<&Expr> = args
                    .iter()
                    .skip(usize::from(matches!(
                        args.first().map(|a| &a.kind),
                        Some(ExprKind::StrLit(_))
                    )))
                    .collect();
                if dim_args.len() != *rank as usize {
                    return Err(type_err(format!(
                        "view '{}' of rank {rank} constructed with {} extents",
                        d.name,
                        dim_args.len()
                    ))
                    .into());
                }
                for (i, a) in dim_args.iter().enumerate() {
                    dims[i] = self
                        .eval(frame, a)?
                        .as_int()
                        .filter(|n| *n >= 0)
                        .ok_or_else(|| type_err("view extent must be a non-negative integer"))?
                        as usize;
                }
                let len = if *rank == 1 {
                    dims[0]
                } else {
                    dims[0] * dims[1]
                };
                let buf = self.alloc_zeroed(Space::Device, Type::Scalar(*elem), len);
                Ok(Value::View(ViewHandle {
                    space: Space::Device,
                    buffer: buf,
                    dims,
                    rank: *rank,
                    elem: *elem,
                }))
            }
            // dim3 construction.
            (Some(Init::Ctor(args)), Type::Dim3) => {
                let mut parts = [1u32; 3];
                for (i, a) in args.iter().take(3).enumerate() {
                    parts[i] = self
                        .eval(frame, a)?
                        .as_int()
                        .filter(|n| *n >= 0)
                        .ok_or_else(|| type_err("dim3 component must be a non-negative integer"))?
                        as u32;
                }
                Ok(Value::Dim3(Dim3::new(parts[0], parts[1], parts[2])))
            }
            (Some(Init::Ctor(_)), _) => Err(type_err(format!(
                "constructor syntax is not supported for type of '{}'",
                d.name
            ))
            .into()),
            (Some(Init::Expr(e)), _) => {
                let v = self.eval(frame, e)?;
                self.coerce(v, &d.ty)
            }
            (Some(Init::List(_)), _) => {
                Err(type_err("initialiser lists are only supported on arrays").into())
            }
            (None, _) => Ok(self.zero_of(&d.ty)),
        }
    }

    /// Convert a value to a declared type — this is where `malloc`'s
    /// untyped allocation becomes a typed buffer.
    fn coerce(&self, v: Value, ty: &Type) -> IResult<Value> {
        match (v, ty.unqualified()) {
            (Value::UntypedAlloc { bytes }, Type::Ptr(inner)) => {
                let elem = (**inner).clone();
                let esize = self.sizeof(&elem).max(1);
                let len = bytes / esize;
                let buf = self.alloc_zeroed(Space::Host, elem, len);
                Ok(Value::Ptr(Pointer {
                    space: Space::Host,
                    buffer: buf,
                    offset: 0,
                }))
            }
            (Value::Int(n), Type::Scalar(s)) if s.is_float() => Ok(Value::Float(n as f64)),
            (Value::Float(f), Type::Scalar(s)) if s.is_integer() => Ok(Value::Int(f as i64)),
            (Value::Int(n), Type::Scalar(ScalarType::Bool)) => Ok(Value::Bool(n != 0)),
            (Value::Bool(b), Type::Scalar(s)) if s.is_integer() => Ok(Value::Int(i64::from(b))),
            (Value::Int(n), Type::Dim3) => Ok(Value::Dim3(Dim3::scalar(n.max(0) as u32))),
            (other, _) => Ok(other),
        }
    }
}

fn type_err(msg: impl Into<String>) -> RuntimeError {
    RuntimeError::new(RuntimeErrorKind::TypeError, msg)
}

// Expression evaluation, builtins, lvalues, and the OpenMP engine live in
// sibling modules to keep files reviewable.
mod builtins;
mod expr;
mod omp;
