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
use crate::resolve::*;
use crate::value::*;
use minihpc_build::object::Executable;
use minihpc_lang::ast::*;
use minihpc_lang::pragma::ReductionOp;
use std::cell::{Cell, RefCell};
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
    /// Statements and loop iterations executed: the interpreter's unit of
    /// work, counted against [`RunConfig::max_steps`].
    pub steps: u64,
}

impl RunResult {
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.exit_code == 0
    }
}

/// Internal control signals.
pub(crate) enum Interrupt {
    /// Boxed, so results on the evaluation path stay small.
    Rt(Box<RuntimeError>),
    Exit(i64),
}

impl From<RuntimeError> for Interrupt {
    fn from(e: RuntimeError) -> Self {
        Interrupt::Rt(Box::new(e))
    }
}

pub(crate) type IResult<T> = Result<T, Interrupt>;

/// How a statement ended. A `return` leaves its value in [`Frame::ret`],
/// so a statement's result stays two words wide.
#[derive(Clone, Copy)]
pub(crate) enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

/// A lowered node: the resolve pass builds one closure per node, and
/// each calls its children's closures directly.
pub(crate) type Lowered<T> = Box<dyn Fn(&Interp<'_>, &mut Frame<'_>) -> IResult<T>>;
pub(crate) type ExprFn = Lowered<Value>;
/// A lowered statement. It charges its own step.
pub(crate) type StmtFn = Lowered<Flow>;
/// A lowered assignment target.
pub(crate) type PlaceFn = Lowered<Place>;
/// A lowered statement that can be shared: a `for` loop's body, which a
/// canonical OpenMP loop nest also runs on its own.
pub(crate) type SharedStmt = Rc<dyn Fn(&Interp<'_>, &mut Frame<'_>) -> IResult<Flow>>;
/// A lowered block's statements.
pub(crate) type Block = Box<[StmtFn]>;

pub(crate) fn lower<T>(
    f: impl Fn(&Interp<'_>, &mut Frame<'_>) -> IResult<T> + 'static,
) -> Lowered<T> {
    Box::new(f)
}

/// Per-execution-context state (one per logical thread): the slots of
/// one function or lambda activation.
pub(crate) struct Frame<'p> {
    slots: Vec<Value>,
    /// Name and declared type of each slot.
    vars: &'p [SlotVar],
    space: Space,
    thread: u64,
    cuda: Option<CudaCtx>,
    depth: u32,
    /// Shared-write recorder for the watched parallel region this frame
    /// executes under, if any (`RunConfig::record_shared_writes`).
    /// Propagated into calls so global writes are still seen.
    watch: Option<Rc<RegionWatch>>,
    /// Slots below this hold the region's shared snapshot on worker
    /// frames; 0 everywhere else (a callee's slots are all private).
    watch_base: usize,
    /// The value of the `return` that ended the body, if one did.
    ret: Value,
}

/// One watched parallel region (see [`RunConfig::record_shared_writes`]).
struct RegionWatch {
    /// Region id, for race messages and per-region write maps.
    region: u64,
    /// Variables the region privatizes per worker — reduction accumulators
    /// and `private`/`firstprivate` clause names — whose snapshot writes
    /// are worker-local by construction.
    exempt: Vec<String>,
}

#[derive(Clone, Copy)]
struct CudaCtx {
    thread_idx: Dim3,
    block_idx: Dim3,
    block_dim: Dim3,
    grid_dim: Dim3,
}

impl<'p> Frame<'p> {
    /// An activation in `caller`'s context, its slots still to be set.
    fn new(vars: &'p [SlotVar], caller: &Frame, depth: u32) -> Self {
        Frame {
            slots: Vec::new(),
            vars,
            space: caller.space,
            thread: caller.thread,
            cuda: caller.cuda,
            depth,
            watch: None,
            watch_base: 0,
            ret: Value::Void,
        }
    }
}

/// The interpreter.
pub struct Interp<'p> {
    exe: &'p Executable,
    prog: &'p Program,
    mem: Memory,
    out: RefCell<String>,
    steps: Cell<u64>,
    config: RunConfig,
    telemetry: Cell<TelemetrySnapshot>,
    rng: Cell<u64>,
    clock: Cell<f64>,
    globals: RefCell<Vec<Value>>,
    /// Slot vectors of finished activations, for reuse.
    spare: RefCell<Vec<Vec<Value>>>,
    kokkos_initialized: Cell<bool>,
    /// Monotonic id for watched parallel regions (shared-write recording).
    regions: Cell<u64>,
}

/// Run a linked executable to completion: lower it to closures, then call
/// `main`'s.
pub fn run(exe: &Executable, config: RunConfig) -> RunResult {
    let prog = resolve(exe);
    let detect = config.detect_races;
    let record_shared = config.record_shared_writes;
    let interp = Interp {
        exe,
        prog: &prog,
        mem: Memory::new(detect, record_shared),
        out: RefCell::default(),
        steps: Cell::new(0),
        config,
        telemetry: Cell::default(),
        rng: Cell::new(0x2545F4914F6CDD1D),
        clock: Cell::new(0.0),
        globals: RefCell::new(vec![Value::Void; prog.globals.len()]),
        spare: RefCell::default(),
        kokkos_initialized: Cell::new(false),
        regions: Cell::new(0),
    };
    interp.run_main()
}

impl<'p> Interp<'p> {
    fn run_main(self) -> RunResult {
        let outcome = self.exec_program();
        let telemetry = self.telemetry.get();
        let races = self.mem.detector.races();
        let race_vars = self.mem.detector.shared_conflict_vars();
        let steps = self.steps.get();
        let stdout = self.out.into_inner();
        let (exit_code, error) = match outcome {
            Ok(code) | Err(Interrupt::Exit(code)) => (code, None),
            Err(Interrupt::Rt(e)) => (1, Some(*e)),
        };
        RunResult {
            stdout,
            exit_code,
            error,
            telemetry,
            races,
            race_vars,
            steps,
        }
    }

    fn exec_program(&self) -> IResult<i64> {
        let mut frame = Frame {
            slots: vec![],
            vars: &[],
            space: Space::Host,
            thread: 0,
            cuda: None,
            depth: 0,
            watch: None,
            watch_base: 0,
            ret: Value::Void,
        };
        // Initialise globals.
        for (i, g) in self.prog.globals.iter().enumerate() {
            let value = (g.init)(self, &mut frame)?;
            self.globals.borrow_mut()[i] = value;
        }
        let main = self
            .prog
            .main
            .map(|f| &self.prog.functions[f as usize])
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
        let args = match main.params {
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
                return Err(Interrupt::from(RuntimeError::new(
                    RuntimeErrorKind::Unsupported,
                    format!("main must take 0 or 2 parameters, has {n}"),
                )))
            }
        };
        let mut slots = self.slots(main.vars.len());
        for (slot, arg) in slots.iter_mut().zip(args) {
            *slot = arg;
        }
        let ret = self.call_function(&mut frame, main, slots)?;
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

    /// Charge one step: each statement, and each loop iteration.
    #[inline(always)]
    fn step(&self) -> IResult<()> {
        let n = self.steps.get();
        self.steps.set(n + 1);
        if n >= self.config.max_steps {
            return Err(self.step_limit());
        }
        Ok(())
    }

    #[cold]
    fn step_limit(&self) -> Interrupt {
        Interrupt::from(RuntimeError::new(
            RuntimeErrorKind::StepLimit,
            format!(
                "step limit of {} exceeded (runaway loop?)",
                self.config.max_steps
            ),
        ))
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

    fn layout(&self, name: &str) -> Option<&'p StructLayout> {
        self.prog.layouts.get(name)
    }

    fn zero_of(&self, ty: &Type) -> Value {
        self.prog.layouts.zero_of(ty)
    }

    fn sizeof(&self, ty: &Type) -> usize {
        self.prog.layouts.size_of(ty)
    }

    /// Call `f` with `slots` from [`Interp::slots`], the arguments
    /// already in the parameter slots.
    fn call_function(
        &self,
        caller: &mut Frame,
        f: &RFunction,
        slots: Vec<Value>,
    ) -> IResult<Value> {
        if caller.depth > 200 {
            return Err(Interrupt::from(RuntimeError::new(
                RuntimeErrorKind::StepLimit,
                "recursion depth limit exceeded",
            )));
        }
        let mut frame = Frame::new(&f.vars, caller, caller.depth + 1);
        frame.slots = slots;
        // Callees see only globals from the watched region's shared state,
        // so their own slots are all private.
        frame.watch = caller.watch.clone();
        self.coerce_params(&mut frame, f.params);
        let Some(body) = &f.body else {
            return Err(Interrupt::from(RuntimeError::new(
                RuntimeErrorKind::Unsupported,
                format!("call to undefined function '{}'", f.name),
            )));
        };
        let flow = self.exec_block(&mut frame, body)?;
        self.recycle(frame.slots);
        match flow {
            Flow::Return => Ok(frame.ret),
            _ => Ok(Value::Void),
        }
    }

    /// Convert the first `n` slots (the parameters) to their declared
    /// types. A parameter no argument reached is `Void` and stays so.
    fn coerce_params(&self, frame: &mut Frame, n: usize) {
        for (slot, var) in frame.slots[..n].iter_mut().zip(frame.vars) {
            let v = std::mem::take(slot);
            *slot = self.coerce_to(v, var);
        }
    }

    /// `n` `Void` slots for a new activation, reusing the vector of a
    /// finished one.
    fn slots(&self, n: usize) -> Vec<Value> {
        let mut slots = self.spare.borrow_mut().pop().unwrap_or_default();
        slots.resize(n, Value::Void);
        slots
    }

    /// Keep a finished activation's slot vector for [`Interp::slots`].
    fn recycle(&self, mut slots: Vec<Value>) {
        slots.clear();
        self.spare.borrow_mut().push(slots);
    }

    fn exec_block(&self, frame: &mut Frame, stmts: &[StmtFn]) -> IResult<Flow> {
        for s in stmts {
            let flow = s(self, frame)?;
            if !matches!(flow, Flow::Normal) {
                return Ok(flow);
            }
        }
        Ok(Flow::Normal)
    }

    /// Convert a value to a declared type.
    #[inline(always)]
    fn coerce(&self, v: Value, to: &Declared) -> Value {
        match (to.conv, v) {
            (Conv::Pointer, Value::UntypedAlloc { bytes }) => self.typed_alloc(bytes, &to.ty),
            (conv, v) => conv.apply(v),
        }
    }

    /// [`Interp::coerce`] to a slot's declared type, if it has one.
    #[inline]
    fn coerce_to(&self, v: Value, var: &SlotVar) -> Value {
        match &var.ty {
            Some(to) => self.coerce(v, to),
            None => v,
        }
    }

    /// `malloc`'s untyped allocation of `bytes`, assigned to pointer type
    /// `ptr`: this is where it becomes a typed buffer.
    #[inline(never)]
    fn typed_alloc(&self, bytes: usize, ptr: &Type) -> Value {
        let elem = ptr.pointee().expect("a pointer type").clone();
        let len = bytes / self.sizeof(&elem).max(1);
        let buf = self.alloc_zeroed(Space::Host, elem, len);
        Value::Ptr(Pointer {
            space: Space::Host,
            buffer: buf,
            offset: 0,
        })
    }
}

// ----------------------------------------------------------------------
// Statements
// ----------------------------------------------------------------------

/// A declaration of `slot`: `init`'s value, converted to `to` if given.
pub(crate) fn decl(slot: u32, init: ExprFn, to: Option<Declared>) -> StmtFn {
    let slot = slot as usize;
    lower(move |i, f| {
        i.step()?;
        let v = init(i, f)?;
        let v = match &to {
            Some(to) => i.coerce(v, to),
            None => v,
        };
        overwrite(&mut f.slots[slot], v);
        Ok(Flow::Normal)
    })
}

pub(crate) fn expr_stmt(e: ExprFn) -> StmtFn {
    lower(move |i, f| {
        i.step()?;
        e(i, f)?;
        Ok(Flow::Normal)
    })
}

pub(crate) fn if_else(cond: ExprFn, then: StmtFn, els: Option<StmtFn>) -> StmtFn {
    lower(move |i, f| {
        i.step()?;
        if cond(i, f)?.truthy() {
            then(i, f)
        } else if let Some(els) = &els {
            els(i, f)
        } else {
            Ok(Flow::Normal)
        }
    })
}

pub(crate) fn while_loop(cond: ExprFn, body: StmtFn) -> StmtFn {
    lower(move |i, f| {
        i.step()?;
        while cond(i, f)?.truthy() {
            i.step()?;
            match body(i, f)? {
                Flow::Break => break,
                Flow::Return => return Ok(Flow::Return),
                _ => {}
            }
        }
        Ok(Flow::Normal)
    })
}

/// A `for` loop. Its body is shared with the OpenMP loop nest it may
/// head.
pub(crate) fn for_loop(
    init: Option<StmtFn>,
    cond: Option<ExprFn>,
    step: Option<ExprFn>,
    body: SharedStmt,
) -> StmtFn {
    lower(move |i, f| {
        i.step()?;
        if let Some(init) = &init {
            init(i, f)?;
        }
        loop {
            if let Some(c) = &cond {
                if !c(i, f)?.truthy() {
                    return Ok(Flow::Normal);
                }
            }
            i.step()?;
            match body(i, f)? {
                Flow::Break => return Ok(Flow::Normal),
                Flow::Return => return Ok(Flow::Return),
                _ => {}
            }
            if let Some(st) = &step {
                st(i, f)?;
            }
        }
    })
}

pub(crate) fn ret(e: Option<ExprFn>) -> StmtFn {
    lower(move |i, f| {
        i.step()?;
        f.ret = match &e {
            Some(e) => e(i, f)?,
            None => Value::Void,
        };
        Ok(Flow::Return)
    })
}

/// `break`, `continue`, or an empty statement (`Flow::Normal`).
pub(crate) fn jump(flow: Flow) -> StmtFn {
    lower(move |i, _| {
        i.step()?;
        Ok(flow)
    })
}

pub(crate) fn block(stmts: Block) -> StmtFn {
    lower(move |i, f| {
        i.step()?;
        i.exec_block(f, &stmts)
    })
}

// ----------------------------------------------------------------------
// Declaration initialisers
// ----------------------------------------------------------------------

/// A fixed-size array: a zeroed buffer in the current space, optionally
/// filled from a list.
pub(crate) fn array(dims: Vec<ExprFn>, elem: Type, zero: Value, list: Vec<ExprFn>) -> ExprFn {
    lower(move |i, f| {
        let mut len = 1usize;
        for dim in &dims {
            let n = dim(i, f)?
                .as_int()
                .filter(|n| *n >= 0)
                .ok_or_else(|| type_err("array dimension must be a non-negative integer"))?;
            len *= n as usize;
        }
        let buf = i.mem.alloc(f.space, elem.clone(), len, zero.clone());
        for (k, e) in list.iter().enumerate() {
            let v = e(i, f)?;
            i.mem.store(f.space, f.space, buf, k, v, f.thread)?;
        }
        Ok(Value::Ptr(Pointer {
            space: f.space,
            buffer: buf,
            offset: 0,
        }))
    })
}

/// Kokkos view construction: `View<double*> v("label", n, ...)`.
pub(crate) fn view(elem: ScalarType, rank: u8, extents: Vec<ExprFn>) -> ExprFn {
    lower(move |i, f| {
        let mut dims = [1usize; 2];
        for (k, a) in extents.iter().enumerate() {
            dims[k] = a(i, f)?
                .as_int()
                .filter(|n| *n >= 0)
                .ok_or_else(|| type_err("view extent must be a non-negative integer"))?
                as usize;
        }
        let len = if rank == 1 {
            dims[0]
        } else {
            dims[0] * dims[1]
        };
        let buf = i.alloc_zeroed(Space::Device, Type::Scalar(elem), len);
        Ok(Value::View(ViewHandle {
            space: Space::Device,
            buffer: buf,
            dims,
            rank,
            elem,
        }))
    })
}

/// `dim3` construction.
pub(crate) fn dim3(args: Vec<ExprFn>) -> ExprFn {
    lower(move |i, f| {
        let mut parts = [1u32; 3];
        for (k, a) in args.iter().enumerate() {
            parts[k] = a(i, f)?
                .as_int()
                .filter(|n| *n >= 0)
                .ok_or_else(|| type_err("dim3 component must be a non-negative integer"))?
                as u32;
        }
        Ok(Value::Dim3(Dim3::new(parts[0], parts[1], parts[2])))
    })
}

/// `= expr`, converted to the declared type.
pub(crate) fn converted(e: ExprFn, to: Declared) -> ExprFn {
    lower(move |i, f| {
        let v = e(i, f)?;
        Ok(i.coerce(v, &to))
    })
}

fn type_err(msg: impl Into<String>) -> RuntimeError {
    RuntimeError::new(RuntimeErrorKind::TypeError, msg)
}

// Expression closures and places, builtins, and the OpenMP engine live in
// sibling modules to keep files reviewable.
pub(crate) mod builtins;
pub(crate) mod expr;
pub(crate) mod omp;

pub(crate) use expr::Place;
