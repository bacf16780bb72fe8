//! Builtin function dispatch: libc, libm, the CUDA runtime API, cuRAND, and
//! the Kokkos core API.

use super::*;

/// A host library function: libc, libm, the OpenMP and CUDA runtime APIs.
#[derive(Debug)]
pub(crate) enum Builtin {
    Printf,
    Fprintf,
    Malloc,
    Calloc,
    Free,
    Memset,
    Memcpy,
    Strcmp,
    Atoi,
    Atof,
    Exit,
    Abs,
    Min,
    Max,
    Rand,
    Srand,
    /// `assert(e)`, with `e` printed for the failure message.
    Assert(String),
    OmpGetWtime,
    OmpMaxThreads,
    OmpThreadNum,
    OmpNumDevices,
    OmpIsInitialDevice,
    OmpSetNumThreads,
    Math(fn(f64) -> f64),
    Math2(fn(f64, f64) -> f64),
    CudaMemcpy,
    CudaMemset,
    CudaFree,
    /// `cudaDeviceSynchronize`, `cudaGetLastError`: always `cudaSuccess`.
    CudaSuccess,
    CudaGetErrorString,
    AtomicAdd,
    Unknown(String),
}

impl Builtin {
    pub(crate) fn from_name(name: &str, args: &[Expr]) -> Builtin {
        match name {
            "printf" => Builtin::Printf,
            "fprintf" => Builtin::Fprintf,
            "malloc" => Builtin::Malloc,
            "calloc" => Builtin::Calloc,
            "free" => Builtin::Free,
            "memset" => Builtin::Memset,
            "memcpy" => Builtin::Memcpy,
            "strcmp" => Builtin::Strcmp,
            "atoi" | "atol" => Builtin::Atoi,
            "atof" => Builtin::Atof,
            "exit" => Builtin::Exit,
            "abs" | "labs" => Builtin::Abs,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "rand" => Builtin::Rand,
            "srand" => Builtin::Srand,
            "assert" => Builtin::Assert(
                args.first()
                    .map(minihpc_lang::printer::print_expr)
                    .unwrap_or_default(),
            ),
            "omp_get_wtime" => Builtin::OmpGetWtime,
            "omp_get_num_threads" | "omp_get_max_threads" => Builtin::OmpMaxThreads,
            "omp_get_thread_num" => Builtin::OmpThreadNum,
            "omp_get_num_devices" => Builtin::OmpNumDevices,
            "omp_is_initial_device" => Builtin::OmpIsInitialDevice,
            "omp_set_num_threads" => Builtin::OmpSetNumThreads,
            "sqrt" | "sqrtf" => Builtin::Math(f64::sqrt),
            "fabs" | "fabsf" => Builtin::Math(f64::abs),
            "exp" | "expf" => Builtin::Math(f64::exp),
            "log" | "logf" => Builtin::Math(f64::ln),
            "log2" | "log2f" => Builtin::Math(f64::log2),
            "floor" | "floorf" => Builtin::Math(f64::floor),
            "ceil" | "ceilf" => Builtin::Math(f64::ceil),
            "sin" | "sinf" => Builtin::Math(f64::sin),
            "cos" | "cosf" => Builtin::Math(f64::cos),
            "tanh" | "tanhf" => Builtin::Math(f64::tanh),
            "coshf" => Builtin::Math(f64::cosh),
            "erf" | "erff" => Builtin::Math(erf),
            "pow" | "powf" => Builtin::Math2(f64::powf),
            "fmax" | "fmaxf" => Builtin::Math2(f64::max),
            "fmin" | "fminf" => Builtin::Math2(f64::min),
            "fmod" => Builtin::Math2(|a, b| a % b),
            "cudaMemcpy" => Builtin::CudaMemcpy,
            "cudaMemset" => Builtin::CudaMemset,
            "cudaFree" => Builtin::CudaFree,
            "cudaDeviceSynchronize" | "cudaGetLastError" => Builtin::CudaSuccess,
            "cudaGetErrorString" => Builtin::CudaGetErrorString,
            "atomicAdd" => Builtin::AtomicAdd,
            other => Builtin::Unknown(other.to_string()),
        }
    }
}

/// A `Kokkos::` entry point.
#[derive(Debug)]
pub(crate) enum Kokkos {
    Initialize,
    Finalize,
    Fence,
    RangePolicy,
    MDRangePolicy,
    DeepCopy,
    CreateMirrorView,
    /// `parallel_for` or `parallel_reduce`, whose first argument may be a
    /// label.
    Parallel {
        reduce: bool,
        label: bool,
    },
    Unsupported(String),
}

impl Kokkos {
    /// The entry point `Kokkos::func` (template arguments ignored).
    pub(crate) fn from_name(func: &str, label: bool) -> Kokkos {
        match func.split('<').next().unwrap_or(func) {
            "initialize" => Kokkos::Initialize,
            "finalize" => Kokkos::Finalize,
            "fence" => Kokkos::Fence,
            "RangePolicy" => Kokkos::RangePolicy,
            "MDRangePolicy" => Kokkos::MDRangePolicy,
            "deep_copy" => Kokkos::DeepCopy,
            "create_mirror_view" => Kokkos::CreateMirrorView,
            "parallel_for" => Kokkos::Parallel {
                reduce: false,
                label,
            },
            "parallel_reduce" => Kokkos::Parallel {
                reduce: true,
                label,
            },
            other => Kokkos::Unsupported(other.to_string()),
        }
    }
}

/// What a call reaches.
pub(crate) enum Target {
    User(u32),
    Builtin(Builtin),
    /// `cudaMalloc(&place, bytes)`: the place and its pointee type, or
    /// `None` when the first argument is not `&place`.
    CudaMalloc(Option<(PlaceFn, Type)>),
    CurandInit(RngState),
    /// `curand` (integer) or `curand_uniform*` (float).
    CurandNext(RngState, bool),
    /// A Kokkos entry point, and the result place of a `parallel_reduce`.
    Kokkos(Kokkos, Option<PlaceFn>),
    /// `view.method(args)`.
    Method(ExprFn, Rc<str>),
    Fail(String),
}

/// The cuRAND state argument: `&place`, or a pointer value.
pub(crate) enum RngState {
    Place(PlaceFn),
    Pointer(ExprFn),
}

/// A `<<<grid, block>>>` launch.
pub(crate) struct Launch {
    pub kernel: Result<u32, Rc<str>>,
    pub grid: ExprFn,
    pub block: ExprFn,
    pub args: Vec<ExprFn>,
}

pub(crate) fn launch(launch: Launch) -> ExprFn {
    lower(move |i, f| i.cuda_launch(f, &launch))
}

/// A call of `target`. `view` is the local the callee names, if any: a
/// call on a local holding a Kokkos view is an element access.
pub(crate) fn call(view: Option<u32>, target: Target, args: Vec<ExprFn>) -> ExprFn {
    let args: Rc<[ExprFn]> = args.into();
    let call = target_call(target, args.clone());
    let Some(slot) = view else {
        return call;
    };
    lower(move |i, f| {
        if let Value::View(h) = &f.slots[slot as usize] {
            let h = h.clone();
            let place = i.view_place(f, &h, &args)?;
            return i.read_place(f, &place);
        }
        call(i, f)
    })
}

fn target_call(target: Target, args: Rc<[ExprFn]>) -> ExprFn {
    match target {
        // Out-parameter builtins get their place arguments resolved.
        Target::CudaMalloc(dst) => lower(move |i, f| i.cuda_malloc(f, dst.as_ref(), &args[1])),
        Target::CurandInit(state) => lower(move |i, f| i.curand_init(f, &args, &state)),
        Target::CurandNext(state, int) => lower(move |i, f| i.curand_next(f, &state, int)),
        Target::User(func) => lower(move |i, f| {
            let func = &i.prog.functions[func as usize];
            if func.cuda_global && f.cuda.is_none() {
                return Err(type_err(format!(
                    "__global__ function '{}' called without a launch",
                    func.name
                ))
                .into());
            }
            // Arguments go straight to the parameter slots; extra ones are
            // evaluated and dropped.
            let mut slots = i.slots(func.vars.len());
            for (k, a) in args.iter().enumerate() {
                let v = a(i, f)?;
                if k < func.params {
                    slots[k] = v;
                }
            }
            i.call_function(f, func, slots)
        }),
        // libm with its exact arity: no argument vector.
        Target::Builtin(Builtin::Math(m)) if args.len() == 1 => {
            lower(move |i, f| Ok(Value::Float(m(flt(&args[0](i, f)?)))))
        }
        Target::Builtin(Builtin::Math2(m)) if args.len() == 2 => lower(move |i, f| {
            let x = flt(&args[0](i, f)?);
            Ok(Value::Float(m(x, flt(&args[1](i, f)?))))
        }),
        Target::Builtin(b) => lower(move |i, f| {
            let mut values = Vec::with_capacity(args.len());
            for a in args.iter() {
                values.push(a(i, f)?);
            }
            i.call_host_builtin(f, &b, values)
        }),
        Target::Method(base, method) => lower(move |i, f| {
            // View method calls.
            if let Value::View(h) = base(i, f)? {
                if &*method != "extent" {
                    let msg = format!("unsupported view method '{method}'");
                    return Err(type_err(msg).into());
                }
                let k = args
                    .first()
                    .map(|a| a(i, f))
                    .transpose()?
                    .and_then(|v| v.as_int())
                    .unwrap_or(0);
                let d = h.dims.get(k as usize).copied().unwrap_or(1);
                return Ok(Value::Int(d as i64));
            }
            Err(type_err("method calls are only supported on Kokkos views").into())
        }),
        Target::Kokkos(k, result) => lower(move |i, f| i.eval_kokkos(f, &k, &args, &result)),
        Target::Fail(msg) => super::expr::fail(msg),
    }
}

fn flt(v: &Value) -> f64 {
    v.as_float().unwrap_or(0.0)
}

impl<'p> Interp<'p> {
    fn call_host_builtin(
        &self,
        frame: &mut Frame,
        builtin: &Builtin,
        values: Vec<Value>,
    ) -> IResult<Value> {
        let int = |v: &Value| v.as_int().unwrap_or(0);
        let arg = |i: usize| values.get(i).cloned().unwrap_or(Value::Int(0));
        match builtin {
            Builtin::Printf => {
                let Some(Value::Str(fmt)) = values.first() else {
                    return Err(type_err("printf requires a format string").into());
                };
                let text = printf(fmt, &values[1..]);
                self.out.borrow_mut().push_str(&text);
                Ok(Value::Int(text.len() as i64))
            }
            Builtin::Fprintf => {
                let Some(Value::Str(fmt)) = values.get(1) else {
                    return Err(type_err("fprintf requires a format string").into());
                };
                let text = printf(fmt, &values[2..]);
                self.out.borrow_mut().push_str(&text);
                Ok(Value::Int(text.len() as i64))
            }
            Builtin::Malloc => Ok(Value::UntypedAlloc {
                bytes: int(&arg(0)).max(0) as usize,
            }),
            Builtin::Calloc => Ok(Value::UntypedAlloc {
                bytes: (int(&arg(0)).max(0) * int(&arg(1)).max(0)) as usize,
            }),
            Builtin::Free => {
                match arg(0) {
                    Value::Ptr(p) => self.mem.free(p.space, p.buffer).map_err(Interrupt::from)?,
                    Value::Null | Value::UntypedAlloc { .. } => {}
                    other => return Err(type_err(format!("free of {}", other.type_name())).into()),
                }
                Ok(Value::Void)
            }
            Builtin::Memset => {
                let Value::Ptr(p) = arg(0) else {
                    return Err(type_err("memset requires a pointer").into());
                };
                let byte = int(&arg(1));
                let bytes = int(&arg(2)).max(0) as usize;
                let elem = self
                    .mem
                    .elem_type(p.space, p.buffer)
                    .map_err(Interrupt::from)?;
                let len = bytes / self.sizeof(&elem).max(1);
                let fill = if byte == 0 {
                    self.zero_of(&elem)
                } else {
                    Value::Int(byte)
                };
                self.mem
                    .fill(frame.space, p.space, p.buffer, p.offset, len, fill)
                    .map_err(Interrupt::from)?;
                Ok(arg(0))
            }
            Builtin::Memcpy => {
                let (Value::Ptr(d), Value::Ptr(s)) = (arg(0), arg(1)) else {
                    return Err(type_err("memcpy requires pointers").into());
                };
                // memcpy is host-side; both pointers must be host.
                if d.space != frame.space || s.space != frame.space {
                    return Err(RuntimeError::illegal(
                        "memcpy across host/device memory (use cudaMemcpy)",
                    )
                    .into());
                }
                let bytes = int(&arg(2)).max(0) as usize;
                let elem = self
                    .mem
                    .elem_type(s.space, s.buffer)
                    .map_err(Interrupt::from)?;
                let len = bytes / self.sizeof(&elem).max(1);
                self.mem
                    .copy(
                        d.space, d.buffer, d.offset, s.space, s.buffer, s.offset, len,
                    )
                    .map_err(Interrupt::from)?;
                Ok(arg(0))
            }
            Builtin::Strcmp => {
                let (Value::Str(a), Value::Str(b)) = (arg(0), arg(1)) else {
                    return Err(type_err("strcmp requires strings").into());
                };
                Ok(Value::Int(match a.cmp(&b) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                }))
            }
            Builtin::Atoi => match arg(0) {
                Value::Str(s) => Ok(Value::Int(s.trim().parse().unwrap_or(0))),
                other => Err(type_err(format!("atoi of {}", other.type_name())).into()),
            },
            Builtin::Atof => match arg(0) {
                Value::Str(s) => Ok(Value::Float(s.trim().parse().unwrap_or(0.0))),
                other => Err(type_err(format!("atof of {}", other.type_name())).into()),
            },
            Builtin::Exit => Err(Interrupt::Exit(int(&arg(0)))),
            Builtin::Abs => Ok(Value::Int(int(&arg(0)).abs())),
            Builtin::Min => Ok(Value::Int(int(&arg(0)).min(int(&arg(1))))),
            Builtin::Max => Ok(Value::Int(int(&arg(0)).max(int(&arg(1))))),
            Builtin::Rand => {
                let s = self
                    .rng
                    .get()
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                self.rng.set(s);
                Ok(Value::Int(((s >> 33) & 0x7FFF_FFFF) as i64))
            }
            Builtin::Srand => {
                self.rng.set(int(&arg(0)) as u64 | 1);
                Ok(Value::Void)
            }
            Builtin::Assert(text) => {
                if !arg(0).truthy() {
                    return Err(type_err(format!("assertion failed: {text}")).into());
                }
                Ok(Value::Void)
            }
            Builtin::OmpGetWtime => {
                let t = self.clock.get() + 1e-6;
                self.clock.set(t);
                Ok(Value::Float(t))
            }
            Builtin::OmpMaxThreads => Ok(Value::Int(self.config.workers as i64)),
            Builtin::OmpThreadNum => Ok(Value::Int(0)),
            Builtin::OmpNumDevices => Ok(Value::Int(1)),
            Builtin::OmpIsInitialDevice => Ok(Value::Int(i64::from(frame.space == Space::Host))),
            Builtin::OmpSetNumThreads => Ok(Value::Void),
            // libm --------------------------------------------------------
            Builtin::Math(f) => Ok(Value::Float(f(flt(&arg(0))))),
            Builtin::Math2(f) => Ok(Value::Float(f(flt(&arg(0)), flt(&arg(1))))),
            // CUDA runtime API ---------------------------------------------
            Builtin::CudaMemcpy => {
                let (Value::Ptr(d), Value::Ptr(s)) = (arg(0), arg(1)) else {
                    return Err(type_err("cudaMemcpy requires pointer arguments").into());
                };
                let bytes = int(&arg(2)).max(0) as usize;
                let dir = int(&arg(3));
                let dir_ok = match dir {
                    1 => d.space == Space::Device && s.space == Space::Host,
                    2 => d.space == Space::Host && s.space == Space::Device,
                    3 => d.space == Space::Device && s.space == Space::Device,
                    _ => false,
                };
                if !dir_ok {
                    return Err(RuntimeError::illegal(format!(
                        "cudaMemcpy direction {dir} does not match pointer spaces \
                         (dst {:?}, src {:?})",
                        d.space, s.space
                    ))
                    .into());
                }
                let elem = self
                    .mem
                    .elem_type(s.space, s.buffer)
                    .map_err(Interrupt::from)?;
                let len = bytes / self.sizeof(&elem).max(1);
                self.mem
                    .copy(
                        d.space, d.buffer, d.offset, s.space, s.buffer, s.offset, len,
                    )
                    .map_err(Interrupt::from)?;
                Ok(Value::Int(0))
            }
            Builtin::CudaMemset => {
                let Value::Ptr(p) = arg(0) else {
                    return Err(type_err("cudaMemset requires a device pointer").into());
                };
                let bytes = int(&arg(2)).max(0) as usize;
                let elem = self
                    .mem
                    .elem_type(p.space, p.buffer)
                    .map_err(Interrupt::from)?;
                let len = bytes / self.sizeof(&elem).max(1);
                let fill = self.zero_of(&elem);
                // cudaMemset is issued from the host but writes device memory.
                self.mem
                    .fill(p.space, p.space, p.buffer, p.offset, len, fill)
                    .map_err(Interrupt::from)?;
                Ok(Value::Int(0))
            }
            Builtin::CudaFree => {
                if let Value::Ptr(p) = arg(0) {
                    self.mem.free(p.space, p.buffer).map_err(Interrupt::from)?;
                }
                Ok(Value::Int(0))
            }
            Builtin::CudaSuccess => Ok(Value::Int(0)),
            Builtin::CudaGetErrorString => Ok(Value::Str("no error".into())),
            Builtin::AtomicAdd => {
                let Value::Ptr(p) = arg(0) else {
                    return Err(type_err("atomicAdd requires a pointer").into());
                };
                self.mem
                    .fetch_add(frame.space, p.space, p.buffer, p.offset, &arg(1))
                    .map_err(Interrupt::from)
            }
            Builtin::Unknown(name) => {
                Err(type_err(format!("call to unknown function '{name}' at run time")).into())
            }
        }
    }

    /// `cudaMalloc(&ptr, bytes)`: allocates a device buffer typed from the
    /// declared pointee of the destination pointer variable.
    fn cuda_malloc(
        &self,
        frame: &mut Frame,
        dst: Option<&(PlaceFn, Type)>,
        size: &ExprFn,
    ) -> IResult<Value> {
        let bytes = size(self, frame)?
            .as_int()
            .filter(|n| *n >= 0)
            .ok_or_else(|| type_err("cudaMalloc size must be a non-negative integer"))?
            as usize;
        // Destination must be `&var` or `&expr-place` holding a pointer.
        let Some((dst, elem)) = dst else {
            return Err(type_err("cudaMalloc first argument must be &pointer").into());
        };
        let place = dst(self, frame)?;
        let len = bytes / self.sizeof(elem).max(1);
        let buf = self.alloc_zeroed(Space::Device, elem.clone(), len);
        self.write_place(
            frame,
            &place,
            Value::Ptr(Pointer {
                space: Space::Device,
                buffer: buf,
                offset: 0,
            }),
        )?;
        Ok(Value::Int(0))
    }

    // -- cuRAND ----------------------------------------------------------

    fn rng_place(&self, frame: &mut Frame, state: &RngState) -> IResult<Place> {
        // The state argument is `&states[i]` or a curandState* value.
        match state {
            RngState::Place(place) => place(self, frame),
            RngState::Pointer(e) => match e(self, frame)? {
                Value::Ptr(p) => Ok(Place::Mem {
                    space: p.space,
                    buffer: p.buffer,
                    index: p.offset,
                }),
                other => Err(type_err(format!(
                    "curand state must be a pointer, got {}",
                    other.type_name()
                ))
                .into()),
            },
        }
    }

    fn curand_init(&self, frame: &mut Frame, args: &[ExprFn], state: &RngState) -> IResult<Value> {
        let seed = args[0](self, frame)?.as_int().unwrap_or(0) as u64;
        let seq = args[1](self, frame)?.as_int().unwrap_or(0) as u64;
        let offset = args[2](self, frame)?.as_int().unwrap_or(0) as u64;
        let place = self.rng_place(frame, state)?;
        let state = splitmix(seed ^ seq.wrapping_mul(0x9E3779B97F4A7C15) ^ offset);
        let layout = self
            .layout("curandState")
            .expect("the resolve pass defines curandState");
        let value = Value::Struct(Box::new(StructVal {
            name: layout.name.clone(),
            fields: vec![Value::Int(state as i64)],
        }));
        self.write_place(frame, &place, value)?;
        Ok(Value::Void)
    }

    fn curand_next(&self, frame: &mut Frame, state: &RngState, int: bool) -> IResult<Value> {
        let place = self.rng_place(frame, state)?;
        let current = self.read_place(frame, &place)?;
        let Value::Struct(mut s) = current else {
            return Err(type_err("curand state is not initialised").into());
        };
        let state = s.fields.first().and_then(Value::as_int).unwrap_or(1) as u64;
        let next = splitmix(state);
        s.fields[0] = Value::Int(next as i64);
        self.write_place(frame, &place, Value::Struct(s))?;
        let out = if int {
            Value::Int((next >> 32) as i64)
        } else {
            // (0, 1], like cuRAND.
            Value::Float(((next >> 11) as f64 + 1.0) / (1u64 << 53) as f64)
        };
        Ok(out)
    }

    // -- CUDA kernel launch ------------------------------------------------

    fn cuda_launch(&self, frame: &mut Frame, launch: &Launch) -> IResult<Value> {
        let to_dim3 = |v: Value| -> IResult<Dim3> {
            match v {
                Value::Dim3(d) => Ok(d),
                Value::Int(n) if n >= 0 => Ok(Dim3::scalar(n as u32)),
                other => Err(type_err(format!(
                    "launch configuration must be int or dim3, got {}",
                    other.type_name()
                ))
                .into()),
            }
        };
        let grid = to_dim3((launch.grid)(self, frame)?)?;
        let block = to_dim3((launch.block)(self, frame)?)?;
        let f = match &launch.kernel {
            Ok(f) => &self.prog.functions[*f as usize],
            Err(kernel) => return Err(type_err(format!("kernel '{kernel}' not found")).into()),
        };
        let mut values = Vec::with_capacity(launch.args.len());
        for a in &launch.args {
            values.push(a(self, frame)?);
        }
        let total = grid.count() * block.count();
        self.record_device_region(total);
        self.mem.detector.begin_kernel();

        let threads_per_block = block.count();
        for logical in 0..total {
            let b = logical / threads_per_block;
            let t = logical % threads_per_block;
            let block_idx = Dim3 {
                x: (b % grid.x as u64) as u32,
                y: (b / grid.x as u64 % grid.y as u64) as u32,
                z: (b / (grid.x as u64 * grid.y as u64)) as u32,
            };
            let thread_idx = Dim3 {
                x: (t % block.x as u64) as u32,
                y: (t / block.x as u64 % block.y as u64) as u32,
                z: (t / (block.x as u64 * block.y as u64)) as u32,
            };
            let mut kframe = Frame::new(&f.vars, frame, frame.depth);
            kframe.slots = self.slots(f.vars.len());
            kframe.space = Space::Device;
            kframe.thread = logical;
            kframe.cuda = Some(CudaCtx {
                thread_idx,
                block_idx,
                block_dim: block,
                grid_dim: grid,
            });
            for (slot, v) in kframe.slots[..f.params].iter_mut().zip(&values) {
                *slot = v.clone();
            }
            self.coerce_params(&mut kframe, f.params.min(values.len()));
            let body = f
                .body
                .as_ref()
                .ok_or_else(|| type_err(format!("kernel '{}' has no definition", f.name)))?;
            self.exec_block(&mut kframe, body)?;
            self.recycle(kframe.slots);
        }
        Ok(Value::Void)
    }

    // -- Kokkos -------------------------------------------------------------

    fn eval_kokkos(
        &self,
        frame: &mut Frame,
        k: &Kokkos,
        args: &[ExprFn],
        result: &Option<PlaceFn>,
    ) -> IResult<Value> {
        match k {
            Kokkos::Initialize => {
                self.kokkos_initialized.set(true);
                Ok(Value::Void)
            }
            Kokkos::Finalize => {
                self.kokkos_initialized.set(false);
                Ok(Value::Void)
            }
            Kokkos::Fence => Ok(Value::Void),
            Kokkos::RangePolicy => {
                // Semantic analysis does not count these arguments.
                let [lo, hi, ..] = args else {
                    return Err(type_err("MiniHPC RangePolicy takes (lo, hi)").into());
                };
                let lo = lo(self, frame)?.as_int().unwrap_or(0);
                let hi = hi(self, frame)?.as_int().unwrap_or(0);
                Ok(Value::Policy(Policy::Range { lo, hi }))
            }
            Kokkos::MDRangePolicy => {
                // `MDRangePolicy<Rank<2>>({l0, l1}, {h0, h1})` is written in
                // MiniHPC as MDRangePolicy(l0, l1, h0, h1).
                if args.len() != 4 {
                    return Err(type_err("MiniHPC MDRangePolicy takes (lo0, lo1, hi0, hi1)").into());
                }
                let mut v = [0i64; 4];
                for (i, a) in args.iter().enumerate() {
                    v[i] = a(self, frame)?.as_int().unwrap_or(0);
                }
                Ok(Value::Policy(Policy::MDRange {
                    lo: [v[0], v[1]],
                    hi: [v[2], v[3]],
                }))
            }
            Kokkos::DeepCopy => {
                // Accepts (View, View), and — modelling Kokkos unmanaged
                // host views wrapping raw pointers — (View, host ptr) or
                // (host ptr, View), with the view's length.
                let a = args[0](self, frame)?;
                let b = args[1](self, frame)?;
                let (dst_space, dst_buf, dst_off, src_space, src_buf, src_off, len) = match (&a, &b)
                {
                    (Value::View(d), Value::View(s)) => (
                        d.space,
                        d.buffer,
                        0,
                        s.space,
                        s.buffer,
                        0,
                        d.len().min(s.len()),
                    ),
                    (Value::View(d), Value::Ptr(p)) if p.space == Space::Host => {
                        (d.space, d.buffer, 0, p.space, p.buffer, p.offset, d.len())
                    }
                    (Value::Ptr(p), Value::View(s)) if p.space == Space::Host => {
                        (p.space, p.buffer, p.offset, s.space, s.buffer, 0, s.len())
                    }
                    _ => {
                        return Err(type_err(
                            "deep_copy requires views (or a view and a host pointer)",
                        )
                        .into())
                    }
                };
                self.mem
                    .copy(
                        dst_space, dst_buf, dst_off, src_space, src_buf, src_off, len,
                    )
                    .map_err(Interrupt::from)?;
                Ok(Value::Void)
            }
            Kokkos::CreateMirrorView => {
                let Value::View(v) = args[0](self, frame)? else {
                    return Err(type_err("create_mirror_view requires a view").into());
                };
                let buf = self.alloc_zeroed(Space::Host, Type::Scalar(v.elem), v.len());
                Ok(Value::View(ViewHandle {
                    space: Space::Host,
                    buffer: buf,
                    ..v
                }))
            }
            Kokkos::Parallel { reduce, label } => {
                let rest = &args[usize::from(*label)..];
                self.kokkos_parallel(frame, *reduce, rest, result)
            }
            Kokkos::Unsupported(other) => {
                Err(type_err(format!("unsupported Kokkos function '{other}'")).into())
            }
        }
    }

    /// `parallel_for(policy, lambda)` or `parallel_reduce(policy, lambda,
    /// result)`, label already skipped.
    fn kokkos_parallel(
        &self,
        frame: &mut Frame,
        reduce: bool,
        rest: &[ExprFn],
        result: &Option<PlaceFn>,
    ) -> IResult<Value> {
        let which = if reduce {
            "parallel_reduce"
        } else {
            "parallel_for"
        };
        if !self.kokkos_initialized.get() {
            return Err(type_err(format!(
                "Kokkos::{which} called before Kokkos::initialize()"
            ))
            .into());
        }
        let policy = match rest[0](self, frame)? {
            Value::Policy(p) => p,
            Value::Int(n) => Policy::Range { lo: 0, hi: n },
            other => {
                return Err(type_err(format!(
                    "Kokkos::{which} policy must be an int or policy, got {}",
                    other.type_name()
                ))
                .into())
            }
        };
        let Value::Lambda(closure) = rest[1](self, frame)? else {
            return Err(type_err(format!("Kokkos::{which} requires a lambda")).into());
        };
        let lambda = &*closure.lambda;

        // A range is a rank-2 range whose second extent is 1.
        let extent = |lo: i64, hi: i64| (hi - lo).max(0) as u64;
        let (rank, lo, n) = match policy {
            Policy::Range { lo, hi } => (1, [lo, 0], [extent(lo, hi), 1]),
            Policy::MDRange { lo, hi } => (2, lo, [extent(lo[0], hi[0]), extent(lo[1], hi[1])]),
        };
        let total = n[0] * n[1];
        let to_indices = |i: u64| [lo[0] + (i / n[1]) as i64, lo[1] + (i % n[1]) as i64];
        self.record_device_region(total);
        self.mem.detector.begin_kernel();

        // One frame per index: the captures, then the index parameters.
        let index_frame = |logical: u64, index_params: usize| -> Frame {
            let mut kframe = Frame::new(&lambda.vars, frame, frame.depth);
            kframe.slots = self.slots(lambda.vars.len());
            kframe.space = Space::Device;
            kframe.thread = logical;
            kframe.cuda = None;
            for ((_, slot), v) in lambda.captures.iter().zip(&closure.captures) {
                kframe.slots[*slot as usize] = v.clone();
            }
            let indices = to_indices(logical);
            for (slot, idx) in kframe.slots[..index_params.min(rank)]
                .iter_mut()
                .zip(indices)
            {
                *slot = Value::Int(idx);
            }
            kframe
        };

        if !reduce {
            for logical in 0..total {
                let mut kframe = index_frame(logical, lambda.params);
                self.exec_block(&mut kframe, &lambda.body)?;
                self.recycle(kframe.slots);
            }
            return Ok(Value::Void);
        }

        // parallel_reduce: the final lambda parameter is the accumulator;
        // the third argument receives the combined result.
        if lambda.params < 2 {
            return Err(
                type_err("parallel_reduce lambda must take (index..., accumulator&)").into(),
            );
        }
        let Some(result) = result else {
            return Err(type_err("parallel_reduce requires a result argument").into());
        };
        let acc_slot = lambda.params - 1;

        let mut acc = Value::Float(0.0);
        for logical in 0..total {
            let mut kframe = index_frame(logical, acc_slot);
            kframe.slots[acc_slot] = acc;
            self.exec_block(&mut kframe, &lambda.body)?;
            acc = std::mem::take(&mut kframe.slots[acc_slot]);
            self.recycle(kframe.slots);
        }
        let place = result(self, frame)?;
        self.write_place(frame, &place, acc)?;
        Ok(Value::Void)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Abramowitz–Stegun erf approximation (for SimpleMOC-style kernels).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}
