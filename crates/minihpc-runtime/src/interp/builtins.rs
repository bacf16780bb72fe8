//! Builtin function dispatch: libc, libm, the CUDA runtime API, cuRAND, and
//! the Kokkos core API.

use super::expr::Place;
use super::*;

impl<'e> Interp<'e> {
    pub(super) fn eval_call(
        &self,
        frame: &mut Frame,
        callee: &Expr,
        args: &[Expr],
    ) -> IResult<Value> {
        match &callee.kind {
            ExprKind::Ident(name) => {
                // Kokkos view element read: `v(i, j)`.
                if let Some(Value::View(h)) = frame.get(name).cloned() {
                    let place = self.view_place(frame, &h, args)?;
                    return self.read_place(frame, &place);
                }
                // Out-parameter builtins get the raw arg expressions.
                match name.as_str() {
                    "cudaMalloc" => return self.cuda_malloc(frame, args),
                    "curand_init" => return self.curand_init(frame, args),
                    "curand" | "curand_uniform" | "curand_uniform_double" => {
                        return self.curand_next(frame, name, args)
                    }
                    _ => {}
                }
                // User function?
                if let Some(f) = self.exe.functions.get(name.as_str()) {
                    if f.quals.cuda_global && frame.cuda.is_none() {
                        return Err(type_err(format!(
                            "__global__ function '{name}' called without a launch"
                        ))
                        .into());
                    }
                    let mut values = Vec::with_capacity(args.len());
                    for a in args {
                        values.push(self.eval(frame, a)?);
                    }
                    return self.call_function(frame, f, values);
                }
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(frame, a)?);
                }
                self.call_host_builtin(frame, name, values, args)
            }
            ExprKind::Member { base, member, .. } => {
                // View method calls.
                let bv = self.eval(frame, base)?;
                if let Value::View(h) = bv {
                    match member.as_str() {
                        "extent" => {
                            let i = args
                                .first()
                                .map(|a| self.eval(frame, a))
                                .transpose()?
                                .and_then(|v| v.as_int())
                                .unwrap_or(0);
                            let d = h.dims.get(i as usize).copied().unwrap_or(1);
                            return Ok(Value::Int(d as i64));
                        }
                        other => {
                            return Err(
                                type_err(format!("unsupported view method '{other}'")).into()
                            )
                        }
                    }
                }
                Err(type_err("method calls are only supported on Kokkos views").into())
            }
            ExprKind::Path(segments) => self.eval_kokkos(frame, segments, args),
            _ => Err(type_err("unsupported call target").into()),
        }
    }

    fn call_host_builtin(
        &self,
        frame: &mut Frame,
        name: &str,
        values: Vec<Value>,
        arg_exprs: &[Expr],
    ) -> IResult<Value> {
        let int = |v: &Value| v.as_int().unwrap_or(0);
        let flt = |v: &Value| v.as_float().unwrap_or(0.0);
        let arg = |i: usize| values.get(i).cloned().unwrap_or(Value::Int(0));
        match name {
            "printf" => {
                let Some(Value::Str(fmt)) = values.first() else {
                    return Err(type_err("printf requires a format string").into());
                };
                let text = printf(fmt, &values[1..]);
                self.out.borrow_mut().push_str(&text);
                Ok(Value::Int(text.len() as i64))
            }
            "fprintf" => {
                let Some(Value::Str(fmt)) = values.get(1) else {
                    return Err(type_err("fprintf requires a format string").into());
                };
                let text = printf(fmt, &values[2..]);
                self.out.borrow_mut().push_str(&text);
                Ok(Value::Int(text.len() as i64))
            }
            "malloc" => Ok(Value::UntypedAlloc {
                bytes: int(&arg(0)).max(0) as usize,
            }),
            "calloc" => Ok(Value::UntypedAlloc {
                bytes: (int(&arg(0)).max(0) * int(&arg(1)).max(0)) as usize,
            }),
            "free" => {
                match arg(0) {
                    Value::Ptr(p) => self.mem.free(p.space, p.buffer).map_err(Interrupt::Rt)?,
                    Value::Null | Value::UntypedAlloc { .. } => {}
                    other => return Err(type_err(format!("free of {}", other.type_name())).into()),
                }
                Ok(Value::Void)
            }
            "memset" => {
                let Value::Ptr(p) = arg(0) else {
                    return Err(type_err("memset requires a pointer").into());
                };
                let byte = int(&arg(1));
                let bytes = int(&arg(2)).max(0) as usize;
                let elem = self
                    .mem
                    .elem_type(p.space, p.buffer)
                    .map_err(Interrupt::Rt)?;
                let len = bytes / self.sizeof(&elem).max(1);
                let fill = if byte == 0 {
                    self.zero_of(&elem)
                } else {
                    Value::Int(byte)
                };
                self.mem
                    .fill(frame.space, p.space, p.buffer, p.offset, len, fill)
                    .map_err(Interrupt::Rt)?;
                Ok(arg(0))
            }
            "memcpy" => {
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
                    .map_err(Interrupt::Rt)?;
                let len = bytes / self.sizeof(&elem).max(1);
                self.mem
                    .copy(
                        d.space, d.buffer, d.offset, s.space, s.buffer, s.offset, len,
                    )
                    .map_err(Interrupt::Rt)?;
                Ok(arg(0))
            }
            "strcmp" => {
                let (Value::Str(a), Value::Str(b)) = (arg(0), arg(1)) else {
                    return Err(type_err("strcmp requires strings").into());
                };
                Ok(Value::Int(match a.cmp(&b) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                }))
            }
            "atoi" | "atol" => match arg(0) {
                Value::Str(s) => Ok(Value::Int(s.trim().parse().unwrap_or(0))),
                other => Err(type_err(format!("atoi of {}", other.type_name())).into()),
            },
            "atof" => match arg(0) {
                Value::Str(s) => Ok(Value::Float(s.trim().parse().unwrap_or(0.0))),
                other => Err(type_err(format!("atof of {}", other.type_name())).into()),
            },
            "exit" => Err(Interrupt::Exit(int(&arg(0)))),
            "abs" | "labs" => Ok(Value::Int(int(&arg(0)).abs())),
            "min" => Ok(Value::Int(int(&arg(0)).min(int(&arg(1))))),
            "max" => Ok(Value::Int(int(&arg(0)).max(int(&arg(1))))),
            "rand" => {
                let s = self
                    .rng
                    .get()
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                self.rng.set(s);
                Ok(Value::Int(((s >> 33) & 0x7FFF_FFFF) as i64))
            }
            "srand" => {
                self.rng.set(int(&arg(0)) as u64 | 1);
                Ok(Value::Void)
            }
            "assert" => {
                if !arg(0).truthy() {
                    let text = arg_exprs
                        .first()
                        .map(minihpc_lang::printer::print_expr)
                        .unwrap_or_default();
                    return Err(type_err(format!("assertion failed: {text}")).into());
                }
                Ok(Value::Void)
            }
            "omp_get_wtime" => {
                let t = self.clock.get() + 1e-6;
                self.clock.set(t);
                Ok(Value::Float(t))
            }
            "omp_get_num_threads" | "omp_get_max_threads" => {
                Ok(Value::Int(self.config.workers as i64))
            }
            "omp_get_thread_num" => Ok(Value::Int(0)),
            "omp_get_num_devices" => Ok(Value::Int(1)),
            "omp_is_initial_device" => Ok(Value::Int(i64::from(frame.space == Space::Host))),
            "omp_set_num_threads" => Ok(Value::Void),
            // libm --------------------------------------------------------
            "sqrt" | "sqrtf" => Ok(Value::Float(flt(&arg(0)).sqrt())),
            "fabs" | "fabsf" => Ok(Value::Float(flt(&arg(0)).abs())),
            "exp" | "expf" => Ok(Value::Float(flt(&arg(0)).exp())),
            "log" | "logf" => Ok(Value::Float(flt(&arg(0)).ln())),
            "log2" | "log2f" => Ok(Value::Float(flt(&arg(0)).log2())),
            "floor" | "floorf" => Ok(Value::Float(flt(&arg(0)).floor())),
            "ceil" | "ceilf" => Ok(Value::Float(flt(&arg(0)).ceil())),
            "sin" | "sinf" => Ok(Value::Float(flt(&arg(0)).sin())),
            "cos" | "cosf" => Ok(Value::Float(flt(&arg(0)).cos())),
            "tanh" | "tanhf" => Ok(Value::Float(flt(&arg(0)).tanh())),
            "coshf" => Ok(Value::Float(flt(&arg(0)).cosh())),
            "erf" | "erff" => Ok(Value::Float(erf(flt(&arg(0))))),
            "pow" | "powf" => Ok(Value::Float(flt(&arg(0)).powf(flt(&arg(1))))),
            "fmax" | "fmaxf" => Ok(Value::Float(flt(&arg(0)).max(flt(&arg(1))))),
            "fmin" | "fminf" => Ok(Value::Float(flt(&arg(0)).min(flt(&arg(1))))),
            "fmod" => Ok(Value::Float(flt(&arg(0)) % flt(&arg(1)))),
            // CUDA runtime API ---------------------------------------------
            "cudaMemcpy" => {
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
                    .map_err(Interrupt::Rt)?;
                let len = bytes / self.sizeof(&elem).max(1);
                self.mem
                    .copy(
                        d.space, d.buffer, d.offset, s.space, s.buffer, s.offset, len,
                    )
                    .map_err(Interrupt::Rt)?;
                Ok(Value::Int(0))
            }
            "cudaMemset" => {
                let Value::Ptr(p) = arg(0) else {
                    return Err(type_err("cudaMemset requires a device pointer").into());
                };
                let bytes = int(&arg(2)).max(0) as usize;
                let elem = self
                    .mem
                    .elem_type(p.space, p.buffer)
                    .map_err(Interrupt::Rt)?;
                let len = bytes / self.sizeof(&elem).max(1);
                let fill = self.zero_of(&elem);
                // cudaMemset is issued from the host but writes device memory.
                self.mem
                    .fill(p.space, p.space, p.buffer, p.offset, len, fill)
                    .map_err(Interrupt::Rt)?;
                Ok(Value::Int(0))
            }
            "cudaFree" => {
                if let Value::Ptr(p) = arg(0) {
                    self.mem.free(p.space, p.buffer).map_err(Interrupt::Rt)?;
                }
                Ok(Value::Int(0))
            }
            "cudaDeviceSynchronize" | "cudaGetLastError" => Ok(Value::Int(0)),
            "cudaGetErrorString" => Ok(Value::Str("no error".into())),
            "atomicAdd" => {
                let Value::Ptr(p) = arg(0) else {
                    return Err(type_err("atomicAdd requires a pointer").into());
                };
                self.mem
                    .fetch_add(frame.space, p.space, p.buffer, p.offset, &arg(1))
                    .map_err(Interrupt::Rt)
            }
            other => {
                Err(type_err(format!("call to unknown function '{other}' at run time")).into())
            }
        }
    }

    /// `cudaMalloc(&ptr, bytes)`: allocates a device buffer typed from the
    /// declared pointee of the destination pointer variable.
    fn cuda_malloc(&self, frame: &mut Frame, args: &[Expr]) -> IResult<Value> {
        let [dst, size] = args else {
            return Err(type_err("cudaMalloc expects (&ptr, bytes)").into());
        };
        let bytes = self
            .eval(frame, size)?
            .as_int()
            .filter(|n| *n >= 0)
            .ok_or_else(|| type_err("cudaMalloc size must be a non-negative integer"))?
            as usize;
        // Destination must be `&var` or `&expr-place` holding a pointer.
        let inner = match &dst.kind {
            ExprKind::Unary {
                op: UnaryOp::AddrOf,
                expr,
            } => expr,
            ExprKind::Cast { expr, .. } => match &expr.kind {
                ExprKind::Unary {
                    op: UnaryOp::AddrOf,
                    expr,
                } => expr,
                _ => return Err(type_err("cudaMalloc first argument must be &pointer").into()),
            },
            _ => return Err(type_err("cudaMalloc first argument must be &pointer").into()),
        };
        let place = self.resolve_place(frame, inner)?;
        let elem = self
            .static_type_of_place(frame, inner)
            .and_then(|t| t.pointee().cloned())
            .unwrap_or(Type::Scalar(ScalarType::Double));
        let len = bytes / self.sizeof(&elem).max(1);
        let buf = self.alloc_zeroed(Space::Device, elem, len);
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

    /// Best-effort static type of an lvalue expression (for allocation
    /// typing).
    fn static_type_of_place(&self, frame: &Frame, e: &Expr) -> Option<Type> {
        match &e.kind {
            ExprKind::Ident(name) => frame
                .types
                .get(name)
                .or_else(|| self.global_types.get(name))
                .cloned(),
            ExprKind::Paren(inner) => self.static_type_of_place(frame, inner),
            ExprKind::Member { base, member, .. } => {
                let base_ty = self.static_type_of_place(frame, base)?;
                let name = match base_ty.unqualified() {
                    Type::Named(n) => n.clone(),
                    Type::Ptr(inner) => match inner.unqualified() {
                        Type::Named(n) => n.clone(),
                        _ => return None,
                    },
                    _ => return None,
                };
                self.layouts
                    .get(&name)?
                    .fields
                    .iter()
                    .find(|(f, _)| f == member)
                    .map(|(_, t)| t.clone())
            }
            ExprKind::Index { base, .. } => {
                let base_ty = self.static_type_of_place(frame, base)?;
                base_ty.pointee().cloned()
            }
            ExprKind::Unary {
                op: UnaryOp::Deref,
                expr,
            } => {
                let t = self.static_type_of_place(frame, expr)?;
                t.pointee().cloned()
            }
            _ => None,
        }
    }

    // -- cuRAND ----------------------------------------------------------

    fn rng_place(&self, frame: &mut Frame, e: &Expr) -> IResult<Place> {
        // The state argument is `&states[i]` or a curandState* value.
        match &e.kind {
            ExprKind::Unary {
                op: UnaryOp::AddrOf,
                expr,
            } => self.resolve_place(frame, expr),
            _ => match self.eval(frame, e)? {
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

    fn curand_init(&self, frame: &mut Frame, args: &[Expr]) -> IResult<Value> {
        if args.len() != 4 {
            return Err(type_err("curand_init expects 4 arguments").into());
        }
        let seed = self.eval(frame, &args[0])?.as_int().unwrap_or(0) as u64;
        let seq = self.eval(frame, &args[1])?.as_int().unwrap_or(0) as u64;
        let offset = self.eval(frame, &args[2])?.as_int().unwrap_or(0) as u64;
        let place = self.rng_place(frame, &args[3])?;
        let state = splitmix(seed ^ seq.wrapping_mul(0x9E3779B97F4A7C15) ^ offset);
        self.write_place(
            frame,
            &place,
            Value::Struct(Box::new(StructVal {
                name: "curandState".into(),
                fields: vec![Value::Int(state as i64)],
            })),
        )?;
        Ok(Value::Void)
    }

    fn curand_next(&self, frame: &mut Frame, which: &str, args: &[Expr]) -> IResult<Value> {
        let place = self.rng_place(
            frame,
            args.first()
                .ok_or_else(|| type_err("curand expects a state pointer"))?,
        )?;
        let current = self.read_place(frame, &place)?;
        let Value::Struct(mut s) = current else {
            return Err(type_err("curand state is not initialised").into());
        };
        let state = s.fields.first().and_then(Value::as_int).unwrap_or(1) as u64;
        let next = splitmix(state);
        s.fields[0] = Value::Int(next as i64);
        self.write_place(frame, &place, Value::Struct(s))?;
        let out = match which {
            "curand" => Value::Int((next >> 32) as i64),
            // (0, 1], like cuRAND.
            _ => Value::Float(((next >> 11) as f64 + 1.0) / (1u64 << 53) as f64),
        };
        Ok(out)
    }

    // -- CUDA kernel launch ------------------------------------------------

    pub(super) fn cuda_launch(
        &self,
        frame: &mut Frame,
        kernel: &str,
        grid: &Expr,
        block: &Expr,
        args: &[Expr],
    ) -> IResult<Value> {
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
        let grid = to_dim3(self.eval(frame, grid)?)?;
        let block = to_dim3(self.eval(frame, block)?)?;
        let f = self
            .exe
            .functions
            .get(kernel)
            .ok_or_else(|| type_err(format!("kernel '{kernel}' not found")))?;
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval(frame, a)?);
        }
        let total = grid.count() * block.count();
        self.record_device_region(total);
        self.mem.detector.begin_kernel();

        let depth = frame.depth;
        let threads_per_block = block.count();
        let make_frame = |logical: u64| -> Frame {
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
            Frame {
                scopes: vec![HashMap::new()],
                types: HashMap::new(),
                space: Space::Device,
                thread: logical,
                cuda: Some(CudaCtx {
                    thread_idx,
                    block_idx,
                    block_dim: block,
                    grid_dim: grid,
                }),
                depth,
                watch: None,
                watch_scopes: 0,
            }
        };

        for logical in 0..total {
            let mut kframe = make_frame(logical);
            for (p, v) in f.params.iter().zip(values.iter().cloned()) {
                let v = self.coerce(v, &p.ty)?;
                kframe.declare(&p.name, v, Some(p.ty.clone()));
            }
            let body = f
                .body
                .as_ref()
                .ok_or_else(|| type_err(format!("kernel '{kernel}' has no definition")))?;
            self.exec_block(&mut kframe, body)?;
        }
        Ok(Value::Void)
    }

    // -- Kokkos -------------------------------------------------------------

    fn eval_kokkos(&self, frame: &mut Frame, segments: &[String], args: &[Expr]) -> IResult<Value> {
        if segments.first().map(String::as_str) != Some("Kokkos") {
            return Err(type_err(format!("unknown namespace '{}'", segments.join("::"))).into());
        }
        let func = segments.get(1).map(String::as_str).unwrap_or("");
        let base = func.split('<').next().unwrap_or(func);
        match base {
            "initialize" => {
                self.kokkos_initialized.set(true);
                Ok(Value::Void)
            }
            "finalize" => {
                self.kokkos_initialized.set(false);
                Ok(Value::Void)
            }
            "fence" => Ok(Value::Void),
            "RangePolicy" => {
                let lo = self.eval(frame, &args[0])?.as_int().unwrap_or(0);
                let hi = self.eval(frame, &args[1])?.as_int().unwrap_or(0);
                Ok(Value::Policy(Policy::Range { lo, hi }))
            }
            "MDRangePolicy" => {
                // `MDRangePolicy<Rank<2>>({l0, l1}, {h0, h1})` is written in
                // MiniHPC as MDRangePolicy(l0, l1, h0, h1).
                if args.len() != 4 {
                    return Err(type_err("MiniHPC MDRangePolicy takes (lo0, lo1, hi0, hi1)").into());
                }
                let mut v = [0i64; 4];
                for (i, a) in args.iter().enumerate() {
                    v[i] = self.eval(frame, a)?.as_int().unwrap_or(0);
                }
                Ok(Value::Policy(Policy::MDRange {
                    lo: [v[0], v[1]],
                    hi: [v[2], v[3]],
                }))
            }
            "deep_copy" => {
                // Accepts (View, View), and — modelling Kokkos unmanaged
                // host views wrapping raw pointers — (View, host ptr) or
                // (host ptr, View), with the view's length.
                let a = self.eval(frame, &args[0])?;
                let b = self.eval(frame, &args[1])?;
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
                    .map_err(Interrupt::Rt)?;
                Ok(Value::Void)
            }
            "create_mirror_view" => {
                let Value::View(v) = self.eval(frame, &args[0])? else {
                    return Err(type_err("create_mirror_view requires a view").into());
                };
                let buf = self.alloc_zeroed(Space::Host, Type::Scalar(v.elem), v.len());
                Ok(Value::View(ViewHandle {
                    space: Space::Host,
                    buffer: buf,
                    ..v
                }))
            }
            "parallel_for" | "parallel_reduce" => self.kokkos_parallel(frame, base, args),
            other => Err(type_err(format!("unsupported Kokkos function '{other}'")).into()),
        }
    }

    fn kokkos_parallel(&self, frame: &mut Frame, which: &str, args: &[Expr]) -> IResult<Value> {
        if !self.kokkos_initialized.get() {
            return Err(type_err(format!(
                "Kokkos::{which} called before Kokkos::initialize()"
            ))
            .into());
        }
        // Optional label first.
        let mut rest = args;
        if matches!(rest.first().map(|a| &a.kind), Some(ExprKind::StrLit(_))) {
            rest = &rest[1..];
        }
        let policy = match self.eval(frame, &rest[0])? {
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
        let Value::Lambda(closure) = self.eval(frame, &rest[1])? else {
            return Err(type_err(format!("Kokkos::{which} requires a lambda")).into());
        };

        let (total, to_indices): (u64, Box<dyn Fn(u64) -> Vec<i64>>) = match policy {
            Policy::Range { lo, hi } => {
                let n = (hi - lo).max(0) as u64;
                (n, Box::new(move |i| vec![lo + i as i64]))
            }
            Policy::MDRange { lo, hi } => {
                let n0 = (hi[0] - lo[0]).max(0) as u64;
                let n1 = (hi[1] - lo[1]).max(0) as u64;
                (
                    n0 * n1,
                    Box::new(move |i| vec![lo[0] + (i / n1) as i64, lo[1] + (i % n1) as i64]),
                )
            }
        };
        self.record_device_region(total);
        self.mem.detector.begin_kernel();
        let depth = frame.depth;

        if which == "parallel_for" {
            for logical in 0..total {
                let indices = to_indices(logical);
                let mut kframe = Frame {
                    scopes: vec![closure.captures.iter().cloned().collect(), HashMap::new()],
                    types: HashMap::new(),
                    space: Space::Device,
                    thread: logical,
                    cuda: None,
                    depth,
                    watch: None,
                    watch_scopes: 0,
                };
                for (p, idx) in closure.params.iter().zip(indices) {
                    kframe.declare(&p.name, Value::Int(idx), Some(p.ty.clone()));
                }
                self.exec_block(&mut kframe, &closure.body)?;
            }
            return Ok(Value::Void);
        }

        // parallel_reduce: the final lambda parameter is the accumulator;
        // the third argument receives the combined result.
        if closure.params.len() < 2 {
            return Err(
                type_err("parallel_reduce lambda must take (index..., accumulator&)").into(),
            );
        }
        if rest.len() < 3 {
            return Err(type_err("parallel_reduce requires a result argument").into());
        }
        let acc_param = closure.params.last().unwrap().clone();
        let index_params = &closure.params[..closure.params.len() - 1];

        let mut acc = Value::Float(0.0);
        for logical in 0..total {
            let indices = to_indices(logical);
            let mut kframe = Frame {
                scopes: vec![closure.captures.iter().cloned().collect(), HashMap::new()],
                types: HashMap::new(),
                space: Space::Device,
                thread: logical,
                cuda: None,
                depth,
                watch: None,
                watch_scopes: 0,
            };
            for (p, idx) in index_params.iter().zip(indices) {
                kframe.declare(&p.name, Value::Int(idx), Some(p.ty.clone()));
            }
            kframe.declare(&acc_param.name, acc.clone(), Some(acc_param.ty.clone()));
            self.exec_block(&mut kframe, &closure.body)?;
            acc = kframe
                .get(&acc_param.name)
                .cloned()
                .unwrap_or(Value::Float(0.0));
        }
        let place = self.resolve_place(frame, &rest[2])?;
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
