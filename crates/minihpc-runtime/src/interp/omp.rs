//! OpenMP directive execution: host `parallel for`, `target data` mapping,
//! and `target teams distribute parallel for` offload loops.

use super::*;
use minihpc_lang::pragma::ArraySection;

/// A mapping established by a `map(...)` clause for the extent of a region.
struct Mapping {
    var: String,
    host: Pointer,
    device_buffer: usize,
    lo: usize,
    len: usize,
    kind: MapKind,
    /// True when the variable was already device-mapped by an enclosing
    /// region (present-table hit): no transfer, no rebinding restore needed.
    preexisting: bool,
}

impl<'e> Interp<'e> {
    pub(super) fn exec_omp(
        &self,
        frame: &mut Frame,
        d: &OmpDirective,
        body: Option<&Stmt>,
    ) -> IResult<Flow> {
        if d.is_standalone() {
            return Ok(Flow::Normal);
        }
        let Some(body) = body else {
            return Ok(Flow::Normal);
        };
        // Without -fopenmp the pragma was warned about at compile time and
        // is ignored: the body executes as plain serial code.
        if !self.exe.features.openmp {
            return self.exec_stmt(frame, body);
        }

        let is_target = d.targets_device();
        // Establish map-clause mappings (target constructs only; `map` on a
        // host directive was a compile-time warning and is a no-op here).
        let mappings = if is_target {
            self.enter_mappings(frame, d)?
        } else {
            vec![]
        };
        // Mapped variables are rebound inside a fresh scope.
        frame.scopes.push(HashMap::new());
        for m in &mappings {
            if !m.preexisting {
                frame.scopes.last_mut().unwrap().insert(
                    m.var.clone(),
                    Value::Ptr(Pointer {
                        space: Space::Device,
                        buffer: m.device_buffer,
                        offset: 0,
                    }),
                );
            }
        }

        let result = self.exec_omp_inner(frame, d, body, is_target);

        frame.scopes.pop();
        // Copy back and release the mappings even on error paths? On error
        // the run is abandoned, so ordering does not matter; on success we
        // must copy back.
        if result.is_ok() {
            self.exit_mappings(&mappings)?;
        }
        result
    }

    fn exec_omp_inner(
        &self,
        frame: &mut Frame,
        d: &OmpDirective,
        body: &Stmt,
        is_target: bool,
    ) -> IResult<Flow> {
        // `target data` and plain region constructs: execute the body with
        // the mappings in place. `target data` itself stays on the host;
        // a bare `target` region moves execution to the device.
        if !d.is_loop_directive() {
            if d.has(OmpConstruct::TargetData) {
                return self.exec_stmt(frame, body);
            }
            if d.has(OmpConstruct::Target) {
                self.record_device_region(1);
                let saved = frame.space;
                frame.space = Space::Device;
                let r = self.exec_stmt(frame, body);
                frame.space = saved;
                return r;
            }
            // Host `parallel` region (no loop): body runs once per "team";
            // we execute it once, which is observationally the sequential
            // schedule.
            self.record_host_region();
            return self.exec_stmt(frame, body);
        }

        // Loop directives.
        let StmtKind::For { .. } = body.kind else {
            return Err(type_err(format!(
                "'#pragma {}' must be followed by a for loop",
                d.text()
            ))
            .into());
        };
        let collapse = d.collapse().max(1) as usize;
        let nest = self.analyze_nest(frame, body, collapse)?;

        let parallel_semantics = d.has(OmpConstruct::Parallel) || d.has(OmpConstruct::Teams);

        if is_target {
            let total = nest.as_ref().map(|n| n.total()).unwrap_or(1);
            self.record_device_region(if parallel_semantics { total } else { 1 });
            self.mem.detector.begin_kernel();
        } else if parallel_semantics {
            self.record_host_region();
        }

        let exec_space = if is_target {
            Space::Device
        } else {
            frame.space
        };

        match nest {
            Some(nest) => self.run_loop_nest(frame, d, &nest, exec_space),
            None => {
                // Non-canonical loop: run it serially in the right space.
                let saved = frame.space;
                frame.space = exec_space;
                let r = self.exec_stmt(frame, body);
                frame.space = saved;
                r.map(|_| Flow::Normal)
            }
        }
    }

    fn run_loop_nest(
        &self,
        frame: &mut Frame,
        d: &OmpDirective,
        nest: &LoopNest,
        exec_space: Space,
    ) -> IResult<Flow> {
        let total = nest.total();
        let reductions: Vec<(ReductionOp, String)> = d
            .reductions()
            .flat_map(|(op, vars)| vars.iter().map(move |v| (*op, v.clone())))
            .collect();

        let use_parallel = self.config.parallel
            && total > 1
            && (d.has(OmpConstruct::Parallel) || d.has(OmpConstruct::Teams));

        if !use_parallel {
            // Sequential schedule in a shared frame: reductions and scalar
            // side effects work naturally.
            let saved = frame.space;
            frame.space = exec_space;
            let result = (|| -> IResult<()> {
                for logical in 0..total {
                    frame.scopes.push(HashMap::new());
                    let indices = nest.indices_of(logical);
                    for (var, idx) in nest.vars.iter().zip(&indices) {
                        frame.declare(var, Value::Int(*idx), Some(Type::INT));
                    }
                    let r = self.exec_stmt(frame, &nest.body);
                    frame.scopes.pop();
                    r?;
                }
                Ok(())
            })();
            frame.space = saved;
            result?;
            return Ok(Flow::Normal);
        }

        // Per-worker schedule: workers `0..n` run one after another, each on
        // a contiguous chunk of the iterations, in a frame built from a
        // snapshot of the visible bindings. Reduction variables start from
        // the identity in each worker and are folded in worker order.
        let snapshot: Vec<(String, Value)> = frame.visible();
        let n_workers = self.config.workers.max(1) as u64;
        let chunk = total.div_ceil(n_workers);

        // Opt-in shared-write recording: writes that resolve into the
        // snapshot scope (or globals) from more than one worker are
        // conflicting shared writes — unless the directive privatizes the
        // variable (reduction / private / firstprivate).
        let watch = if self.mem.detector.recording_shared() {
            let mut exempt: std::collections::HashSet<String> =
                reductions.iter().map(|(_, v)| v.clone()).collect();
            for c in &d.clauses {
                if let minihpc_lang::pragma::OmpClause::Private(vars)
                | minihpc_lang::pragma::OmpClause::FirstPrivate(vars) = c
                {
                    exempt.extend(vars.iter().cloned());
                }
            }
            let region = self.regions.get();
            self.regions.set(region + 1);
            Some(Rc::new(RegionWatch { region, exempt }))
        } else {
            None
        };

        for w in 0..n_workers {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(total);
            if lo >= hi {
                break;
            }
            let mut wframe = Frame {
                scopes: vec![snapshot.iter().cloned().collect(), HashMap::new()],
                types: frame.types.clone(),
                space: exec_space,
                thread: w,
                cuda: None,
                depth: frame.depth,
                watch: watch.clone(),
                watch_scopes: 1,
            };
            // Private reduction accumulators.
            for (op, var) in &reductions {
                wframe.set_existing(var, reduction_identity(*op));
            }
            for logical in lo..hi {
                wframe.scopes.push(HashMap::new());
                let indices = nest.indices_of(logical);
                for (var, idx) in nest.vars.iter().zip(&indices) {
                    wframe.declare(var, Value::Int(*idx), Some(Type::INT));
                }
                let r = self.exec_stmt(&mut wframe, &nest.body);
                wframe.scopes.pop();
                r?;
            }
            // Fold this worker's partials into the shared frame.
            for (op, var) in &reductions {
                let partial = wframe.get(var).cloned().unwrap_or(Value::Int(0));
                let current = frame
                    .get(var)
                    .cloned()
                    .ok_or_else(|| type_err(format!("reduction variable '{var}' not found")))?;
                frame.set_existing(var, combine_reduction(*op, current, partial)?);
            }
        }
        Ok(Flow::Normal)
    }

    // -- map clauses -------------------------------------------------------

    fn enter_mappings(&self, frame: &mut Frame, d: &OmpDirective) -> IResult<Vec<Mapping>> {
        let mut mappings = Vec::new();
        let clauses: Vec<(MapKind, Vec<ArraySection>)> =
            d.map_clauses().map(|(k, s)| (*k, s.clone())).collect();
        for (kind, sections) in clauses {
            for section in sections {
                let current = frame
                    .get(&section.var)
                    .cloned()
                    .or_else(|| self.globals.borrow().get(&section.var).cloned())
                    .ok_or_else(|| {
                        type_err(format!("mapped variable '{}' not found", section.var))
                    })?;
                let ptr = match current {
                    Value::Ptr(p) => p,
                    // Already mapped by an enclosing region, or a scalar:
                    // scalars are implicitly firstprivate (copied by the
                    // frame snapshot), so nothing to do.
                    Value::Int(_) | Value::Float(_) | Value::Bool(_) => continue,
                    Value::View(_) => continue, // views are device-native
                    other => {
                        return Err(type_err(format!(
                            "cannot map {} variable '{}'",
                            other.type_name(),
                            section.var
                        ))
                        .into())
                    }
                };
                if ptr.space == Space::Device {
                    mappings.push(Mapping {
                        var: section.var.clone(),
                        host: ptr,
                        device_buffer: ptr.buffer,
                        lo: 0,
                        len: 0,
                        kind,
                        preexisting: true,
                    });
                    continue;
                }
                // Evaluate the array section bounds.
                let (lo, len) = match section.ranges.first() {
                    Some((lo_e, len_e)) => {
                        let lo = self
                            .eval(frame, lo_e)?
                            .as_int()
                            .filter(|v| *v >= 0)
                            .ok_or_else(|| type_err("map lower bound must be >= 0"))?
                            as usize;
                        let len = self
                            .eval(frame, len_e)?
                            .as_int()
                            .filter(|v| *v >= 0)
                            .ok_or_else(|| type_err("map length must be >= 0"))?
                            as usize;
                        (lo, len)
                    }
                    None => {
                        // Bare pointer in a map clause: map the whole buffer.
                        let len = self
                            .mem
                            .len_of(ptr.space, ptr.buffer)
                            .map_err(Interrupt::Rt)?;
                        (0, len.saturating_sub(ptr.offset))
                    }
                };
                let elem = self
                    .mem
                    .elem_type(ptr.space, ptr.buffer)
                    .map_err(Interrupt::Rt)?;
                let dev = self.alloc_zeroed(Space::Device, elem, len);
                if kind.copies_to_device() {
                    self.mem
                        .copy(
                            Space::Device,
                            dev,
                            0,
                            Space::Host,
                            ptr.buffer,
                            ptr.offset + lo,
                            len,
                        )
                        .map_err(Interrupt::Rt)?;
                }
                mappings.push(Mapping {
                    var: section.var.clone(),
                    host: ptr,
                    device_buffer: dev,
                    lo,
                    len,
                    kind,
                    preexisting: false,
                });
            }
        }
        Ok(mappings)
    }

    fn exit_mappings(&self, mappings: &[Mapping]) -> IResult<()> {
        for m in mappings {
            if m.preexisting || !m.kind.copies_from_device() {
                continue;
            }
            self.mem
                .copy(
                    Space::Host,
                    m.host.buffer,
                    m.host.offset + m.lo,
                    Space::Device,
                    m.device_buffer,
                    0,
                    m.len,
                )
                .map_err(Interrupt::Rt)?;
        }
        Ok(())
    }

    // -- canonical loop analysis --------------------------------------------

    /// Analyze up to `depth` perfectly nested canonical loops, evaluating
    /// their bounds in `frame`. Returns `None` for non-canonical loops.
    fn analyze_nest(
        &self,
        frame: &mut Frame,
        stmt: &Stmt,
        depth: usize,
    ) -> IResult<Option<LoopNest>> {
        let mut vars = Vec::new();
        let mut starts = Vec::new();
        let mut counts = Vec::new();
        let mut current = stmt;
        for level in 0..depth {
            let StmtKind::For {
                init,
                cond,
                step,
                body,
            } = &current.kind
            else {
                return Ok(None);
            };
            // init: `int i = <expr>`
            let (var, start) = match init.as_deref().map(|s| &s.kind) {
                Some(StmtKind::Decl(d)) => {
                    let Some(Init::Expr(e)) = &d.init else {
                        return Ok(None);
                    };
                    let Some(start) = self.eval(frame, e)?.as_int() else {
                        return Ok(None);
                    };
                    (d.name.clone(), start)
                }
                _ => return Ok(None),
            };
            // cond: `i < expr` or `i <= expr`
            let Some(cond) = cond else { return Ok(None) };
            let end = match &cond.kind {
                ExprKind::Binary { op, lhs, rhs } => {
                    let lhs_is_var = matches!(&lhs.kind, ExprKind::Ident(n) if *n == var);
                    if !lhs_is_var {
                        return Ok(None);
                    }
                    let Some(bound) = self.eval(frame, rhs)?.as_int() else {
                        return Ok(None);
                    };
                    match op {
                        BinOp::Lt => bound,
                        BinOp::Le => bound + 1,
                        _ => return Ok(None),
                    }
                }
                _ => return Ok(None),
            };
            // step: `i++`, `++i`, `i += 1`, `i = i + 1`
            let step_ok = match step.as_ref().map(|e| &e.kind) {
                Some(ExprKind::Unary { op, expr })
                    if matches!(op, UnaryOp::PostInc | UnaryOp::PreInc)
                        && matches!(&expr.kind, ExprKind::Ident(n) if *n == var) =>
                {
                    true
                }
                Some(ExprKind::Assign {
                    op: Some(BinOp::Add),
                    lhs,
                    rhs,
                }) => {
                    matches!(&lhs.kind, ExprKind::Ident(n) if *n == var)
                        && matches!(rhs.kind, ExprKind::IntLit(1))
                }
                _ => false,
            };
            if !step_ok {
                return Ok(None);
            }
            vars.push(var);
            starts.push(start);
            counts.push((end - start).max(0) as u64);
            if level + 1 == depth {
                return Ok(Some(LoopNest {
                    vars,
                    starts,
                    counts,
                    body: (**body).clone(),
                }));
            }
            // Descend into the (single) nested loop.
            current = match &body.kind {
                StmtKind::Block(b) if b.stmts.len() == 1 => &b.stmts[0],
                StmtKind::For { .. } => body,
                _ => return Ok(None),
            };
            if !matches!(current.kind, StmtKind::For { .. }) {
                return Ok(None);
            }
        }
        Ok(None)
    }
}

/// A canonical (possibly collapsed) loop nest with precomputed bounds.
pub(super) struct LoopNest {
    pub vars: Vec<String>,
    pub starts: Vec<i64>,
    pub counts: Vec<u64>,
    pub body: Stmt,
}

impl LoopNest {
    pub fn total(&self) -> u64 {
        self.counts.iter().product()
    }

    /// Map a flat logical index to per-level loop variable values.
    pub fn indices_of(&self, mut logical: u64) -> Vec<i64> {
        let mut out = vec![0i64; self.vars.len()];
        for level in (0..self.vars.len()).rev() {
            let c = self.counts[level].max(1);
            out[level] = self.starts[level] + (logical % c) as i64;
            logical /= c;
        }
        out
    }
}

fn reduction_identity(op: ReductionOp) -> Value {
    match op {
        ReductionOp::Add | ReductionOp::BitOr | ReductionOp::BitXor => Value::Int(0),
        ReductionOp::Mul => Value::Int(1),
        ReductionOp::BitAnd => Value::Int(-1),
        ReductionOp::Min => Value::Float(f64::INFINITY),
        ReductionOp::Max => Value::Float(f64::NEG_INFINITY),
    }
}

fn combine_reduction(op: ReductionOp, a: Value, b: Value) -> IResult<Value> {
    let out = match op {
        ReductionOp::Add => expr::apply_binop(BinOp::Add, a, b).map_err(Interrupt::Rt)?,
        ReductionOp::Mul => expr::apply_binop(BinOp::Mul, a, b).map_err(Interrupt::Rt)?,
        ReductionOp::BitOr => expr::apply_binop(BinOp::BitOr, a, b).map_err(Interrupt::Rt)?,
        ReductionOp::BitXor => expr::apply_binop(BinOp::BitXor, a, b).map_err(Interrupt::Rt)?,
        ReductionOp::BitAnd => expr::apply_binop(BinOp::BitAnd, a, b).map_err(Interrupt::Rt)?,
        ReductionOp::Min => {
            let (x, y) = (a.as_float().unwrap_or(0.0), b.as_float().unwrap_or(0.0));
            Value::Float(x.min(y))
        }
        ReductionOp::Max => {
            let (x, y) = (a.as_float().unwrap_or(0.0), b.as_float().unwrap_or(0.0));
            Value::Float(x.max(y))
        }
    };
    Ok(out)
}

use super::expr;
