//! OpenMP directive execution: host `parallel for`, `target data` mapping,
//! and `target teams distribute parallel for` offload loops.

use super::*;
use minihpc_lang::pragma::MapKind;

/// An OpenMP directive with a body.
pub(crate) struct ROmp {
    /// `map` clauses of a target construct, in clause order.
    pub maps: Vec<RMap>,
    pub region: Region,
    pub body: StmtFn,
}

pub(crate) struct RMap {
    pub kind: MapKind,
    pub name: Rc<str>,
    /// The variable's binding outside the region.
    pub var: Name,
    /// The slot that holds the device pointer inside the region.
    pub slot: Option<u32>,
    /// The first array section `[lo : len]`, if any.
    pub range: Option<(ExprFn, ExprFn)>,
}

pub(crate) enum Region {
    TargetData,
    Target,
    HostParallel,
    Loop(Box<RLoop>),
    /// A loop directive not followed by a `for` loop.
    NotALoop(String),
}

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
pub(crate) struct NestPlan {
    pub levels: Vec<NestLevel>,
    /// The innermost loop's body, when the nest is canonical.
    pub body: Option<SharedStmt>,
}

pub(crate) struct NestLevel {
    pub slot: u32,
    pub start: ExprFn,
    /// `None` when the level's shape check fails after its start.
    pub bound: Option<ExprFn>,
    pub inclusive: bool,
}

pub(crate) fn omp(omp: ROmp) -> StmtFn {
    lower(move |i, f| {
        i.step()?;
        i.exec_omp(f, &omp)
    })
}

/// A mapping established by a `map(...)` clause for the extent of a region.
struct Mapping {
    /// The slot rebound to the device buffer inside the region.
    slot: Option<u32>,
    host: Pointer,
    device_buffer: usize,
    lo: usize,
    len: usize,
    kind: MapKind,
    /// True when the variable was already device-mapped by an enclosing
    /// region (present-table hit): no transfer, no rebinding.
    preexisting: bool,
}

/// A canonical (possibly collapsed) loop nest with precomputed bounds.
struct LoopNest<'a> {
    slots: Vec<u32>,
    starts: Vec<i64>,
    counts: Vec<u64>,
    /// The innermost loop's body, shared with the loop's own closure.
    body: &'a SharedStmt,
}

impl LoopNest<'_> {
    fn total(&self) -> u64 {
        self.counts.iter().product()
    }

    /// Bind the loop variables of flat logical index `logical`.
    fn bind(&self, slots: &mut [Value], mut logical: u64) {
        for level in (0..self.slots.len()).rev() {
            let c = self.counts[level].max(1);
            let idx = self.starts[level] + (logical % c) as i64;
            overwrite(&mut slots[self.slots[level] as usize], Value::Int(idx));
            logical /= c;
        }
    }
}

impl<'p> Interp<'p> {
    fn exec_omp(&self, frame: &mut Frame, omp: &ROmp) -> IResult<Flow> {
        // Without -fopenmp the pragma was warned about at compile time and
        // is ignored: the body executes as plain serial code.
        if !self.exe.features.openmp {
            return (omp.body)(self, frame);
        }
        // Establish map-clause mappings (target constructs only; `map` on a
        // host directive was a compile-time warning and is a no-op here),
        // and rebind the mapped variables for the region's extent.
        let mappings = self.enter_mappings(frame, &omp.maps)?;
        let mut saved = Vec::new();
        for m in mappings.iter().filter(|m| !m.preexisting) {
            if let Some(slot) = m.slot {
                let device = Value::Ptr(Pointer {
                    space: Space::Device,
                    buffer: m.device_buffer,
                    offset: 0,
                });
                let old = std::mem::replace(&mut frame.slots[slot as usize], device);
                saved.push((slot, old));
            }
        }

        let result = self.exec_omp_inner(frame, omp);

        for (slot, old) in saved.into_iter().rev() {
            frame.slots[slot as usize] = old;
        }
        // On error the run is abandoned, so only a completed region copies
        // back.
        if result.is_ok() {
            self.exit_mappings(&mappings)?;
        }
        result
    }

    fn exec_omp_inner(&self, frame: &mut Frame, omp: &ROmp) -> IResult<Flow> {
        // `target data` and plain region constructs: execute the body with
        // the mappings in place. `target data` itself stays on the host;
        // a bare `target` region moves execution to the device.
        let l = match &omp.region {
            Region::TargetData => return (omp.body)(self, frame),
            Region::Target => {
                self.record_device_region(1);
                let saved = frame.space;
                frame.space = Space::Device;
                let r = (omp.body)(self, frame);
                frame.space = saved;
                return r;
            }
            // Host `parallel` region (no loop): body runs once per "team";
            // we execute it once, which is observationally the sequential
            // schedule.
            Region::HostParallel => {
                self.record_host_region();
                return (omp.body)(self, frame);
            }
            Region::NotALoop(msg) => return Err(type_err(msg.as_str()).into()),
            Region::Loop(l) => l,
        };

        let nest = self.analyze_nest(frame, &l.nest)?;
        if l.target {
            let total = nest.as_ref().map(|n| n.total()).unwrap_or(1);
            self.record_device_region(if l.parallel { total } else { 1 });
            self.mem.detector.begin_kernel();
        } else if l.parallel {
            self.record_host_region();
        }

        let exec_space = if l.target { Space::Device } else { frame.space };

        match nest {
            Some(nest) => self.run_loop_nest(frame, l, &nest, exec_space),
            None => {
                // Non-canonical loop: run it serially in the right space.
                let saved = frame.space;
                frame.space = exec_space;
                let r = (omp.body)(self, frame);
                frame.space = saved;
                r.map(|_| Flow::Normal)
            }
        }
    }

    fn run_loop_nest(
        &self,
        frame: &mut Frame,
        l: &RLoop,
        nest: &LoopNest,
        exec_space: Space,
    ) -> IResult<Flow> {
        let total = nest.total();
        let use_parallel = self.config.parallel && total > 1 && l.parallel;

        if !use_parallel {
            // Sequential schedule in a shared frame: reductions and scalar
            // side effects work naturally.
            let saved = frame.space;
            frame.space = exec_space;
            let result = (|| -> IResult<()> {
                for logical in 0..total {
                    nest.bind(&mut frame.slots, logical);
                    (nest.body)(self, frame)?;
                }
                Ok(())
            })();
            frame.space = saved;
            result?;
            return Ok(Flow::Normal);
        }

        // Per-worker schedule: workers `0..n` run one after another, each on
        // a contiguous chunk of the iterations, in a frame built from a
        // snapshot of the slots. Reduction variables start from the
        // identity in each worker and are folded in worker order.
        let snapshot = frame.slots.clone();
        let n_workers = self.config.workers.max(1) as u64;
        let chunk = total.div_ceil(n_workers);

        // Opt-in shared-write recording: writes to the snapshot's slots
        // (or to globals) from more than one worker are conflicting shared
        // writes — unless the directive privatizes the variable
        // (reduction / private / firstprivate).
        let watch = self.mem.detector.recording_shared().then(|| {
            let region = self.regions.get();
            self.regions.set(region + 1);
            Rc::new(RegionWatch {
                region,
                exempt: l.exempt.clone(),
            })
        });

        for w in 0..n_workers {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(total);
            if lo >= hi {
                break;
            }
            let mut wframe = Frame {
                slots: snapshot.clone(),
                vars: frame.vars,
                space: exec_space,
                thread: w,
                cuda: None,
                depth: frame.depth,
                watch: watch.clone(),
                watch_base: l.shared_slots as usize,
                ret: Value::Void,
            };
            // Private reduction accumulators.
            for (op, _, slot) in &l.reductions {
                if let Some(slot) = slot {
                    wframe.slots[*slot as usize] = reduction_identity(*op);
                }
            }
            for logical in lo..hi {
                nest.bind(&mut wframe.slots, logical);
                (nest.body)(self, &mut wframe)?;
            }
            // Fold this worker's partials into the shared frame.
            for (op, var, slot) in &l.reductions {
                let Some(slot) = slot.map(|s| s as usize) else {
                    return Err(type_err(format!("reduction variable '{var}' not found")).into());
                };
                let partial = wframe.slots[slot].clone();
                let current = std::mem::take(&mut frame.slots[slot]);
                frame.slots[slot] = combine_reduction(*op, current, partial)?;
            }
        }
        Ok(Flow::Normal)
    }

    // -- map clauses -------------------------------------------------------

    fn enter_mappings(&self, frame: &mut Frame, maps: &[RMap]) -> IResult<Vec<Mapping>> {
        let mut mappings = Vec::new();
        for m in maps {
            let current = match &m.var {
                Name::Local(slot) => Some(frame.slots[*slot as usize].clone()),
                Name::Mapped { .. } | Name::Global(_) | Name::Cuda(_, Some(_), _) => {
                    Some(self.read_place(frame, &expr::name_place(frame, &m.var))?)
                }
                _ => None,
            };
            let current = current
                .ok_or_else(|| type_err(format!("mapped variable '{}' not found", m.name)))?;
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
                        m.name
                    ))
                    .into())
                }
            };
            if ptr.space == Space::Device {
                mappings.push(Mapping {
                    slot: m.slot,
                    host: ptr,
                    device_buffer: ptr.buffer,
                    lo: 0,
                    len: 0,
                    kind: m.kind,
                    preexisting: true,
                });
                continue;
            }
            // Evaluate the array section bounds.
            let (lo, len) = match &m.range {
                Some((lo_e, len_e)) => {
                    let lo = lo_e(self, frame)?
                        .as_int()
                        .filter(|v| *v >= 0)
                        .ok_or_else(|| type_err("map lower bound must be >= 0"))?
                        as usize;
                    let len = len_e(self, frame)?
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
                        .map_err(Interrupt::from)?;
                    (0, len.saturating_sub(ptr.offset))
                }
            };
            let elem = self
                .mem
                .elem_type(ptr.space, ptr.buffer)
                .map_err(Interrupt::from)?;
            let dev = self.alloc_zeroed(Space::Device, elem, len);
            if m.kind.copies_to_device() {
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
                    .map_err(Interrupt::from)?;
            }
            mappings.push(Mapping {
                slot: m.slot,
                host: ptr,
                device_buffer: dev,
                lo,
                len,
                kind: m.kind,
                preexisting: false,
            });
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
                .map_err(Interrupt::from)?;
        }
        Ok(())
    }

    // -- canonical loop analysis --------------------------------------------

    /// Evaluate a loop nest's bounds in `frame`, in the order the levels
    /// are nested. Returns `None` for a non-canonical nest, or one whose
    /// bounds are not integers.
    fn analyze_nest<'a>(
        &self,
        frame: &mut Frame,
        plan: &'a NestPlan,
    ) -> IResult<Option<LoopNest<'a>>> {
        let mut slots = Vec::with_capacity(plan.levels.len());
        let mut starts = Vec::with_capacity(plan.levels.len());
        let mut counts = Vec::with_capacity(plan.levels.len());
        for level in &plan.levels {
            let Some(start) = (level.start)(self, frame)?.as_int() else {
                return Ok(None);
            };
            let Some(bound) = &level.bound else {
                return Ok(None);
            };
            let Some(bound) = bound(self, frame)?.as_int() else {
                return Ok(None);
            };
            let end = if level.inclusive { bound + 1 } else { bound };
            slots.push(level.slot);
            starts.push(start);
            counts.push((end - start).max(0) as u64);
        }
        Ok(plan.body.as_ref().map(|body| LoopNest {
            slots,
            starts,
            counts,
            body,
        }))
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
        ReductionOp::Add => expr::apply_binop(BinOp::Add, &a, &b)?,
        ReductionOp::Mul => expr::apply_binop(BinOp::Mul, &a, &b)?,
        ReductionOp::BitOr => expr::apply_binop(BinOp::BitOr, &a, &b)?,
        ReductionOp::BitXor => expr::apply_binop(BinOp::BitXor, &a, &b)?,
        ReductionOp::BitAnd => expr::apply_binop(BinOp::BitAnd, &a, &b)?,
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
