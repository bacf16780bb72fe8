//! Expression evaluation, lvalue (place) resolution, and operators.

use super::*;

/// A resolved assignment target.
pub(super) enum Place {
    /// A named local or global variable.
    Var(String),
    /// A buffer element.
    Mem {
        space: Space,
        buffer: usize,
        index: usize,
    },
    /// A field of a struct held in another place.
    Field(Box<Place>, usize),
}

impl<'e> Interp<'e> {
    pub(super) fn eval(&self, frame: &mut Frame, e: &Expr) -> IResult<Value> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::FloatLit(v) => Ok(Value::Float(*v)),
            ExprKind::StrLit(s) => Ok(Value::Str(s.as_str().into())),
            ExprKind::CharLit(c) => Ok(Value::Int(*c as i64)),
            ExprKind::BoolLit(b) => Ok(Value::Bool(*b)),
            ExprKind::Ident(name) => self.eval_ident(frame, name),
            ExprKind::Path(_) => Err(type_err("a namespace path is not a value").into()),
            ExprKind::Paren(inner) => self.eval(frame, inner),
            ExprKind::Unary { op, expr } => self.eval_unary(frame, *op, expr),
            ExprKind::Binary { op, lhs, rhs } => {
                let a = self.eval(frame, lhs)?;
                // Short-circuit logicals.
                match op {
                    BinOp::And if !a.truthy() => return Ok(Value::Bool(false)),
                    BinOp::And => return Ok(Value::Bool(self.eval(frame, rhs)?.truthy())),
                    BinOp::Or if a.truthy() => return Ok(Value::Bool(true)),
                    BinOp::Or => return Ok(Value::Bool(self.eval(frame, rhs)?.truthy())),
                    _ => {}
                }
                let b = self.eval(frame, rhs)?;
                apply_binop(*op, a, b).map_err(Interrupt::Rt)
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let rhs_v = self.eval(frame, rhs)?;
                let place = self.resolve_place(frame, lhs)?;
                let value = match op {
                    Some(op) => {
                        let old = self.read_place(frame, &place)?;
                        apply_binop(*op, old, rhs_v).map_err(Interrupt::Rt)?
                    }
                    None => rhs_v,
                };
                // Coerce to the declared type of simple variables so that
                // `double x; x = 1;` stores a float.
                let value = match &place {
                    Place::Var(name) => match frame.types.get(name).cloned() {
                        Some(ty) => self.coerce(value, &ty)?,
                        None => value,
                    },
                    Place::Mem { space, buffer, .. } => {
                        let ty = self.mem.elem_type(*space, *buffer).map_err(Interrupt::Rt)?;
                        self.coerce(value, &ty)?
                    }
                    _ => value,
                };
                self.write_place(frame, &place, value.clone())?;
                Ok(value)
            }
            ExprKind::Ternary { cond, then, els } => {
                if self.eval(frame, cond)?.truthy() {
                    self.eval(frame, then)
                } else {
                    self.eval(frame, els)
                }
            }
            ExprKind::Call { callee, args } => self.eval_call(frame, callee, args),
            ExprKind::KernelLaunch {
                kernel,
                grid,
                block,
                args,
            } => self.cuda_launch(frame, kernel, grid, block, args),
            ExprKind::Index { .. } => {
                let place = self.resolve_place(frame, e)?;
                self.read_place(frame, &place)
            }
            ExprKind::Member {
                base,
                member,
                arrow,
            } => {
                let bv = self.eval(frame, base)?;
                let sv = if *arrow {
                    match bv {
                        Value::Ptr(p) => self
                            .mem
                            .load(frame.space, p.space, p.buffer, p.offset)
                            .map_err(Interrupt::Rt)?,
                        Value::Null => {
                            return Err(RuntimeError::illegal("null pointer dereference").into())
                        }
                        other => {
                            return Err(type_err(format!(
                                "'->' on non-pointer {}",
                                other.type_name()
                            ))
                            .into())
                        }
                    }
                } else {
                    bv
                };
                match sv {
                    Value::Dim3(d) => match member.as_str() {
                        "x" => Ok(Value::Int(d.x as i64)),
                        "y" => Ok(Value::Int(d.y as i64)),
                        "z" => Ok(Value::Int(d.z as i64)),
                        other => Err(type_err(format!("no member '{other}' in dim3")).into()),
                    },
                    Value::Struct(s) => {
                        let layout = self
                            .layouts
                            .get(&s.name)
                            .ok_or_else(|| type_err(format!("unknown struct '{}'", s.name)))?;
                        let idx = layout
                            .fields
                            .iter()
                            .position(|(n, _)| n == member)
                            .ok_or_else(|| {
                                type_err(format!("no field '{member}' in '{}'", s.name))
                            })?;
                        Ok(s.fields[idx].clone())
                    }
                    other => Err(type_err(format!(
                        "member access '{member}' on {}",
                        other.type_name()
                    ))
                    .into()),
                }
            }
            ExprKind::Cast { ty, expr } => {
                let v = self.eval(frame, expr)?;
                self.coerce(v, ty)
            }
            ExprKind::SizeOfType(ty) => Ok(Value::Int(self.sizeof(ty) as i64)),
            ExprKind::SizeOfExpr(inner) => {
                // Prefer the declared type of a plain variable.
                if let ExprKind::Ident(name) = &inner.kind {
                    if let Some(ty) = frame
                        .types
                        .get(name)
                        .or_else(|| self.global_types.get(name))
                    {
                        return Ok(Value::Int(self.sizeof(ty) as i64));
                    }
                }
                if let ExprKind::Ident(name) = &inner.kind {
                    if let Some(l) = self.layouts.get(name) {
                        let sz: usize = l.fields.iter().map(|(_, t)| self.sizeof(t)).sum();
                        return Ok(Value::Int(sz.max(1) as i64));
                    }
                }
                let v = self.eval(frame, inner)?;
                let size: usize = match &v {
                    Value::Int(_) => 4,
                    Value::Float(_) => 8,
                    Value::Bool(_) => 1,
                    Value::Ptr(_) | Value::Null | Value::UntypedAlloc { .. } => 8,
                    Value::Struct(s) => self
                        .layouts
                        .get(&s.name)
                        .map(|l| l.fields.iter().map(|(_, t)| self.sizeof(t)).sum())
                        .unwrap_or(8),
                    _ => 8,
                };
                Ok(Value::Int(size as i64))
            }
            ExprKind::Lambda {
                capture: _,
                params,
                body,
            } => Ok(Value::Lambda(Box::new(Closure {
                params: params.clone(),
                body: Rc::new(body.clone()),
                captures: frame.visible(),
            }))),
        }
    }

    fn eval_ident(&self, frame: &mut Frame, name: &str) -> IResult<Value> {
        if let Some(v) = frame.get(name) {
            return Ok(v.clone());
        }
        if let Some(ctx) = frame.cuda {
            let d = match name {
                "threadIdx" => Some(ctx.thread_idx),
                "blockIdx" => Some(ctx.block_idx),
                "blockDim" => Some(ctx.block_dim),
                "gridDim" => Some(ctx.grid_dim),
                _ => None,
            };
            if let Some(d) = d {
                return Ok(Value::Dim3(d));
            }
        }
        if let Some(v) = self.globals.borrow().get(name) {
            return Ok(v.clone());
        }
        match name {
            "cudaMemcpyHostToDevice" => Ok(Value::Int(1)),
            "cudaMemcpyDeviceToHost" => Ok(Value::Int(2)),
            "cudaMemcpyDeviceToDevice" => Ok(Value::Int(3)),
            "cudaSuccess" => Ok(Value::Int(0)),
            "RAND_MAX" => Ok(Value::Int(2147483647)),
            "INT_MAX" => Ok(Value::Int(i32::MAX as i64)),
            "DBL_MAX" => Ok(Value::Float(f64::MAX)),
            "NULL" => Ok(Value::Null),
            _ => Err(type_err(format!("use of unbound identifier '{name}' at run time")).into()),
        }
    }

    fn eval_unary(&self, frame: &mut Frame, op: UnaryOp, inner: &Expr) -> IResult<Value> {
        match op {
            UnaryOp::Neg => {
                let v = self.eval(frame, inner)?;
                match v {
                    Value::Int(n) => Ok(Value::Int(-n)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    Value::Bool(b) => Ok(Value::Int(-i64::from(b))),
                    other => Err(type_err(format!("cannot negate {}", other.type_name())).into()),
                }
            }
            UnaryOp::Not => Ok(Value::Bool(!self.eval(frame, inner)?.truthy())),
            UnaryOp::BitNot => {
                let n = self
                    .eval(frame, inner)?
                    .as_int()
                    .ok_or_else(|| type_err("operator ~ requires an integer"))?;
                Ok(Value::Int(!n))
            }
            UnaryOp::Deref => {
                let place = self.resolve_deref(frame, inner)?;
                self.read_place(frame, &place)
            }
            UnaryOp::AddrOf => {
                // `&lvalue` is meaningful for memory places only.
                match self.resolve_place(frame, inner)? {
                    Place::Mem {
                        space,
                        buffer,
                        index,
                    } => Ok(Value::Ptr(Pointer {
                        space,
                        buffer,
                        offset: index,
                    })),
                    Place::Var(name) => {
                        // Taking the address of a stack variable: MiniHPC
                        // promotes it to a 1-element buffer on first use.
                        let current = frame
                            .get(&name)
                            .cloned()
                            .or_else(|| self.globals.borrow().get(&name).cloned())
                            .ok_or_else(|| type_err(format!("unbound variable '{name}'")))?;
                        let elem = frame
                            .types
                            .get(&name)
                            .cloned()
                            .unwrap_or(Type::Scalar(ScalarType::Long));
                        let buf = self.alloc_with(frame.space, elem, vec![current]);
                        let ptr = Value::Ptr(Pointer {
                            space: frame.space,
                            buffer: buf,
                            offset: 0,
                        });
                        // The variable itself now aliases the buffer: we
                        // rebind it to a pointer-backed mirror by keeping the
                        // old binding (value semantics). Supported uses are
                        // call-by-pointer out-params, handled by builtins.
                        Ok(ptr)
                    }
                    Place::Field(..) => {
                        Err(type_err("cannot take the address of a struct field").into())
                    }
                }
            }
            UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec => {
                let place = self.resolve_place(frame, inner)?;
                let old = self.read_place(frame, &place)?;
                let delta = if matches!(op, UnaryOp::PreInc | UnaryOp::PostInc) {
                    1
                } else {
                    -1
                };
                let new = match &old {
                    Value::Int(n) => Value::Int(n + delta),
                    Value::Float(f) => Value::Float(f + delta as f64),
                    Value::Ptr(p) => {
                        let off = p.offset as i64 + delta;
                        if off < 0 {
                            return Err(RuntimeError::oob(
                                "pointer decremented below buffer start",
                            )
                            .into());
                        }
                        Value::Ptr(Pointer {
                            offset: off as usize,
                            ..*p
                        })
                    }
                    other => {
                        return Err(
                            type_err(format!("cannot increment {}", other.type_name())).into()
                        )
                    }
                };
                self.write_place(frame, &place, new.clone())?;
                Ok(if matches!(op, UnaryOp::PostInc | UnaryOp::PostDec) {
                    old
                } else {
                    new
                })
            }
        }
    }

    fn resolve_deref(&self, frame: &mut Frame, ptr_expr: &Expr) -> IResult<Place> {
        let v = self.eval(frame, ptr_expr)?;
        match v {
            Value::Ptr(p) => Ok(Place::Mem {
                space: p.space,
                buffer: p.buffer,
                index: p.offset,
            }),
            Value::Null => Err(RuntimeError::illegal("null pointer dereference").into()),
            other => {
                Err(type_err(format!("cannot dereference {} value", other.type_name())).into())
            }
        }
    }

    /// Resolve an expression to an assignable place.
    pub(super) fn resolve_place(&self, frame: &mut Frame, e: &Expr) -> IResult<Place> {
        match &e.kind {
            ExprKind::Ident(name) => Ok(Place::Var(name.clone())),
            ExprKind::Paren(inner) => self.resolve_place(frame, inner),
            ExprKind::Unary {
                op: UnaryOp::Deref,
                expr,
            } => self.resolve_deref(frame, expr),
            ExprKind::Index { base, index } => {
                let base_v = self.eval(frame, base)?;
                let idx = self
                    .eval(frame, index)?
                    .as_int()
                    .ok_or_else(|| type_err("array index must be an integer"))?;
                match base_v {
                    Value::Ptr(p) => {
                        let off = p.offset as i64 + idx;
                        if off < 0 {
                            return Err(RuntimeError::oob(format!(
                                "negative effective index {off}"
                            ))
                            .into());
                        }
                        Ok(Place::Mem {
                            space: p.space,
                            buffer: p.buffer,
                            index: off as usize,
                        })
                    }
                    Value::Null => Err(RuntimeError::illegal("null pointer indexed").into()),
                    other => Err(type_err(format!(
                        "subscripted value has type {}",
                        other.type_name()
                    ))
                    .into()),
                }
            }
            ExprKind::Member {
                base,
                member,
                arrow,
            } => {
                let base_place = if *arrow {
                    self.resolve_deref(frame, base)?
                } else {
                    self.resolve_place(frame, base)?
                };
                let sv = self.read_place(frame, &base_place)?;
                let Value::Struct(s) = &sv else {
                    return Err(type_err(format!(
                        "member access '{member}' on non-struct {}",
                        sv.type_name()
                    ))
                    .into());
                };
                let layout = self
                    .layouts
                    .get(&s.name)
                    .ok_or_else(|| type_err(format!("unknown struct '{}'", s.name)))?;
                let idx = layout
                    .fields
                    .iter()
                    .position(|(n, _)| n == member)
                    .ok_or_else(|| {
                        type_err(format!("no field '{member}' in struct '{}'", s.name))
                    })?;
                Ok(Place::Field(Box::new(base_place), idx))
            }
            // Kokkos view element as lvalue: `v(i) = x;`
            ExprKind::Call { callee, args } => {
                if let ExprKind::Ident(name) = &callee.kind {
                    if let Some(Value::View(h)) = frame.get(name).cloned() {
                        return self.view_place(frame, &h, args);
                    }
                }
                Err(type_err("call expression is not assignable").into())
            }
            _ => Err(type_err("expression is not assignable").into()),
        }
    }

    pub(super) fn view_place(
        &self,
        frame: &mut Frame,
        h: &ViewHandle,
        args: &[Expr],
    ) -> IResult<Place> {
        let mut indices = Vec::with_capacity(args.len());
        for a in args {
            indices.push(
                self.eval(frame, a)?
                    .as_int()
                    .ok_or_else(|| type_err("view index must be an integer"))?,
            );
        }
        let flat = h.flat_index(&indices).ok_or_else(|| {
            RuntimeError::oob(format!(
                "view index {indices:?} out of bounds for extents {:?} (rank {})",
                &h.dims[..h.rank as usize],
                h.rank
            ))
        })?;
        Ok(Place::Mem {
            space: h.space,
            buffer: h.buffer,
            index: flat,
        })
    }

    pub(super) fn read_place(&self, frame: &Frame, place: &Place) -> IResult<Value> {
        match place {
            Place::Var(name) => frame
                .get(name)
                .cloned()
                .or_else(|| self.globals.borrow().get(name).cloned())
                .ok_or_else(|| type_err(format!("unbound variable '{name}'")).into()),
            Place::Mem {
                space,
                buffer,
                index,
            } => self
                .mem
                .load(frame.space, *space, *buffer, *index)
                .map_err(Interrupt::Rt),
            Place::Field(base, idx) => {
                let v = self.read_place(frame, base)?;
                match v {
                    Value::Struct(s) => {
                        s.fields.get(*idx).cloned().ok_or_else(|| {
                            type_err(format!("field index {idx} out of range")).into()
                        })
                    }
                    other => Err(type_err(format!("field read on {}", other.type_name())).into()),
                }
            }
        }
    }

    pub(super) fn write_place(
        &self,
        frame: &mut Frame,
        place: &Place,
        value: Value,
    ) -> IResult<()> {
        match place {
            Place::Var(name) => {
                // Shared-write recording (opt-in): a write resolving into
                // the region's snapshot scope — or into globals — is a
                // write to state every worker sees.
                if let Some(watch) = &frame.watch {
                    let shared = match frame.scope_of(name) {
                        Some(i) => i < frame.watch_scopes,
                        None => true, // falls through to globals below
                    };
                    if shared && !watch.exempt.contains(name) {
                        self.mem
                            .detector
                            .record_shared_write(watch.region, name, frame.thread);
                    }
                }
                if frame.set_existing(name, value.clone()) {
                    return Ok(());
                }
                let mut globals = self.globals.borrow_mut();
                if let Some(slot) = globals.get_mut(name) {
                    *slot = value;
                    return Ok(());
                }
                Err(type_err(format!("assignment to unbound variable '{name}'")).into())
            }
            Place::Mem {
                space,
                buffer,
                index,
            } => self
                .mem
                .store(frame.space, *space, *buffer, *index, value, frame.thread)
                .map_err(Interrupt::Rt),
            Place::Field(base, idx) => {
                let current = self.read_place(frame, base)?;
                match current {
                    Value::Struct(mut s) => {
                        let slot = s
                            .fields
                            .get_mut(*idx)
                            .ok_or_else(|| type_err(format!("field index {idx} out of range")))?;
                        *slot = value;
                        self.write_place(frame, base, Value::Struct(s))
                    }
                    other => Err(type_err(format!("field write on {}", other.type_name())).into()),
                }
            }
        }
    }
}

/// Apply a binary operator to two values with C-like promotion.
pub(super) fn apply_binop(op: BinOp, a: Value, b: Value) -> RtResult<Value> {
    use BinOp::*;
    // Pointer arithmetic and comparison.
    match (&a, &b) {
        (Value::Ptr(p), other) if matches!(op, Add | Sub) => {
            let n = other
                .as_int()
                .ok_or_else(|| type_err("pointer arithmetic requires an integer"))?;
            let delta = if op == Sub { -n } else { n };
            let off = p.offset as i64 + delta;
            if off < 0 {
                return Err(RuntimeError::oob("pointer moved below buffer start"));
            }
            return Ok(Value::Ptr(Pointer {
                offset: off as usize,
                ..*p
            }));
        }
        (other, Value::Ptr(p)) if op == Add => {
            let n = other
                .as_int()
                .ok_or_else(|| type_err("pointer arithmetic requires an integer"))?;
            let off = p.offset as i64 + n;
            if off < 0 {
                return Err(RuntimeError::oob("pointer moved below buffer start"));
            }
            return Ok(Value::Ptr(Pointer {
                offset: off as usize,
                ..*p
            }));
        }
        (Value::Ptr(p), Value::Ptr(q)) => {
            return match op {
                Sub => Ok(Value::Int(p.offset as i64 - q.offset as i64)),
                Eq => Ok(Value::Bool(p == q)),
                Ne => Ok(Value::Bool(p != q)),
                Lt => Ok(Value::Bool(p.offset < q.offset)),
                Gt => Ok(Value::Bool(p.offset > q.offset)),
                Le => Ok(Value::Bool(p.offset <= q.offset)),
                Ge => Ok(Value::Bool(p.offset >= q.offset)),
                _ => Err(type_err("invalid pointer operation")),
            };
        }
        (Value::Ptr(_) | Value::Null, Value::Null) | (Value::Null, Value::Ptr(_)) => {
            let same = matches!((&a, &b), (Value::Null, Value::Null));
            return match op {
                Eq => Ok(Value::Bool(same)),
                Ne => Ok(Value::Bool(!same)),
                _ => Err(type_err("invalid null pointer operation")),
            };
        }
        _ => {}
    }

    let both_int = matches!(&a, Value::Int(_) | Value::Bool(_))
        && matches!(&b, Value::Int(_) | Value::Bool(_));
    if both_int {
        let x = a.as_int().unwrap();
        let y = b.as_int().unwrap();
        let v = match op {
            Add => Value::Int(x.wrapping_add(y)),
            Sub => Value::Int(x.wrapping_sub(y)),
            Mul => Value::Int(x.wrapping_mul(y)),
            Div => {
                if y == 0 {
                    return Err(RuntimeError::new(
                        RuntimeErrorKind::DivByZero,
                        "integer division by zero",
                    ));
                }
                Value::Int(x.wrapping_div(y))
            }
            Rem => {
                if y == 0 {
                    return Err(RuntimeError::new(
                        RuntimeErrorKind::DivByZero,
                        "integer modulo by zero",
                    ));
                }
                Value::Int(x.wrapping_rem(y))
            }
            Shl => Value::Int(x.wrapping_shl(y as u32 & 63)),
            Shr => Value::Int((x as u64 >> (y as u32 & 63)) as i64),
            BitAnd => Value::Int(x & y),
            BitOr => Value::Int(x | y),
            BitXor => Value::Int(x ^ y),
            Lt => Value::Bool(x < y),
            Gt => Value::Bool(x > y),
            Le => Value::Bool(x <= y),
            Ge => Value::Bool(x >= y),
            Eq => Value::Bool(x == y),
            Ne => Value::Bool(x != y),
            And => Value::Bool(x != 0 && y != 0),
            Or => Value::Bool(x != 0 || y != 0),
        };
        return Ok(v);
    }

    let (Some(x), Some(y)) = (a.as_float(), b.as_float()) else {
        return Err(type_err(format!(
            "invalid operands to '{}' ({} and {})",
            op.symbol(),
            a.type_name(),
            b.type_name()
        )));
    };
    let v = match op {
        Add => Value::Float(x + y),
        Sub => Value::Float(x - y),
        Mul => Value::Float(x * y),
        Div => Value::Float(x / y), // IEEE semantics: inf/nan like C
        Rem => Value::Float(x % y),
        Lt => Value::Bool(x < y),
        Gt => Value::Bool(x > y),
        Le => Value::Bool(x <= y),
        Ge => Value::Bool(x >= y),
        Eq => Value::Bool(x == y),
        Ne => Value::Bool(x != y),
        And => Value::Bool(x != 0.0 && y != 0.0),
        Or => Value::Bool(x != 0.0 || y != 0.0),
        Shl | Shr | BitAnd | BitOr | BitXor => {
            return Err(type_err(format!(
                "bitwise operator '{}' requires integer operands",
                op.symbol()
            )))
        }
    };
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ops() {
        assert_eq!(
            apply_binop(BinOp::Add, Value::Int(2), Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            apply_binop(BinOp::BitXor, Value::Int(5), Value::Int(3)).unwrap(),
            Value::Int(6)
        );
        assert_eq!(
            apply_binop(BinOp::Div, Value::Int(7), Value::Int(2)).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn div_by_zero() {
        let err = apply_binop(BinOp::Div, Value::Int(1), Value::Int(0)).unwrap_err();
        assert_eq!(err.kind, RuntimeErrorKind::DivByZero);
        // Float division by zero is IEEE (inf), not an error.
        assert_eq!(
            apply_binop(BinOp::Div, Value::Float(1.0), Value::Float(0.0)).unwrap(),
            Value::Float(f64::INFINITY)
        );
    }

    #[test]
    fn mixed_promotes_to_float() {
        assert_eq!(
            apply_binop(BinOp::Mul, Value::Int(2), Value::Float(1.5)).unwrap(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn pointer_arithmetic() {
        let p = Value::Ptr(Pointer {
            space: Space::Host,
            buffer: 0,
            offset: 4,
        });
        match apply_binop(BinOp::Add, p.clone(), Value::Int(3)).unwrap() {
            Value::Ptr(q) => assert_eq!(q.offset, 7),
            other => panic!("{other:?}"),
        }
        match apply_binop(BinOp::Sub, p.clone(), Value::Int(4)).unwrap() {
            Value::Ptr(q) => assert_eq!(q.offset, 0),
            other => panic!("{other:?}"),
        }
        assert!(apply_binop(BinOp::Sub, p, Value::Int(5)).is_err());
    }

    #[test]
    fn bitwise_on_float_rejected() {
        assert!(apply_binop(BinOp::BitXor, Value::Float(1.0), Value::Int(1)).is_err());
    }

    #[test]
    fn null_comparisons() {
        assert_eq!(
            apply_binop(BinOp::Eq, Value::Null, Value::Null).unwrap(),
            Value::Bool(true)
        );
        let p = Value::Ptr(Pointer {
            space: Space::Host,
            buffer: 0,
            offset: 0,
        });
        assert_eq!(
            apply_binop(BinOp::Ne, p, Value::Null).unwrap(),
            Value::Bool(true)
        );
    }
}
