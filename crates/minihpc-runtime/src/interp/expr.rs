//! Expression evaluation, lvalue (place) resolution, and operators.

use super::*;

/// A resolved assignment target.
pub(super) enum Place {
    Local(u32),
    Global(u32),
    /// A name with no variable behind it: reading or writing it fails.
    Unbound(Rc<str>),
    /// A buffer element.
    Mem {
        space: Space,
        buffer: usize,
        index: usize,
    },
    /// A field of a struct held in another place.
    Field(Box<Place>, usize),
}

impl<'p> Interp<'p> {
    /// Evaluate an expression. Literals and locals, the commonest
    /// operands, are read inline at every call site.
    #[inline(always)]
    pub(super) fn eval(&self, frame: &mut Frame, e: &RExpr) -> IResult<Value> {
        match e {
            RExpr::Lit(v) => Ok(v.clone()),
            RExpr::Var(Name::Local(slot)) => Ok(frame.slots[*slot as usize].clone()),
            _ => self.eval_node(frame, e),
        }
    }

    fn eval_node(&self, frame: &mut Frame, e: &RExpr) -> IResult<Value> {
        match e {
            RExpr::Lit(v) => Ok(v.clone()),
            RExpr::Var(name) => self.eval_name(frame, name),
            RExpr::Fail(msg) => Err(type_err(msg.as_str()).into()),
            RExpr::Unary(op, inner) => self.eval_unary(frame, *op, inner),
            RExpr::Binary(op, lhs, rhs) => {
                if !op.is_logical() {
                    // Operands that are locals or literals are read in place.
                    if let (Some(a), Some(b)) = (peek(frame, lhs), peek(frame, rhs)) {
                        return Ok(apply_binop(*op, a, b)?);
                    }
                }
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
                Ok(apply_binop(*op, &a, &b)?)
            }
            RExpr::Assign(op, lhs, rhs) => {
                let rhs_v = self.eval(frame, rhs)?;
                let place = self.resolve_place(frame, lhs)?;
                let value = match op {
                    Some(op) => {
                        let old = self.read_place(frame, &place)?;
                        apply_binop(*op, &old, &rhs_v)?
                    }
                    None => rhs_v,
                };
                // Coerce to the declared type of locals so that
                // `double x; x = 1;` stores a float.
                let value = match &place {
                    Place::Local(slot) => self.coerce_to(value, &frame.vars[*slot as usize]),
                    Place::Mem { space, buffer, .. } => {
                        let (space, buffer) = (*space, *buffer);
                        let conv = self.mem.with_elem_type(space, buffer, Conv::of)?;
                        match (conv, value) {
                            (Conv::Pointer, Value::UntypedAlloc { bytes }) => {
                                let ty = self.mem.elem_type(space, buffer)?;
                                self.typed_alloc(bytes, &ty)
                            }
                            (conv, value) => conv.apply(value),
                        }
                    }
                    _ => value,
                };
                self.write_place(frame, &place, value.clone())?;
                Ok(value)
            }
            RExpr::Ternary(cond, then, els) => {
                if self.eval(frame, cond)?.truthy() {
                    self.eval(frame, then)
                } else {
                    self.eval(frame, els)
                }
            }
            RExpr::Call(call) => self.eval_call(frame, call),
            RExpr::Launch(launch) => self.cuda_launch(frame, launch),
            RExpr::Index(base, index) => {
                let p = self.element(frame, base, index)?;
                Ok(self.mem.load(frame.space, p.space, p.buffer, p.offset)?)
            }
            RExpr::Member(base, arrow, field) => {
                let bv = self.eval(frame, base)?;
                let sv = if *arrow {
                    match bv {
                        Value::Ptr(p) => self
                            .mem
                            .load(frame.space, p.space, p.buffer, p.offset)
                            .map_err(Interrupt::from)?,
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
                let member = &field.name;
                match sv {
                    Value::Dim3(d) => match &**member {
                        "x" => Ok(Value::Int(d.x as i64)),
                        "y" => Ok(Value::Int(d.y as i64)),
                        "z" => Ok(Value::Int(d.z as i64)),
                        other => Err(type_err(format!("no member '{other}' in dim3")).into()),
                    },
                    Value::Struct(mut s) => {
                        let idx = self.field_index(&s, field, "")?;
                        Ok(std::mem::take(&mut s.fields[idx]))
                    }
                    other => Err(type_err(format!(
                        "member access '{member}' on {}",
                        other.type_name()
                    ))
                    .into()),
                }
            }
            RExpr::Cast(ty, expr) => {
                let v = self.eval(frame, expr)?;
                Ok(self.coerce(v, ty))
            }
            RExpr::SizeOfValue(inner) => {
                let v = self.eval(frame, inner)?;
                let size: usize = match &v {
                    Value::Int(_) => 4,
                    Value::Float(_) => 8,
                    Value::Bool(_) => 1,
                    Value::Ptr(_) | Value::Null | Value::UntypedAlloc { .. } => 8,
                    Value::Struct(s) => self.layout(&s.name).map_or(8, |l| l.fields_size),
                    _ => 8,
                };
                Ok(Value::Int(size as i64))
            }
            RExpr::Lambda(lambda) => Ok(Value::Lambda(Box::new(Closure {
                captures: lambda
                    .captures
                    .iter()
                    .map(|(outer, _)| frame.slots[*outer as usize].clone())
                    .collect(),
                lambda: lambda.clone(),
            }))),
        }
    }

    /// The index of `field` in struct value `s`. `within` is the error
    /// message's article: "" for reads, "struct " for places.
    fn field_index(&self, s: &StructVal, field: &FieldName, within: &str) -> IResult<usize> {
        let layout = self
            .layout(&s.name)
            .ok_or_else(|| type_err(format!("unknown struct '{}'", s.name)))?;
        layout
            .fields
            .iter()
            .position(|(sym, _)| *sym == field.sym)
            .ok_or_else(|| {
                let member = &field.name;
                type_err(format!("no field '{member}' in {within}'{}'", s.name)).into()
            })
    }

    fn eval_name(&self, frame: &Frame, name: &Name) -> IResult<Value> {
        match name {
            Name::Local(slot) => Ok(frame.slots[*slot as usize].clone()),
            Name::Global(g) => Ok(self.globals.borrow()[*g as usize].clone()),
            Name::Mapped { slot, global } => match &frame.slots[*slot as usize] {
                Value::Void => Ok(self.globals.borrow()[*global as usize].clone()),
                v => Ok(v.clone()),
            },
            Name::Cuda(dim, global, name) => {
                if let Some(ctx) = frame.cuda {
                    return Ok(Value::Dim3(match dim {
                        CudaDim::ThreadIdx => ctx.thread_idx,
                        CudaDim::BlockIdx => ctx.block_idx,
                        CudaDim::BlockDim => ctx.block_dim,
                        CudaDim::GridDim => ctx.grid_dim,
                    }));
                }
                match global {
                    Some(g) => Ok(self.globals.borrow()[*g as usize].clone()),
                    None => Err(unbound(name)),
                }
            }
            Name::Const(v, _) => Ok(v.clone()),
            Name::Unbound(name) => Err(unbound(name)),
        }
    }

    /// The variable a name denotes as an assignment target.
    pub(super) fn name_place(&self, frame: &Frame, name: &Name) -> Place {
        match name {
            Name::Local(slot) => Place::Local(*slot),
            Name::Global(g) | Name::Cuda(_, Some(g), _) => Place::Global(*g),
            Name::Mapped { slot, global } => match frame.slots[*slot as usize] {
                Value::Void => Place::Global(*global),
                _ => Place::Local(*slot),
            },
            Name::Cuda(_, None, name) | Name::Const(_, name) | Name::Unbound(name) => {
                Place::Unbound(name.clone())
            }
        }
    }

    fn eval_unary(&self, frame: &mut Frame, op: UnaryOp, inner: &RExpr) -> IResult<Value> {
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
                let place = self.resolve_place(frame, inner)?;
                let elem = match place {
                    Place::Mem {
                        space,
                        buffer,
                        index,
                    } => {
                        return Ok(Value::Ptr(Pointer {
                            space,
                            buffer,
                            offset: index,
                        }))
                    }
                    Place::Field(..) => {
                        return Err(type_err("cannot take the address of a struct field").into())
                    }
                    Place::Local(slot) => {
                        frame.vars[slot as usize].ty.as_ref().map(|d| d.ty.clone())
                    }
                    Place::Global(_) | Place::Unbound(_) => None,
                };
                // Taking the address of a variable: MiniHPC copies it into
                // a 1-element buffer and leaves the variable as it is
                // (value semantics). Supported uses are call-by-pointer
                // out-params, handled by builtins.
                let current = self.read_place(frame, &place)?;
                let elem = elem.unwrap_or(Type::Scalar(ScalarType::Long));
                let buf = self.alloc_with(frame.space, elem, vec![current]);
                Ok(Value::Ptr(Pointer {
                    space: frame.space,
                    buffer: buf,
                    offset: 0,
                }))
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

    fn resolve_deref(&self, frame: &mut Frame, ptr_expr: &RExpr) -> IResult<Place> {
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
    pub(super) fn resolve_place(&self, frame: &mut Frame, e: &RExpr) -> IResult<Place> {
        match e {
            RExpr::Var(name) => Ok(self.name_place(frame, name)),
            RExpr::Unary(UnaryOp::Deref, expr) => self.resolve_deref(frame, expr),
            RExpr::Index(base, index) => {
                let p = self.element(frame, base, index)?;
                Ok(Place::Mem {
                    space: p.space,
                    buffer: p.buffer,
                    index: p.offset,
                })
            }
            RExpr::Member(base, arrow, field) => {
                let base_place = if *arrow {
                    self.resolve_deref(frame, base)?
                } else {
                    self.resolve_place(frame, base)?
                };
                let sv = self.read_place(frame, &base_place)?;
                let Value::Struct(s) = &sv else {
                    return Err(type_err(format!(
                        "member access '{}' on non-struct {}",
                        field.name,
                        sv.type_name()
                    ))
                    .into());
                };
                let idx = self.field_index(s, field, "struct ")?;
                Ok(Place::Field(Box::new(base_place), idx))
            }
            // Kokkos view element as lvalue: `v(i) = x;`
            RExpr::Call(call) => {
                if let Some(slot) = call.view {
                    if let Value::View(h) = &frame.slots[slot as usize] {
                        let h = h.clone();
                        return self.view_place(frame, &h, &call.args);
                    }
                }
                Err(type_err("call expression is not assignable").into())
            }
            _ => Err(type_err("expression is not assignable").into()),
        }
    }

    /// The element `base[index]` addresses.
    fn element(&self, frame: &mut Frame, base: &RExpr, index: &RExpr) -> IResult<Pointer> {
        let base_v = self.eval(frame, base)?;
        let idx = self
            .eval(frame, index)?
            .as_int()
            .ok_or_else(|| type_err("array index must be an integer"))?;
        match base_v {
            Value::Ptr(p) => {
                let off = p.offset as i64 + idx;
                if off < 0 {
                    return Err(RuntimeError::oob(format!("negative effective index {off}")).into());
                }
                Ok(Pointer {
                    offset: off as usize,
                    ..p
                })
            }
            Value::Null => Err(RuntimeError::illegal("null pointer indexed").into()),
            other => {
                Err(type_err(format!("subscripted value has type {}", other.type_name())).into())
            }
        }
    }

    pub(super) fn view_place(
        &self,
        frame: &mut Frame,
        h: &ViewHandle,
        args: &[RExpr],
    ) -> IResult<Place> {
        // Rank 1 and 2 indices stay on the stack.
        let (mut short, mut long) = ([0i64; 2], Vec::new());
        for (i, a) in args.iter().enumerate() {
            let v = self
                .eval(frame, a)?
                .as_int()
                .ok_or_else(|| type_err("view index must be an integer"))?;
            if i < 2 {
                short[i] = v;
            } else {
                if i == 2 {
                    long.extend_from_slice(&short);
                }
                long.push(v);
            }
        }
        let indices = if args.len() <= 2 {
            &short[..args.len()]
        } else {
            &long[..]
        };
        let flat = h.flat_index(indices).ok_or_else(|| {
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
            Place::Local(slot) => Ok(frame.slots[*slot as usize].clone()),
            Place::Global(g) => Ok(self.globals.borrow()[*g as usize].clone()),
            Place::Unbound(name) => Err(type_err(format!("unbound variable '{name}'")).into()),
            Place::Mem {
                space,
                buffer,
                index,
            } => self
                .mem
                .load(frame.space, *space, *buffer, *index)
                .map_err(Interrupt::from),
            Place::Field(base, idx) => {
                let v = self.read_place(frame, base)?;
                match v {
                    Value::Struct(mut s) => match s.fields.get_mut(*idx) {
                        Some(f) => Ok(std::mem::take(f)),
                        None => Err(type_err(format!("field index {idx} out of range")).into()),
                    },
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
        // Shared-write recording (opt-in): a write to the region's shared
        // snapshot — or to a global — is a write to state every worker
        // sees.
        if let Some(watch) = &frame.watch {
            let name = match place {
                Place::Local(slot) if (*slot as usize) < frame.watch_base => {
                    Some(&*frame.vars[*slot as usize].name)
                }
                Place::Global(g) => Some(&*self.prog.globals[*g as usize].name),
                Place::Unbound(name) => Some(&**name),
                _ => None,
            };
            if let Some(name) = name {
                if !watch.exempt.iter().any(|e| e == name) {
                    self.mem
                        .detector
                        .record_shared_write(watch.region, name, frame.thread);
                }
            }
        }
        match place {
            Place::Local(slot) => {
                frame.slots[*slot as usize] = value;
                Ok(())
            }
            Place::Global(g) => {
                self.globals.borrow_mut()[*g as usize] = value;
                Ok(())
            }
            Place::Unbound(name) => {
                Err(type_err(format!("assignment to unbound variable '{name}'")).into())
            }
            Place::Mem {
                space,
                buffer,
                index,
            } => self
                .mem
                .store(frame.space, *space, *buffer, *index, value, frame.thread)
                .map_err(Interrupt::from),
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

/// The value of a local or a literal, without copying it.
fn peek<'f>(frame: &'f Frame, e: &'f RExpr) -> Option<&'f Value> {
    match e {
        RExpr::Lit(v) => Some(v),
        RExpr::Var(Name::Local(slot)) => Some(&frame.slots[*slot as usize]),
        _ => None,
    }
}

fn unbound(name: &str) -> Interrupt {
    type_err(format!("use of unbound identifier '{name}' at run time")).into()
}

/// Apply a binary operator to two values with C-like promotion.
pub(super) fn apply_binop(op: BinOp, a: &Value, b: &Value) -> RtResult<Value> {
    use BinOp::*;
    let both_int =
        matches!(a, Value::Int(_) | Value::Bool(_)) && matches!(b, Value::Int(_) | Value::Bool(_));
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

    // Pointer arithmetic and comparison (no pattern matches two numbers).
    match (a, b) {
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
            let same = matches!((a, b), (Value::Null, Value::Null));
            return match op {
                Eq => Ok(Value::Bool(same)),
                Ne => Ok(Value::Bool(!same)),
                _ => Err(type_err("invalid null pointer operation")),
            };
        }
        _ => {}
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
            apply_binop(BinOp::Add, &Value::Int(2), &Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            apply_binop(BinOp::BitXor, &Value::Int(5), &Value::Int(3)).unwrap(),
            Value::Int(6)
        );
        assert_eq!(
            apply_binop(BinOp::Div, &Value::Int(7), &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn div_by_zero() {
        let err = apply_binop(BinOp::Div, &Value::Int(1), &Value::Int(0)).unwrap_err();
        assert_eq!(err.kind, RuntimeErrorKind::DivByZero);
        // Float division by zero is IEEE (inf), not an error.
        assert_eq!(
            apply_binop(BinOp::Div, &Value::Float(1.0), &Value::Float(0.0)).unwrap(),
            Value::Float(f64::INFINITY)
        );
    }

    #[test]
    fn mixed_promotes_to_float() {
        assert_eq!(
            apply_binop(BinOp::Mul, &Value::Int(2), &Value::Float(1.5)).unwrap(),
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
        match apply_binop(BinOp::Add, &p.clone(), &Value::Int(3)).unwrap() {
            Value::Ptr(q) => assert_eq!(q.offset, 7),
            other => panic!("{other:?}"),
        }
        match apply_binop(BinOp::Sub, &p.clone(), &Value::Int(4)).unwrap() {
            Value::Ptr(q) => assert_eq!(q.offset, 0),
            other => panic!("{other:?}"),
        }
        assert!(apply_binop(BinOp::Sub, &p, &Value::Int(5)).is_err());
    }

    #[test]
    fn bitwise_on_float_rejected() {
        assert!(apply_binop(BinOp::BitXor, &Value::Float(1.0), &Value::Int(1)).is_err());
    }

    #[test]
    fn null_comparisons() {
        assert_eq!(
            apply_binop(BinOp::Eq, &Value::Null, &Value::Null).unwrap(),
            Value::Bool(true)
        );
        let p = Value::Ptr(Pointer {
            space: Space::Host,
            buffer: 0,
            offset: 0,
        });
        assert_eq!(
            apply_binop(BinOp::Ne, &p, &Value::Null).unwrap(),
            Value::Bool(true)
        );
    }
}
