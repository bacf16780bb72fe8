//! Expression and place closures, and the operators.

use super::*;

/// A resolved assignment target.
pub(crate) enum Place {
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

impl Place {
    fn mem(p: Pointer) -> Place {
        Place::Mem {
            space: p.space,
            buffer: p.buffer,
            index: p.offset,
        }
    }
}

pub(crate) fn lit(v: Value) -> ExprFn {
    lower(move |_, _| Ok(v.clone()))
}

/// A type error raised when evaluated.
pub(crate) fn fail(msg: String) -> ExprFn {
    lower(move |_, _| Err(type_err(msg.as_str()).into()))
}

/// A place that cannot be assigned: a type error when resolved.
pub(crate) fn fail_place(msg: &'static str) -> PlaceFn {
    lower(move |_, _| Err(type_err(msg).into()))
}

/// The value of the variable a name denotes.
pub(crate) fn var(name: Name) -> ExprFn {
    match name {
        Name::Local(slot) => {
            let slot = slot as usize;
            lower(move |_, f| Ok(f.slots[slot].clone()))
        }
        Name::Global(g) => lower(move |i, _| Ok(i.globals.borrow()[g as usize].clone())),
        Name::Mapped { slot, global } => lower(move |i, f| match &f.slots[slot as usize] {
            Value::Void => Ok(i.globals.borrow()[global as usize].clone()),
            v => Ok(v.clone()),
        }),
        Name::Cuda(dim, global, name) => lower(move |i, f| {
            if let Some(ctx) = f.cuda {
                return Ok(Value::Dim3(match dim {
                    CudaDim::ThreadIdx => ctx.thread_idx,
                    CudaDim::BlockIdx => ctx.block_idx,
                    CudaDim::BlockDim => ctx.block_dim,
                    CudaDim::GridDim => ctx.grid_dim,
                }));
            }
            match global {
                Some(g) => Ok(i.globals.borrow()[g as usize].clone()),
                None => Err(unbound(&name)),
            }
        }),
        Name::Const(v, _) => lit(v),
        Name::Unbound(name) => lower(move |_, _| Err(unbound(&name))),
    }
}

/// The variable a name denotes, as an assignment target.
pub(crate) fn var_place(name: Name) -> PlaceFn {
    match name {
        Name::Local(slot) => lower(move |_, _| Ok(Place::Local(slot))),
        name => lower(move |_, f| Ok(name_place(f, &name))),
    }
}

/// The variable `name` denotes in `frame`.
pub(super) fn name_place(frame: &Frame, name: &Name) -> Place {
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

pub(crate) fn neg(inner: ExprFn) -> ExprFn {
    lower(move |i, f| match inner(i, f)? {
        Value::Int(n) => Ok(Value::Int(-n)),
        Value::Float(x) => Ok(Value::Float(-x)),
        Value::Bool(b) => Ok(Value::Int(-i64::from(b))),
        other => Err(type_err(format!("cannot negate {}", other.type_name())).into()),
    })
}

pub(crate) fn not(inner: ExprFn) -> ExprFn {
    lower(move |i, f| Ok(Value::Bool(!inner(i, f)?.truthy())))
}

pub(crate) fn bit_not(inner: ExprFn) -> ExprFn {
    lower(move |i, f| {
        let n = inner(i, f)?
            .as_int()
            .ok_or_else(|| type_err("operator ~ requires an integer"))?;
        Ok(Value::Int(!n))
    })
}

/// The element a pointer value addresses.
fn deref_value(v: Value) -> IResult<Pointer> {
    match v {
        Value::Ptr(p) => Ok(p),
        Value::Null => Err(RuntimeError::illegal("null pointer dereference").into()),
        other => Err(type_err(format!("cannot dereference {} value", other.type_name())).into()),
    }
}

/// `*ptr`.
pub(crate) fn deref(ptr: ExprFn) -> ExprFn {
    lower(move |i, f| {
        let p = deref_value(ptr(i, f)?)?;
        Ok(i.mem.load(f.space, p.space, p.buffer, p.offset)?)
    })
}

/// `*ptr` as an assignment target.
pub(crate) fn deref_place(ptr: ExprFn) -> PlaceFn {
    lower(move |i, f| Ok(Place::mem(deref_value(ptr(i, f)?)?)))
}

/// `&place`: meaningful for memory places only.
pub(crate) fn addr_of(place: PlaceFn) -> ExprFn {
    lower(move |i, f| {
        let place = place(i, f)?;
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
            Place::Local(slot) => f.vars[slot as usize].ty.as_ref().map(|d| d.ty.clone()),
            Place::Global(_) | Place::Unbound(_) => None,
        };
        // Taking the address of a variable: MiniHPC copies it into a
        // 1-element buffer and leaves the variable as it is (value
        // semantics). Supported uses are call-by-pointer out-params,
        // handled by builtins.
        let current = i.read_place(f, &place)?;
        let elem = elem.unwrap_or(Type::Scalar(ScalarType::Long));
        let buf = i.alloc_with(f.space, elem, vec![current]);
        Ok(Value::Ptr(Pointer {
            space: f.space,
            buffer: buf,
            offset: 0,
        }))
    })
}

/// `old` incremented by `delta` (`++`/`--`).
fn bumped(old: &Value, delta: i64) -> IResult<Value> {
    match old {
        Value::Int(n) => Ok(Value::Int(n + delta)),
        Value::Float(x) => Ok(Value::Float(x + delta as f64)),
        Value::Ptr(p) => {
            let off = p.offset as i64 + delta;
            if off < 0 {
                return Err(RuntimeError::oob("pointer decremented below buffer start").into());
            }
            Ok(Value::Ptr(Pointer {
                offset: off as usize,
                ..*p
            }))
        }
        other => Err(type_err(format!("cannot increment {}", other.type_name())).into()),
    }
}

/// The step of `++`/`--`, and whether it yields the old value.
fn step_of(op: UnaryOp) -> (i64, bool) {
    let delta = if matches!(op, UnaryOp::PreInc | UnaryOp::PostInc) {
        1
    } else {
        -1
    };
    (delta, matches!(op, UnaryOp::PostInc | UnaryOp::PostDec))
}

/// `++`/`--`, prefix or postfix, on a place.
pub(crate) fn inc_dec(op: UnaryOp, place: PlaceFn) -> ExprFn {
    let (delta, post) = step_of(op);
    lower(move |i, f| {
        let place = place(i, f)?;
        let old = i.read_place(f, &place)?;
        let new = bumped(&old, delta)?;
        i.write_place(f, &place, new.clone())?;
        Ok(if post { old } else { new })
    })
}

/// [`inc_dec`] on a local slot.
pub(crate) fn inc_dec_local(op: UnaryOp, slot: u32) -> ExprFn {
    let (delta, post) = step_of(op);
    lower(move |i, f| {
        let s = slot as usize;
        let new = bumped(&f.slots[s], delta)?;
        if f.watch.is_some() {
            i.record_watched_write(f, &Place::Local(slot));
        }
        let old = std::mem::replace(&mut f.slots[s], new.clone());
        Ok(if post { old } else { new })
    })
}

/// An operand as lowered for a closure that reads it itself: a local
/// slot or a constant is read in place, without a closure call.
pub(crate) enum Operand {
    Local(u32),
    Const(Value),
    Expr(ExprFn),
}

/// How a closure specialised on an operand's shape reads it.
trait Arg: 'static {
    fn get(&self, i: &Interp<'_>, f: &mut Frame<'_>) -> IResult<Value>;
}

struct Slot(usize);

impl Arg for Slot {
    #[inline(always)]
    fn get(&self, _: &Interp<'_>, f: &mut Frame<'_>) -> IResult<Value> {
        Ok(f.slots[self.0].clone())
    }
}

impl Arg for Value {
    #[inline(always)]
    fn get(&self, _: &Interp<'_>, _: &mut Frame<'_>) -> IResult<Value> {
        Ok(self.clone())
    }
}

impl Arg for ExprFn {
    #[inline(always)]
    fn get(&self, i: &Interp<'_>, f: &mut Frame<'_>) -> IResult<Value> {
        self(i, f)
    }
}

/// Lower `a` and `b` to closure-specialised operands and build `make`'s
/// closure over them. A constant left operand is rare enough to read
/// through a closure.
macro_rules! with_operands {
    ($a:expr, $b:expr, |$x:ident, $y:ident| $make:expr) => {
        match ($a, $b) {
            (Operand::Local(a), Operand::Local(b)) => {
                let ($x, $y) = (Slot(a as usize), Slot(b as usize));
                $make
            }
            (Operand::Local(a), Operand::Const(b)) => {
                let ($x, $y) = (Slot(a as usize), b);
                $make
            }
            (Operand::Local(a), Operand::Expr(b)) => {
                let ($x, $y) = (Slot(a as usize), b);
                $make
            }
            (a, Operand::Local(b)) => {
                let ($x, $y) = (a.lowered(), Slot(b as usize));
                $make
            }
            (a, Operand::Const(b)) => {
                let ($x, $y) = (a.lowered(), b);
                $make
            }
            (a, Operand::Expr(b)) => {
                let ($x, $y) = (a.lowered(), b);
                $make
            }
        }
    };
}

impl Operand {
    /// The operand as a closure of its own.
    pub(crate) fn lowered(self) -> ExprFn {
        match self {
            Operand::Local(slot) => var(Name::Local(slot)),
            Operand::Const(v) => lit(v),
            Operand::Expr(e) => e,
        }
    }
}

/// A binary operator with both operands evaluated, left first, and its
/// numeric case tried before [`apply_binop`].
fn arith<A: Arg, B: Arg, F>(op: BinOp, a: A, b: B, fast: F) -> ExprFn
where
    F: Fn(&Value, &Value) -> Option<Value> + 'static,
{
    lower(move |i, f| {
        let x = a.get(i, f)?;
        let y = b.get(i, f)?;
        if let Some(v) = fast(&x, &y) {
            // The numeric case takes plain numbers only, which own nothing.
            std::mem::forget((x, y));
            return Ok(v);
        }
        Ok(apply_binop(op, &x, &y)?)
    })
}

pub(crate) fn binary(op: BinOp, a: Operand, b: Operand) -> ExprFn {
    match op {
        // Short-circuit logicals.
        BinOp::And => {
            let (a, b) = (a.lowered(), b.lowered());
            lower(move |i, f| Ok(Value::Bool(a(i, f)?.truthy() && b(i, f)?.truthy())))
        }
        BinOp::Or => {
            let (a, b) = (a.lowered(), b.lowered());
            lower(move |i, f| Ok(Value::Bool(a(i, f)?.truthy() || b(i, f)?.truthy())))
        }
        _ => operators::binary(op, a, b),
    }
}

/// An operator applied to two values, chosen while lowering a compound
/// assignment: its numeric case inlined, then [`apply_binop`].
pub(crate) type Apply = fn(&Value, &Value) -> RtResult<Value>;

pub(crate) fn operator(op: BinOp) -> Apply {
    operators::applied(op)
}

/// Each operator on exact `Int∘Int` and `Float∘Float` operands: `None`
/// for the pairs it rejects (integer division by zero, bitwise operators
/// on floats) and for every other operand pair, which [`apply_binop`]
/// promotes first.
macro_rules! operators {
    ($($op:ident: |$x:ident, $y:ident| $int:expr, $float:expr;)*) => {
        #[allow(non_snake_case, unused_variables)]
        mod operators {
            use super::*;
            $(
                #[inline(always)]
                pub(super) fn $op(a: &Value, b: &Value) -> Option<Value> {
                    match (a, b) {
                        (&Value::Int($x), &Value::Int($y)) => $int,
                        (&Value::Float($x), &Value::Float($y)) => $float,
                        _ => None,
                    }
                }
            )*

            /// A closure per operator, each with its numeric case inlined.
            pub(super) fn binary(op: BinOp, a: Operand, b: Operand) -> ExprFn {
                match op {
                    $(BinOp::$op => with_operands!(a, b, |x, y| arith(op, x, y, $op)),)*
                }
            }

            pub(super) fn numeric(op: BinOp) -> fn(&Value, &Value) -> Option<Value> {
                match op {
                    $(BinOp::$op => $op,)*
                }
            }

            pub(super) fn applied(op: BinOp) -> Apply {
                match op {
                    $(BinOp::$op => |a, b| $op(a, b).map_or_else(|| apply_binop(BinOp::$op, a, b), Ok),)*
                }
            }
        }
    };
}

operators! {
    Add: |x, y| Some(Value::Int(x.wrapping_add(y))), Some(Value::Float(x + y));
    Sub: |x, y| Some(Value::Int(x.wrapping_sub(y))), Some(Value::Float(x - y));
    Mul: |x, y| Some(Value::Int(x.wrapping_mul(y))), Some(Value::Float(x * y));
    Div: |x, y| (y != 0).then(|| Value::Int(x.wrapping_div(y))), Some(Value::Float(x / y));
    Rem: |x, y| (y != 0).then(|| Value::Int(x.wrapping_rem(y))), Some(Value::Float(x % y));
    Shl: |x, y| Some(Value::Int(x.wrapping_shl(y as u32 & 63))), None;
    Shr: |x, y| Some(Value::Int((x as u64 >> (y as u32 & 63)) as i64)), None;
    BitAnd: |x, y| Some(Value::Int(x & y)), None;
    BitOr: |x, y| Some(Value::Int(x | y)), None;
    BitXor: |x, y| Some(Value::Int(x ^ y)), None;
    Lt: |x, y| Some(Value::Bool(x < y)), Some(Value::Bool(x < y));
    Gt: |x, y| Some(Value::Bool(x > y)), Some(Value::Bool(x > y));
    Le: |x, y| Some(Value::Bool(x <= y)), Some(Value::Bool(x <= y));
    Ge: |x, y| Some(Value::Bool(x >= y)), Some(Value::Bool(x >= y));
    Eq: |x, y| Some(Value::Bool(x == y)), Some(Value::Bool(x == y));
    Ne: |x, y| Some(Value::Bool(x != y)), Some(Value::Bool(x != y));
    And: |x, y| Some(Value::Bool(x != 0 && y != 0)), Some(Value::Bool(x != 0.0 && y != 0.0));
    Or: |x, y| Some(Value::Bool(x != 0 || y != 0)), Some(Value::Bool(x != 0.0 || y != 0.0));
}

/// `lhs = rhs` or `lhs op= rhs`: the right side is evaluated first, then
/// the place; the value stored is the expression's value.
pub(crate) fn assign(op: Option<Apply>, place: PlaceFn, rhs: ExprFn) -> ExprFn {
    lower(move |i, f| {
        let rhs = rhs(i, f)?;
        let place = place(i, f)?;
        let value = match op {
            Some(apply) => apply(&i.read_place(f, &place)?, &rhs)?,
            None => rhs,
        };
        // Coerce to the declared type of locals so that `double x; x = 1;`
        // stores a float.
        let value = match &place {
            Place::Local(slot) => i.coerce_to(value, &f.vars[*slot as usize]),
            Place::Mem { space, buffer, .. } => i.coerce_elem(*space, *buffer, value)?,
            _ => value,
        };
        i.write_place(f, &place, value.clone())?;
        Ok(value)
    })
}

/// [`assign`] to a local slot of declared type `to`.
pub(crate) fn assign_local(
    op: Option<Apply>,
    slot: u32,
    to: Option<Rc<Declared>>,
    rhs: ExprFn,
) -> ExprFn {
    lower(move |i, f| {
        let rhs = rhs(i, f)?;
        let s = slot as usize;
        let value = match op {
            Some(apply) => apply(&f.slots[s], &rhs)?,
            None => rhs,
        };
        let value = match &to {
            Some(to) => i.coerce(value, to),
            None => value,
        };
        if f.watch.is_some() {
            i.record_watched_write(f, &Place::Local(slot));
        }
        overwrite(&mut f.slots[s], value.clone());
        Ok(value)
    })
}

pub(crate) fn ternary(cond: ExprFn, then: ExprFn, els: ExprFn) -> ExprFn {
    lower(move |i, f| {
        if cond(i, f)?.truthy() {
            then(i, f)
        } else {
            els(i, f)
        }
    })
}

/// The element `base[index]` addresses.
fn element(base: Value, index: Value) -> IResult<Pointer> {
    let idx = match index {
        Value::Int(n) => n,
        other => other
            .as_int()
            .ok_or_else(|| type_err("array index must be an integer"))?,
    };
    match base {
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
        other => Err(type_err(format!("subscripted value has type {}", other.type_name())).into()),
    }
}

/// `base[index]`.
pub(crate) fn index(base: Operand, index: Operand) -> ExprFn {
    fn load<A: Arg, B: Arg>(base: A, index: B) -> ExprFn {
        lower(move |i, f| {
            let b = base.get(i, f)?;
            let p = element(b, index.get(i, f)?)?;
            Ok(i.mem.load(f.space, p.space, p.buffer, p.offset)?)
        })
    }
    with_operands!(base, index, |b, x| load(b, x))
}

/// [`assign`] to `base[index]`.
pub(crate) fn assign_index(
    op: Option<Apply>,
    base: Operand,
    index: Operand,
    rhs: ExprFn,
) -> ExprFn {
    fn store<A: Arg, B: Arg>(op: Option<Apply>, base: A, index: B, rhs: ExprFn) -> ExprFn {
        lower(move |i, f| {
            let rhs = rhs(i, f)?;
            let b = base.get(i, f)?;
            let p = element(b, index.get(i, f)?)?;
            let value = match op {
                Some(apply) => {
                    let old = i.mem.load(f.space, p.space, p.buffer, p.offset)?;
                    apply(&old, &rhs)?
                }
                None => rhs,
            };
            let value = i.coerce_elem(p.space, p.buffer, value)?;
            let stored = value.clone();
            i.mem
                .store(f.space, p.space, p.buffer, p.offset, stored, f.thread)?;
            Ok(value)
        })
    }
    with_operands!(base, index, |b, x| store(op, b, x, rhs))
}

/// `base[index]` as an assignment target.
pub(crate) fn index_place(base: ExprFn, index: ExprFn) -> PlaceFn {
    lower(move |i, f| {
        let b = base(i, f)?;
        Ok(Place::mem(element(b, index(i, f)?)?))
    })
}

/// `base.field`, or `base->field` when `arrow`.
pub(crate) fn member(base: ExprFn, arrow: bool, field: FieldName) -> ExprFn {
    lower(move |i, f| {
        let bv = base(i, f)?;
        let sv = if arrow {
            match bv {
                Value::Ptr(p) => i.mem.load(f.space, p.space, p.buffer, p.offset)?,
                Value::Null => return Err(RuntimeError::illegal("null pointer dereference").into()),
                other => {
                    let msg = format!("'->' on non-pointer {}", other.type_name());
                    return Err(type_err(msg).into());
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
                let idx = i.field_index(&s, &field, "")?;
                Ok(std::mem::take(&mut s.fields[idx]))
            }
            other => {
                let msg = format!("member access '{member}' on {}", other.type_name());
                Err(type_err(msg).into())
            }
        }
    })
}

/// A field of the struct at `base` (already dereferenced for `->`), as an
/// assignment target.
pub(crate) fn member_place(base: PlaceFn, field: FieldName) -> PlaceFn {
    lower(move |i, f| {
        let base = base(i, f)?;
        let sv = i.read_place(f, &base)?;
        let Value::Struct(s) = &sv else {
            return Err(type_err(format!(
                "member access '{}' on non-struct {}",
                field.name,
                sv.type_name()
            ))
            .into());
        };
        let idx = i.field_index(s, &field, "struct ")?;
        Ok(Place::Field(Box::new(base), idx))
    })
}

/// A Kokkos view element as an assignment target: `v(i) = x;`.
pub(crate) fn view_element(slot: u32, args: Vec<ExprFn>) -> PlaceFn {
    lower(move |i, f| {
        if let Value::View(h) = &f.slots[slot as usize] {
            let h = h.clone();
            return i.view_place(f, &h, &args);
        }
        Err(type_err("call expression is not assignable").into())
    })
}

pub(crate) fn cast(to: Declared, e: ExprFn) -> ExprFn {
    lower(move |i, f| {
        let v = e(i, f)?;
        Ok(i.coerce(v, &to))
    })
}

/// `sizeof expr` where no declared type applies: sized by value.
pub(crate) fn size_of_value(e: ExprFn) -> ExprFn {
    lower(move |i, f| {
        let size: usize = match &e(i, f)? {
            Value::Int(_) => 4,
            Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Ptr(_) | Value::Null | Value::UntypedAlloc { .. } => 8,
            Value::Struct(s) => i.layout(&s.name).map_or(8, |l| l.fields_size),
            _ => 8,
        };
        Ok(Value::Int(size as i64))
    })
}

/// A lambda expression: a closure value over the captured slots.
pub(crate) fn lambda(lambda: Rc<Lambda>) -> ExprFn {
    lower(move |_, f| {
        Ok(Value::Lambda(Box::new(Closure {
            captures: lambda
                .captures
                .iter()
                .map(|(outer, _)| f.slots[*outer as usize].clone())
                .collect(),
            lambda: lambda.clone(),
        })))
    })
}

impl<'p> Interp<'p> {
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

    /// A value converted to the element type of a buffer it is stored in.
    fn coerce_elem(&self, space: Space, buffer: usize, value: Value) -> IResult<Value> {
        let conv = self.mem.with_elem_type(space, buffer, Conv::of)?;
        Ok(match (conv, value) {
            (Conv::Pointer, Value::UntypedAlloc { bytes }) => {
                let ty = self.mem.elem_type(space, buffer)?;
                self.typed_alloc(bytes, &ty)
            }
            (conv, value) => conv.apply(value),
        })
    }

    /// The element `v(i, j)` of view `h` addresses.
    pub(super) fn view_place(
        &self,
        frame: &mut Frame,
        h: &ViewHandle,
        args: &[ExprFn],
    ) -> IResult<Place> {
        // Rank 1 and 2 indices stay on the stack.
        let (mut short, mut long) = ([0i64; 2], Vec::new());
        for (i, a) in args.iter().enumerate() {
            let v = a(self, frame)?
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
            } => Ok(self.mem.load(frame.space, *space, *buffer, *index)?),
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

    /// Shared-write recording (opt-in): a write to the watched region's
    /// shared snapshot — or to a global — is a write to state every
    /// worker sees.
    fn record_watched_write(&self, frame: &Frame, place: &Place) {
        let Some(watch) = &frame.watch else {
            return;
        };
        let name = match place {
            Place::Local(slot) if (*slot as usize) < frame.watch_base => {
                &*frame.vars[*slot as usize].name
            }
            Place::Global(g) => &*self.prog.globals[*g as usize].name,
            Place::Unbound(name) => &**name,
            _ => return,
        };
        if !watch.exempt.iter().any(|e| e == name) {
            self.mem
                .detector
                .record_shared_write(watch.region, name, frame.thread);
        }
    }

    pub(super) fn write_place(
        &self,
        frame: &mut Frame,
        place: &Place,
        value: Value,
    ) -> IResult<()> {
        self.record_watched_write(frame, place);
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
            } => Ok(self
                .mem
                .store(frame.space, *space, *buffer, *index, value, frame.thread)?),
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

fn unbound(name: &str) -> Interrupt {
    type_err(format!("use of unbound identifier '{name}' at run time")).into()
}

/// Apply a binary operator to two values with C-like promotion. Kept out
/// of line: it is the slow path of every operator closure.
#[inline(never)]
pub(super) fn apply_binop(op: BinOp, a: &Value, b: &Value) -> RtResult<Value> {
    use BinOp::*;
    let numeric = operators::numeric(op);
    if let Some(v) = numeric(a, b) {
        return Ok(v);
    }
    // Bools promote to integers.
    let int = |v: &Value| match v {
        Value::Int(n) => Some(*n),
        Value::Bool(b) => Some(i64::from(*b)),
        _ => None,
    };
    if let (Some(x), Some(y)) = (int(a), int(b)) {
        return numeric(&Value::Int(x), &Value::Int(y)).ok_or_else(|| {
            let what = if op == Div { "division" } else { "modulo" };
            RuntimeError::new(
                RuntimeErrorKind::DivByZero,
                format!("integer {what} by zero"),
            )
        });
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
    numeric(&Value::Float(x), &Value::Float(y)).ok_or_else(|| {
        type_err(format!(
            "bitwise operator '{}' requires integer operands",
            op.symbol()
        ))
    })
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
