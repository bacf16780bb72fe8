//! Runtime values for the MiniHPC interpreter.

use crate::resolve::Lambda;
use minihpc_lang::ast::{ScalarType, Type};
use std::rc::Rc;

/// Which address space a pointer or buffer lives in. The simulated GPU has a
/// discrete memory: host dereferences of device pointers (and vice versa)
/// are illegal accesses, reproducing the classic missing-`cudaMemcpy` /
/// missing-`map` failure modes at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    Host,
    Device,
}

/// An element-addressed pointer into a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pointer {
    pub space: Space,
    pub buffer: usize,
    /// Offset in *elements* (MiniHPC pointer arithmetic is element-wise;
    /// `sizeof` still reports C-like byte sizes for allocation arithmetic).
    pub offset: usize,
}

/// CUDA `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    pub fn new(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    pub fn scalar(n: u32) -> Self {
        Dim3 { x: n, y: 1, z: 1 }
    }

    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

/// A struct value (by-value semantics, fields ordered per the definition).
/// The name is shared with the struct's layout, so copying a value does
/// not copy its name.
#[derive(Debug, Clone, PartialEq)]
pub struct StructVal {
    pub name: Rc<str>,
    pub fields: Vec<Value>,
}

/// A Kokkos view handle: a reference to a (device or host) buffer plus its
/// logical shape. Copying the handle shares the buffer, exactly like Kokkos.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewHandle {
    pub space: Space,
    pub buffer: usize,
    pub dims: [usize; 2],
    pub rank: u8,
    pub elem: ScalarType,
}

impl ViewHandle {
    pub fn len(&self) -> usize {
        match self.rank {
            1 => self.dims[0],
            _ => self.dims[0] * self.dims[1],
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn flat_index(&self, indices: &[i64]) -> Option<usize> {
        match (self.rank, indices) {
            (1, [i]) if *i >= 0 && (*i as usize) < self.dims[0] => Some(*i as usize),
            (2, [i, j])
                if *i >= 0
                    && (*i as usize) < self.dims[0]
                    && *j >= 0
                    && (*j as usize) < self.dims[1] =>
            {
                Some(*i as usize * self.dims[1] + *j as usize)
            }
            _ => None,
        }
    }
}

/// A Kokkos execution policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Policy {
    Range { lo: i64, hi: i64 },
    MDRange { lo: [i64; 2], hi: [i64; 2] },
}

/// A lambda closure: the resolved lambda, shared by every closure its
/// expression creates, and the values it captured when it was created.
#[derive(Debug, Clone)]
pub struct Closure {
    pub(crate) lambda: Rc<Lambda>,
    pub(crate) captures: Vec<Value>,
}

impl PartialEq for Closure {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.lambda, &other.lambda)
    }
}

/// A runtime value.
#[derive(Debug, PartialEq, Default)]
pub enum Value {
    #[default]
    Void,
    Int(i64),
    Float(f64),
    Bool(bool),
    Ptr(Pointer),
    /// The null pointer.
    Null,
    Str(Rc<str>),
    Dim3(Dim3),
    Struct(Box<StructVal>),
    View(ViewHandle),
    Policy(Policy),
    Lambda(Box<Closure>),
    /// `malloc`'s raw result: typed on first assignment to a typed pointer.
    UntypedAlloc {
        bytes: usize,
    },
}

impl Clone for Value {
    /// Inline for the variants without heap data: reading a variable
    /// copies its value, so this is on every access.
    #[inline(always)]
    fn clone(&self) -> Self {
        match self {
            Value::Void => Value::Void,
            Value::Int(v) => Value::Int(*v),
            Value::Float(v) => Value::Float(*v),
            Value::Bool(b) => Value::Bool(*b),
            Value::Ptr(p) => Value::Ptr(*p),
            Value::Null => Value::Null,
            Value::Dim3(d) => Value::Dim3(*d),
            Value::UntypedAlloc { bytes } => Value::UntypedAlloc { bytes: *bytes },
            _ => self.clone_shared(),
        }
    }
}

impl Value {
    /// [`Clone::clone`] of the variants that own or share heap data.
    #[inline(never)]
    fn clone_shared(&self) -> Self {
        match self {
            Value::Str(s) => Value::Str(s.clone()),
            Value::Struct(s) => Value::Struct(s.clone()),
            Value::View(v) => Value::View(v.clone()),
            Value::Policy(p) => Value::Policy(p.clone()),
            Value::Lambda(l) => Value::Lambda(l.clone()),
            _ => unreachable!("plain variants are cloned inline"),
        }
    }

    /// Does the value own or share heap data, so that dropping it does
    /// work?
    #[inline(always)]
    fn owns_heap(&self) -> bool {
        matches!(self, Value::Str(_) | Value::Struct(_) | Value::Lambda(_))
    }

    /// Truthiness for conditions.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Bool(b) => *b,
            Value::Ptr(_) | Value::View(_) => true,
            Value::Null => false,
            Value::Str(s) => !s.is_empty(),
            _ => false,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) => Some(*v as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(f64::from(u8::from(*b))),
            _ => None,
        }
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Void => "void",
            Value::Int(_) => "int",
            Value::Float(_) => "double",
            Value::Bool(_) => "bool",
            Value::Ptr(_) => "pointer",
            Value::Null => "nullptr",
            Value::Str(_) => "string",
            Value::Dim3(_) => "dim3",
            Value::Struct(_) => "struct",
            Value::View(_) => "Kokkos::View",
            Value::Policy(_) => "Kokkos::Policy",
            Value::Lambda(_) => "lambda",
            Value::UntypedAlloc { .. } => "void*",
        }
    }
}

/// Store `v` in `slot`. `Value` is recursive, so its drop glue is an
/// out-of-line call; an old value that owns nothing skips it.
#[inline(always)]
pub(crate) fn overwrite(slot: &mut Value, v: Value) {
    let old = std::mem::replace(slot, v);
    if old.owns_heap() {
        drop(old);
    } else {
        std::mem::forget(old);
    }
}

/// How a value converts on assignment to a declared type: a scalar
/// conversion, or (for pointers) typing `malloc`'s untyped allocation.
/// Decided once per type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Conv {
    Keep,
    Float,
    Int,
    Bool,
    Dim3,
    Pointer,
}

impl Conv {
    pub(crate) fn of(ty: &Type) -> Conv {
        match ty.unqualified() {
            Type::Scalar(s) if s.is_float() => Conv::Float,
            Type::Scalar(ScalarType::Bool) => Conv::Bool,
            Type::Scalar(s) if s.is_integer() => Conv::Int,
            Type::Ptr(_) => Conv::Pointer,
            Type::Dim3 => Conv::Dim3,
            _ => Conv::Keep,
        }
    }

    /// The scalar conversions; a pointer conversion is the interpreter's.
    #[inline]
    pub(crate) fn apply(self, v: Value) -> Value {
        match (self, v) {
            (Conv::Float, Value::Int(n)) => Value::Float(n as f64),
            (Conv::Int | Conv::Bool, Value::Float(f)) => Value::Int(f as i64),
            (Conv::Bool, Value::Int(n)) => Value::Bool(n != 0),
            (Conv::Int | Conv::Bool, Value::Bool(b)) => Value::Int(i64::from(b)),
            (Conv::Dim3, Value::Int(n)) => Value::Dim3(Dim3::scalar(n.max(0) as u32)),
            (_, v) => v,
        }
    }
}

/// Byte size of a type, for `sizeof` and allocation arithmetic.
pub fn byte_size(ty: &Type, struct_sizes: &dyn Fn(&str) -> Option<usize>) -> usize {
    match ty.unqualified() {
        Type::Scalar(s) => match s {
            ScalarType::Void => 1,
            ScalarType::Bool | ScalarType::Char => 1,
            ScalarType::Int => 4,
            ScalarType::Long | ScalarType::SizeT => 8,
            ScalarType::Float => 4,
            ScalarType::Double => 8,
        },
        Type::Ptr(_) => 8,
        Type::Named(n) => struct_sizes(n).unwrap_or(8),
        Type::Dim3 => 12,
        Type::View { .. } => 16,
        Type::Const(_) => unreachable!("unqualified strips const"),
    }
}

/// The zero value of a type (for fresh allocations).
pub fn zero_value(ty: &Type) -> Value {
    match ty.unqualified() {
        Type::Scalar(s) => match s {
            ScalarType::Float | ScalarType::Double => Value::Float(0.0),
            ScalarType::Bool => Value::Bool(false),
            ScalarType::Void => Value::Void,
            _ => Value::Int(0),
        },
        Type::Ptr(_) => Value::Null,
        Type::Dim3 => Value::Dim3(Dim3::new(0, 0, 0)),
        _ => Value::Int(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Float(0.5).truthy());
        assert!(!Value::Null.truthy());
        assert!(Value::Ptr(Pointer {
            space: Space::Host,
            buffer: 0,
            offset: 0
        })
        .truthy());
    }

    #[test]
    fn dim3_count() {
        assert_eq!(Dim3::new(2, 3, 1).count(), 6);
        assert_eq!(Dim3::scalar(32).count(), 32);
    }

    #[test]
    fn view_flat_index_rank2() {
        let v = ViewHandle {
            space: Space::Device,
            buffer: 0,
            dims: [4, 8],
            rank: 2,
            elem: ScalarType::Double,
        };
        assert_eq!(v.flat_index(&[0, 0]), Some(0));
        assert_eq!(v.flat_index(&[1, 2]), Some(10));
        assert_eq!(v.flat_index(&[4, 0]), None, "row out of range");
        assert_eq!(v.flat_index(&[0, 8]), None, "col out of range");
        assert_eq!(v.flat_index(&[-1, 0]), None);
        assert_eq!(v.len(), 32);
    }

    #[test]
    fn byte_sizes() {
        let no_structs = |_: &str| None;
        assert_eq!(byte_size(&Type::INT, &no_structs), 4);
        assert_eq!(byte_size(&Type::DOUBLE, &no_structs), 8);
        assert_eq!(byte_size(&Type::ptr(Type::DOUBLE), &no_structs), 8);
        assert_eq!(byte_size(&Type::Scalar(ScalarType::SizeT), &no_structs), 8);
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Float(3.9).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::Str("x".into()).as_int(), None);
    }
}
