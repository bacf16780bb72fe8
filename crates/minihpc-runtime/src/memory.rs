//! The simulated memory system: separate host and device address spaces with
//! explicit transfers, plus an optional write-race detector.
//!
//! A run executes on one OS thread, so the pools are plain `RefCell`s. The
//! interpreter's logical threads (CUDA threads, Kokkos indices, OpenMP
//! workers) run one after another, and a racy *translated program* shows
//! up as detector findings attributed by logical thread id.

use crate::value::{Space, Value};
use minihpc_lang::ast::Type;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

/// A runtime error raised by memory operations or the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeError {
    pub kind: RuntimeErrorKind,
    pub message: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeErrorKind {
    /// Host dereference of device memory or vice versa.
    IllegalAccess,
    /// Out-of-bounds buffer access.
    OutOfBounds,
    /// Use of a freed buffer.
    UseAfterFree,
    /// Interpreter step budget exhausted (runaway loop ≈ run timeout).
    StepLimit,
    /// Division by zero.
    DivByZero,
    /// Construct the interpreter does not model.
    Unsupported,
    /// Type confusion at run time (escaped static checking).
    TypeError,
}

impl RuntimeError {
    pub fn new(kind: RuntimeErrorKind, message: impl Into<String>) -> Self {
        RuntimeError {
            kind,
            message: message.into(),
        }
    }

    pub fn illegal(message: impl Into<String>) -> Self {
        Self::new(RuntimeErrorKind::IllegalAccess, message)
    }

    pub fn oob(message: impl Into<String>) -> Self {
        Self::new(RuntimeErrorKind::OutOfBounds, message)
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

impl std::error::Error for RuntimeError {}

pub type RtResult<T> = Result<T, RuntimeError>;

struct Buffer {
    data: Vec<Value>,
    elem: Type,
    freed: bool,
}

fn use_after_free(space: Space, buffer: usize) -> RuntimeError {
    RuntimeError::new(
        RuntimeErrorKind::UseAfterFree,
        format!("use of freed {space:?} buffer {buffer}"),
    )
}

fn invalid_handle(space: Space, buffer: usize) -> RuntimeError {
    RuntimeError::illegal(format!("invalid {space:?} buffer handle {buffer}"))
}

/// A recorded write for the race detector: (buffer, element) by logical
/// thread id.
#[derive(Debug, Default)]
pub struct RaceDetector {
    enabled: bool,
    /// Also record conflicting writes to *shared scalars* of parallel
    /// regions (the dropped-`reduction` defect). Opt-in and test-only: the
    /// interpreter uses it to cross-validate the static analyzer.
    shared_enabled: bool,
    /// element → first writer thread. A second writer with a different id is
    /// a race.
    writes: RefCell<HashMap<(usize, usize), u64>>,
    /// (region, variable) → first writer thread; `u64::MAX` marks a
    /// conflict already reported, so each racy scalar is flagged once.
    shared_writes: RefCell<HashMap<(u64, String), u64>>,
    races: RefCell<Vec<String>>,
}

impl RaceDetector {
    pub fn record_write(&self, buffer: usize, index: usize, thread: u64) {
        if !self.enabled {
            return;
        }
        let mut writes = self.writes.borrow_mut();
        match writes.get(&(buffer, index)) {
            Some(&prev) if prev != thread => {
                self.races.borrow_mut().push(format!(
                    "write-write race on device buffer {buffer} element {index}: \
                     threads {prev} and {thread}"
                ));
            }
            Some(_) => {}
            None => {
                writes.insert((buffer, index), thread);
            }
        }
    }

    /// Record a write to a shared scalar `name` of parallel region
    /// `region`. Two workers writing the same shared scalar is a
    /// conflicting-write race (a reduction clause would have privatized
    /// it).
    pub fn record_shared_write(&self, region: u64, name: &str, thread: u64) {
        if !self.shared_enabled {
            return;
        }
        let mut writes = self.shared_writes.borrow_mut();
        match writes.get_mut(&(region, name.to_string())) {
            Some(prev) if *prev != thread && *prev != u64::MAX => {
                self.races.borrow_mut().push(format!(
                    "conflicting shared write to '{name}' in parallel region {region}: \
                     threads {} and {thread}",
                    *prev
                ));
                *prev = u64::MAX;
            }
            Some(_) => {}
            None => {
                writes.insert((region, name.to_string()), thread);
            }
        }
    }

    /// Is shared-scalar recording on? (Lets callers skip watch bookkeeping
    /// entirely on ordinary runs.)
    pub fn recording_shared(&self) -> bool {
        self.shared_enabled
    }

    /// Reset per-kernel state (races accumulate across the run).
    pub fn begin_kernel(&self) {
        if self.enabled {
            self.writes.borrow_mut().clear();
        }
    }

    pub fn races(&self) -> Vec<String> {
        self.races.borrow().clone()
    }

    /// Distinct shared-scalar names that conflicted (sorted, deduped) —
    /// the variables `record_shared_write` marked with `u64::MAX`. This is
    /// the dynamic ground truth the differential tests compare against the
    /// static analyzer's per-variable error findings.
    pub fn shared_conflict_vars(&self) -> Vec<String> {
        let writes = self.shared_writes.borrow();
        let mut vars: Vec<String> = writes
            .iter()
            .filter(|(_, &thread)| thread == u64::MAX)
            .map(|((_, name), _)| name.clone())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }
}

/// Host + device memory.
///
/// Pools are append-only `RefCell<Vec<Buffer>>` so allocation can happen
/// from any execution context (e.g. a function with a local array called
/// from inside a kernel) without `&mut` access. No borrow outlives the
/// method that takes it.
pub struct Memory {
    host: RefCell<Vec<Buffer>>,
    device: RefCell<Vec<Buffer>>,
    pub detector: RaceDetector,
}

impl Memory {
    pub fn new(detect_races: bool, record_shared_writes: bool) -> Self {
        Memory {
            host: RefCell::new(Vec::new()),
            device: RefCell::new(Vec::new()),
            detector: RaceDetector {
                enabled: detect_races,
                shared_enabled: record_shared_writes,
                ..RaceDetector::default()
            },
        }
    }

    fn pool(&self, space: Space) -> &RefCell<Vec<Buffer>> {
        match space {
            Space::Host => &self.host,
            Space::Device => &self.device,
        }
    }

    /// Allocate a buffer of `len` elements of `elem`, zero-initialised.
    pub fn alloc(&self, space: Space, elem: Type, len: usize, zero: Value) -> usize {
        let mut pool = self.pool(space).borrow_mut();
        pool.push(Buffer {
            data: vec![zero; len],
            elem,
            freed: false,
        });
        pool.len() - 1
    }

    pub fn free(&self, space: Space, buffer: usize) -> RtResult<()> {
        let mut pool = self.pool(space).borrow_mut();
        let buf = pool
            .get_mut(buffer)
            .ok_or_else(|| invalid_handle(space, buffer))?;
        if buf.freed {
            return Err(RuntimeError::new(
                RuntimeErrorKind::UseAfterFree,
                format!("double free of {space:?} buffer {buffer}"),
            ));
        }
        buf.freed = true;
        buf.data.clear();
        Ok(())
    }

    /// Run `f` on the live elements of a buffer.
    fn read<R>(
        &self,
        space: Space,
        buffer: usize,
        f: impl FnOnce(&[Value]) -> RtResult<R>,
    ) -> RtResult<R> {
        let pool = self.pool(space).borrow();
        let buf = pool
            .get(buffer)
            .ok_or_else(|| invalid_handle(space, buffer))?;
        if buf.freed {
            return Err(use_after_free(space, buffer));
        }
        f(&buf.data)
    }

    /// Run `f` on the live elements of a buffer, mutably.
    fn write<R>(
        &self,
        space: Space,
        buffer: usize,
        f: impl FnOnce(&mut [Value]) -> RtResult<R>,
    ) -> RtResult<R> {
        let mut pool = self.pool(space).borrow_mut();
        let buf = pool
            .get_mut(buffer)
            .ok_or_else(|| invalid_handle(space, buffer))?;
        if buf.freed {
            return Err(use_after_free(space, buffer));
        }
        f(&mut buf.data)
    }

    /// Load an element, enforcing that `ctx_space` (the executing context)
    /// matches the buffer's space.
    pub fn load(
        &self,
        ctx_space: Space,
        space: Space,
        buffer: usize,
        index: usize,
    ) -> RtResult<Value> {
        if ctx_space != space {
            return Err(RuntimeError::illegal(format!(
                "{ctx_space:?} code dereferenced a {space:?} pointer \
                 (buffer {buffer}); copy the data with cudaMemcpy / map / deep_copy first"
            )));
        }
        self.read(space, buffer, |data| {
            data.get(index).cloned().ok_or_else(|| {
                RuntimeError::oob(format!(
                    "index {index} out of bounds for {space:?} buffer {buffer} of length {}",
                    data.len()
                ))
            })
        })
    }

    /// Store an element (same space rule as [`Memory::load`]).
    pub fn store(
        &self,
        ctx_space: Space,
        space: Space,
        buffer: usize,
        index: usize,
        value: Value,
        thread: u64,
    ) -> RtResult<()> {
        if ctx_space != space {
            return Err(RuntimeError::illegal(format!(
                "{ctx_space:?} code wrote through a {space:?} pointer (buffer {buffer})"
            )));
        }
        self.write(space, buffer, |data| {
            *slot_mut(data, space, buffer, index)? = value;
            Ok(())
        })?;
        if space == Space::Device {
            self.detector.record_write(buffer, index, thread);
        }
        Ok(())
    }

    /// Read-modify-write add (the `atomicAdd` primitive).
    pub fn fetch_add(
        &self,
        ctx_space: Space,
        space: Space,
        buffer: usize,
        index: usize,
        delta: &Value,
    ) -> RtResult<Value> {
        if ctx_space != space {
            return Err(RuntimeError::illegal(format!(
                "{ctx_space:?} code atomicAdd on a {space:?} pointer (buffer {buffer})"
            )));
        }
        self.write(space, buffer, |data| {
            let slot = slot_mut(data, space, buffer, index)?;
            let old = slot.clone();
            *slot = match (&old, delta) {
                (Value::Int(a), d) => Value::Int(a + d.as_int().unwrap_or(0)),
                (Value::Float(a), d) => Value::Float(a + d.as_float().unwrap_or(0.0)),
                _ => {
                    return Err(RuntimeError::new(
                        RuntimeErrorKind::TypeError,
                        "atomicAdd on non-numeric element",
                    ))
                }
            };
            Ok(old)
        })
    }

    /// Length (element count) of a buffer.
    pub fn len_of(&self, space: Space, buffer: usize) -> RtResult<usize> {
        let pool = self.pool(space).borrow();
        let buf = pool
            .get(buffer)
            .ok_or_else(|| invalid_handle(space, buffer))?;
        Ok(buf.data.len())
    }

    pub fn elem_type(&self, space: Space, buffer: usize) -> RtResult<Type> {
        self.with_elem_type(space, buffer, Type::clone)
    }

    /// Apply `f` to a buffer's element type without cloning it. `f` must
    /// not use this memory.
    pub fn with_elem_type<R>(
        &self,
        space: Space,
        buffer: usize,
        f: impl FnOnce(&Type) -> R,
    ) -> RtResult<R> {
        let pool = self.pool(space).borrow();
        let buf = pool
            .get(buffer)
            .ok_or_else(|| invalid_handle(space, buffer))?;
        Ok(f(&buf.elem))
    }

    /// Copy `len` elements between buffers (the `cudaMemcpy` / `map` /
    /// `deep_copy` primitive — allowed to cross spaces by design).
    #[allow(clippy::too_many_arguments)]
    pub fn copy(
        &self,
        dst_space: Space,
        dst: usize,
        dst_off: usize,
        src_space: Space,
        src: usize,
        src_off: usize,
        len: usize,
    ) -> RtResult<()> {
        // Source and destination may share a pool, so the values are
        // copied out before the destination is borrowed.
        let values: Vec<Value> = self.read(src_space, src, |data| {
            if src_off + len > data.len() {
                return Err(RuntimeError::oob(format!(
                    "copy source range {src_off}..{} exceeds buffer length {}",
                    src_off + len,
                    data.len()
                )));
            }
            Ok(data[src_off..src_off + len].to_vec())
        })?;
        self.write(dst_space, dst, |data| {
            if dst_off + len > data.len() {
                return Err(RuntimeError::oob(format!(
                    "copy destination range {dst_off}..{} exceeds buffer length {}",
                    dst_off + len,
                    data.len()
                )));
            }
            data[dst_off..dst_off + len].clone_from_slice(&values);
            Ok(())
        })
    }

    /// Fill `len` elements with a value (the `memset` primitive).
    pub fn fill(
        &self,
        ctx_space: Space,
        space: Space,
        buffer: usize,
        offset: usize,
        len: usize,
        value: Value,
    ) -> RtResult<()> {
        if ctx_space != space {
            return Err(RuntimeError::illegal(format!(
                "{ctx_space:?} code memset a {space:?} pointer"
            )));
        }
        self.write(space, buffer, |data| {
            let end = offset + len;
            if end > data.len() {
                return Err(RuntimeError::oob(format!(
                    "memset range {offset}..{end} exceeds buffer length {}",
                    data.len()
                )));
            }
            data[offset..end].fill(value);
            Ok(())
        })
    }
}

/// Element `index` of a buffer's data, bounds-checked.
fn slot_mut(data: &mut [Value], space: Space, buffer: usize, index: usize) -> RtResult<&mut Value> {
    let len = data.len();
    data.get_mut(index).ok_or_else(|| {
        RuntimeError::oob(format!(
            "index {index} out of bounds for {space:?} buffer {buffer} of length {len}"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(false, false)
    }

    #[test]
    fn alloc_load_store() {
        let m = mem();
        let b = m.alloc(Space::Host, Type::INT, 4, Value::Int(0));
        m.store(Space::Host, Space::Host, b, 2, Value::Int(42), 0)
            .unwrap();
        assert_eq!(
            m.load(Space::Host, Space::Host, b, 2).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            m.load(Space::Host, Space::Host, b, 0).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn cross_space_access_is_illegal() {
        let m = mem();
        let d = m.alloc(Space::Device, Type::INT, 4, Value::Int(0));
        let err = m.load(Space::Host, Space::Device, d, 0).unwrap_err();
        assert_eq!(err.kind, RuntimeErrorKind::IllegalAccess);
        let err = m
            .store(Space::Device, Space::Host, 0, 0, Value::Int(1), 0)
            .unwrap_err();
        assert_eq!(err.kind, RuntimeErrorKind::IllegalAccess);
    }

    #[test]
    fn out_of_bounds() {
        let m = mem();
        let b = m.alloc(Space::Host, Type::INT, 4, Value::Int(0));
        let err = m.load(Space::Host, Space::Host, b, 4).unwrap_err();
        assert_eq!(err.kind, RuntimeErrorKind::OutOfBounds);
    }

    #[test]
    fn copy_crosses_spaces() {
        let m = mem();
        let h = m.alloc(Space::Host, Type::INT, 4, Value::Int(7));
        let d = m.alloc(Space::Device, Type::INT, 4, Value::Int(0));
        m.copy(Space::Device, d, 0, Space::Host, h, 0, 4).unwrap();
        assert_eq!(
            m.load(Space::Device, Space::Device, d, 0).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn copy_bounds_checked() {
        let m = mem();
        let h = m.alloc(Space::Host, Type::INT, 4, Value::Int(0));
        let d = m.alloc(Space::Device, Type::INT, 2, Value::Int(0));
        let err = m
            .copy(Space::Device, d, 0, Space::Host, h, 0, 4)
            .unwrap_err();
        assert_eq!(err.kind, RuntimeErrorKind::OutOfBounds);
    }

    #[test]
    fn double_free_and_use_after_free() {
        let m = mem();
        let b = m.alloc(Space::Host, Type::INT, 4, Value::Int(0));
        m.free(Space::Host, b).unwrap();
        assert_eq!(
            m.free(Space::Host, b).unwrap_err().kind,
            RuntimeErrorKind::UseAfterFree
        );
        assert_eq!(
            m.load(Space::Host, Space::Host, b, 0).unwrap_err().kind,
            RuntimeErrorKind::UseAfterFree
        );
    }

    #[test]
    fn race_detector_flags_conflicting_writes() {
        let m = Memory::new(true, false);
        let d = m.alloc(Space::Device, Type::INT, 4, Value::Int(0));
        m.detector.begin_kernel();
        m.store(Space::Device, Space::Device, d, 1, Value::Int(1), 10)
            .unwrap();
        m.store(Space::Device, Space::Device, d, 1, Value::Int(2), 11)
            .unwrap();
        // Same thread rewriting is fine.
        m.store(Space::Device, Space::Device, d, 2, Value::Int(1), 5)
            .unwrap();
        m.store(Space::Device, Space::Device, d, 2, Value::Int(2), 5)
            .unwrap();
        let races = m.detector.races();
        assert_eq!(races.len(), 1);
        assert!(races[0].contains("element 1"));
    }

    #[test]
    fn shared_write_recorder_flags_cross_thread_scalar_writes() {
        let m = Memory::new(false, true);
        // Same thread rewriting a shared scalar is fine.
        m.detector.record_shared_write(0, "sum", 3);
        m.detector.record_shared_write(0, "sum", 3);
        assert!(m.detector.races().is_empty());
        // A second thread conflicts — reported exactly once.
        m.detector.record_shared_write(0, "sum", 4);
        m.detector.record_shared_write(0, "sum", 5);
        let races = m.detector.races();
        assert_eq!(races.len(), 1);
        assert!(races[0].contains("'sum'"), "{races:?}");
        // Distinct regions are independent.
        m.detector.record_shared_write(1, "sum", 0);
        assert_eq!(m.detector.races().len(), 1);
        // Off by default: no recording.
        let off = Memory::new(false, false);
        off.detector.record_shared_write(0, "x", 1);
        off.detector.record_shared_write(0, "x", 2);
        assert!(off.detector.races().is_empty());
    }

    #[test]
    fn fill_respects_bounds() {
        let m = mem();
        let b = m.alloc(Space::Host, Type::INT, 4, Value::Int(1));
        m.fill(Space::Host, Space::Host, b, 1, 2, Value::Int(9))
            .unwrap();
        assert_eq!(
            m.load(Space::Host, Space::Host, b, 0).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            m.load(Space::Host, Space::Host, b, 1).unwrap(),
            Value::Int(9)
        );
        assert_eq!(
            m.load(Space::Host, Space::Host, b, 2).unwrap(),
            Value::Int(9)
        );
        assert!(m
            .fill(Space::Host, Space::Host, b, 3, 5, Value::Int(0))
            .is_err());
    }
}
