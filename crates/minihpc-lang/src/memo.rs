//! [`OnceMap`], the memo behind every content-derived cache in the
//! workspace.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A map from keys to lazily derived values, each key with its own
/// once-cell. The map's lock is held only to find or insert a cell, never
/// while a value is derived, so a derivation may use the map for other
/// keys. A concurrent caller of a key being derived waits for that
/// derivation, so each key is derived once however threads interleave. A
/// derivation that panics leaves its cell empty for the next call.
#[derive(Debug)]
pub struct OnceMap<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    derivations: AtomicUsize,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        OnceMap {
            cells: Mutex::new(HashMap::new()),
            derivations: AtomicUsize::new(0),
        }
    }
}

impl<K, V> OnceMap<K, V> {
    /// Derivations begun so far, including ones that panicked.
    pub fn derivations(&self) -> usize {
        self.derivations.load(Ordering::Relaxed)
    }
}

impl<K: Hash + Eq, V: Clone> OnceMap<K, V> {
    /// The value under `key`, running `derive` if no call has derived it
    /// yet. `derive` must not ask for its own key.
    pub fn get_or_init(&self, key: K, derive: impl FnOnce() -> V) -> V {
        let cell = Arc::clone(self.cells().entry(key).or_default());
        // The cell keeps a clone and the caller gets the derived value: a
        // clone has no spare capacity, so the memo holds only what it needs.
        let mut derived = None;
        let stored = cell.get_or_init(|| {
            self.derivations.fetch_add(1, Ordering::Relaxed);
            let value = derive();
            let stored = value.clone();
            derived = Some(value);
            stored
        });
        derived.unwrap_or_else(|| stored.clone())
    }

    /// The value under `key` if one has been derived; never derives.
    pub fn get(&self, key: &K) -> Option<V> {
        self.cells().get(key)?.get().cloned()
    }

    /// Keys holding a derived value.
    pub fn len(&self) -> usize {
        self.cells().values().filter(|c| c.get().is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn cells(&self) -> MutexGuard<'_, HashMap<K, Arc<OnceLock<V>>>> {
        // Every critical section is one lookup or insert, and no
        // derivation runs under the lock, so a poisoned map is intact.
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_fills_lazily_and_derives_each_key_once() {
        let memo = OnceMap::default();
        assert!(memo.is_empty(), "a new map holds no values");
        assert_eq!(memo.get(&1), None, "`get` must not derive");
        assert_eq!(memo.get_or_init(1, || 10_u32), 10);
        assert_eq!(
            memo.get_or_init(1, || 11_u32),
            10,
            "a warm call must not derive"
        );
        assert_eq!(memo.get(&1), Some(10));
        assert_eq!(memo.derivations(), 1);
        // No lock is held while deriving, so a derivation may use the map
        // for another key.
        let outer = memo.get_or_init(2, || memo.get_or_init(3, || 20_u32) + 1);
        assert_eq!(outer, 21);
        assert_eq!(memo.get_or_init(3, || 30_u32), 20);
        assert_eq!(memo.derivations(), 3);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn concurrent_callers_of_one_key_share_one_derivation() {
        // The second thread asks for the key while the first is deriving
        // it. It must wait for that result, not derive its own: the work
        // of a memoised grid must not depend on how its workers interleave.
        let memo = OnceMap::default();
        let deriving = std::sync::Barrier::new(2);
        let (first, second) = std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                memo.get_or_init(7, || {
                    deriving.wait();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    1_u32
                })
            });
            deriving.wait();
            let second = memo.get_or_init(7, || 2_u32);
            (first.join().expect("first caller"), second)
        });
        assert_eq!((first, second), (1, 1));
        assert_eq!(memo.derivations(), 1);
    }

    #[test]
    fn a_panicking_derivation_leaves_its_cell_empty() {
        let memo = OnceMap::default();
        let panicked =
            std::panic::catch_unwind(|| memo.get_or_init(5, || -> u32 { panic!("bad") }));
        assert!(panicked.is_err());
        assert_eq!(memo.get(&5), None, "a failure must not be memoised");
        assert!(memo.is_empty());
        assert_eq!(memo.derivations(), 1, "a panicked derivation counts");
        assert_eq!(memo.get_or_init(5, || 50_u32), 50, "the next call derives");
        assert_eq!(memo.derivations(), 2);
    }
}
