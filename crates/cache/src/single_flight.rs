//! The one in-process memo table of the study pipeline: probe sets, ground
//! truth cells, application traces, simulated memory profiles and the
//! sensitivity analysis' inputs are all memoized through [`SingleFlight`].

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// A concurrent map from keys to values computed at most once per key.
///
/// Each key gets its own once-cell, so concurrent cold callers of one key
/// coalesce onto a single `init` run (the rest block on the winner instead
/// of computing a duplicate and discarding it), while callers of other keys
/// proceed independently. The map lock is held only to find or insert a
/// cell, never while `init` runs, and it recovers from poisoning: a caller
/// that panicked elsewhere cannot wedge the table.
#[derive(Debug)]
pub struct SingleFlight<K, V> {
    cells: RwLock<HashMap<K, Arc<OnceLock<V>>>>,
}

impl<K, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        Self {
            cells: RwLock::default(),
        }
    }
}

impl<K: Eq + Hash, V: Clone> SingleFlight<K, V> {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The value for `key`, running `init` on the first request only.
    pub fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V {
        self.cell(key).get_or_init(init).clone()
    }

    /// How many keys hold a finished value that satisfies `pred`.
    pub fn count_ready(&self, pred: impl Fn(&V) -> bool) -> usize {
        self.cells
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|cell| cell.get().is_some_and(&pred))
            .count()
    }

    /// The key's once-cell: a shared read for the warm case, the write lock
    /// only to insert a missing cell.
    fn cell(&self, key: K) -> Arc<OnceLock<V>> {
        if let Some(cell) = self
            .cells
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Arc::clone(cell);
        }
        let mut cells = self.cells.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(cells.entry(key).or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn each_key_initializes_once() {
        let memo = SingleFlight::new();
        let runs = AtomicUsize::new(0);
        let square = |k: u64| {
            memo.get_or_init(k, || {
                runs.fetch_add(1, Ordering::Relaxed);
                k * k
            })
        };
        assert_eq!(square(3), 9);
        assert_eq!(square(3), 9);
        assert_eq!(square(4), 16);
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        assert_eq!(memo.count_ready(|_| true), 2);
        assert_eq!(memo.count_ready(|&v| v > 10), 1);
    }

    #[test]
    fn a_panicking_init_leaves_the_cell_empty_and_the_table_usable() {
        let memo: SingleFlight<u8, u64> = SingleFlight::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_init(1, || panic!("init failed"))
        }));
        assert!(caught.is_err());
        assert_eq!(memo.count_ready(|_| true), 0);
        assert_eq!(memo.get_or_init(1, || 5), 5);
    }
}
