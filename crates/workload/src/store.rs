//! The one bounded result cache behind every cached layer: whole
//! artifacts per job spec, per-architecture characterization rows per
//! measurement shape, and distributed shard results per shard spec.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// A bounded FIFO map from a value's **full identity string** to the
/// value, shared by handle: clones see (and fill) the same entries,
/// which is how executor threads, cloned [`crate::Runtime`]s and a
/// coordinator's rounds share one cache.
///
/// The key is the whole identity (a spec's canonical JSON, a row's
/// content address), never a hash of it, so two different identities
/// can never collide onto one entry. Cached values are pure functions
/// of their identity, so recency carries no correctness weight: FIFO
/// keeps eviction O(1) with no bookkeeping on a hit, and inserts are
/// first-writer-wins (a racing writer computed the same value).
#[derive(Debug, Clone)]
pub struct Store<V> {
    inner: Arc<Mutex<Inner<V>>>,
}

#[derive(Debug)]
struct Inner<V> {
    entries: HashMap<String, V>,
    order: VecDeque<String>,
    capacity: usize,
}

impl<V: Clone> Store<V> {
    /// A store holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Inner {
                entries: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
            })),
        }
    }

    /// The value stored under `key`, if resident.
    pub fn get(&self, key: &str) -> Option<V> {
        self.lock().entries.get(key).cloned()
    }

    /// Stores `value` under `key`, evicting the oldest entry when
    /// full. A key already present keeps its first value and its
    /// place in the eviction order.
    pub fn insert(&self, key: String, value: V) {
        let mut inner = self.lock();
        if inner.entries.contains_key(&key) {
            return;
        }
        if inner.entries.len() >= inner.capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.entries.remove(&oldest);
            }
        }
        inner.order.push_back(key.clone());
        inner.entries.insert(key, value);
    }

    /// A poisoned lock only means a panic on another thread while it
    /// held the guard; the map and the order queue are each still
    /// structurally sound, so the store keeps serving rather than
    /// cascading the panic.
    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(capacity: usize, keys: &[&str]) -> Store<String> {
        let store = Store::new(capacity);
        for &k in keys {
            store.insert(k.to_string(), format!("v{k}"));
        }
        store
    }

    #[test]
    fn fifo_eviction_drops_the_oldest_entry() {
        let store = filled(2, &["a", "b", "c"]);
        assert_eq!(store.get("a"), None);
        assert_eq!(store.get("b").as_deref(), Some("vb"));
        assert_eq!(store.get("c").as_deref(), Some("vc"));
        // A hit does not refresh an entry: b is still the oldest.
        store.insert("d".to_string(), "vd".to_string());
        assert_eq!(store.get("b"), None);
        assert_eq!(store.get("c").as_deref(), Some("vc"));
        assert_eq!(store.lock().entries.len(), 2);
        assert_eq!(store.lock().order.len(), 2);
    }

    #[test]
    fn reinsert_keeps_the_first_value_and_its_place() {
        let store = filled(2, &["a", "b"]);
        store.insert("a".to_string(), "second".to_string());
        assert_eq!(store.get("a").as_deref(), Some("va"));
        // a was not moved to the back, so it is evicted first.
        store.insert("c".to_string(), "vc".to_string());
        assert_eq!(store.get("a"), None);
        assert_eq!(store.get("b").as_deref(), Some("vb"));
    }

    #[test]
    fn capacity_zero_holds_one_entry() {
        let store = filled(0, &["a"]);
        assert_eq!(store.get("a").as_deref(), Some("va"));
        store.insert("b".to_string(), "vb".to_string());
        assert_eq!(store.get("a"), None);
        assert_eq!(store.get("b").as_deref(), Some("vb"));
    }

    #[test]
    fn clones_share_entries() {
        let store = Store::new(4);
        let handle = store.clone();
        handle.insert("a".to_string(), 1u32);
        assert_eq!(store.get("a"), Some(1));
        store.insert("b".to_string(), 2);
        assert_eq!(handle.get("b"), Some(2));
    }

    #[test]
    fn a_poisoned_lock_still_serves() {
        let store = filled(2, &["a"]);
        let handle = store.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = handle.inner.lock().expect("first lock is clean");
            panic!("poison the store");
        })
        .join();
        assert!(panicked.is_err());
        assert!(store.inner.is_poisoned());
        assert_eq!(store.get("a").as_deref(), Some("va"));
        store.insert("b".to_string(), "vb".to_string());
        assert_eq!(store.get("b").as_deref(), Some("vb"));
    }
}
