//! Small LRU cache for rendered `topk` responses.
//!
//! `topk` is the only query whose response is both repeated across
//! clients and non-trivial to render (k rows of JSON). Entries are keyed
//! by `(generation, k)` — the generation of the sealed view that
//! rendered the response. A publish swaps the whole view in under a new
//! generation, so it invalidates naturally: stale keys simply stop being
//! requested and age out of the LRU order.

use std::collections::HashMap;

/// Fixed-capacity least-recently-used map from `(generation, k)` to a
/// rendered response line.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<(u64, usize), (u64, String)>,
}

impl LruCache {
    /// A cache holding at most `capacity` rendered responses.
    ///
    /// A zero capacity disables caching (every `get` misses).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Fetch the cached response for `(generation, k)`, refreshing its
    /// recency on hit.
    pub fn get(&mut self, generation: u64, k: usize) -> Option<String> {
        self.tick += 1;
        let tick = self.tick;
        let (stamp, value) = self.entries.get_mut(&(generation, k))?;
        *stamp = tick;
        Some(value.clone())
    }

    /// Insert a rendered response, evicting the least-recently-used
    /// entry if the cache is full.
    pub fn put(&mut self, generation: u64, k: usize, value: String) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let key = (generation, k);
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(key, _)| *key)
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, (self.tick, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::new(4);
        assert_eq!(c.get(1, 10), None);
        c.put(1, 10, "top".to_string());
        assert_eq!(c.get(1, 10).as_deref(), Some("top"));
        assert_eq!(c.get(2, 10), None, "new generation misses");
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put(1, 1, "a".to_string());
        c.put(1, 2, "b".to_string());
        assert!(c.get(1, 1).is_some()); // touch (1,1) so (1,2) is oldest
        c.put(1, 3, "c".to_string());
        assert_eq!(c.entries.len(), 2);
        assert!(c.get(1, 2).is_none(), "the LRU entry was evicted");
        assert!(c.get(1, 1).is_some());
        assert!(c.get(1, 3).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.put(1, 1, "a".to_string());
        assert!(c.entries.is_empty());
        assert_eq!(c.get(1, 1), None);
    }

    #[test]
    fn reinserting_updates_in_place() {
        let mut c = LruCache::new(1);
        c.put(1, 1, "a".to_string());
        c.put(1, 1, "b".to_string());
        assert_eq!(c.entries.len(), 1);
        assert_eq!(c.get(1, 1).as_deref(), Some("b"));
    }
}
