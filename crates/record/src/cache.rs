//! A small LRU cache.
//!
//! "DejaView also caches screenshots for search results, using a LRU
//! scheme, where the cache size is tunable" (§4.4). The cache is small
//! (tens of screenshots), so eviction scans rather than maintaining an
//! intrusive list.

use std::collections::HashMap;
use std::hash::Hash;

/// A least-recently-used cache with a fixed capacity.
///
/// # Examples
///
/// ```
/// use dv_record::LruCache;
///
/// let mut cache = LruCache::new(2);
/// cache.put("a", 1);
/// cache.put("b", 2);
/// cache.get(&"a");
/// cache.put("c", 3); // Evicts "b", the least recently used.
/// assert!(cache.get(&"b").is_none());
/// assert_eq!(cache.get(&"a"), Some(&1));
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, (V, u64)>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            map: HashMap::with_capacity(capacity),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the current entry count.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `(hits, misses)` counters.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Looks up a key, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((value, used)) => {
                *used = tick;
                self.hits += 1;
                Some(value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a value and returns the one it pushed out: the key's
    /// previous value, or the least recently used entry when the cache
    /// was full.
    pub fn put(&mut self, key: K, value: V) -> Option<V> {
        self.tick += 1;
        let mut evicted = None;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                evicted = self.map.remove(&victim);
            }
        }
        let replaced = self.map.insert(key, (value, self.tick));
        replaced.or(evicted).map(|(value, _)| value)
    }

    /// Looks up a key or computes, caches and returns its value.
    #[cfg(test)]
    fn get_or_insert_with(&mut self, key: K, f: impl FnOnce() -> V) -> &V {
        if !self.map.contains_key(&key) {
            let value = f();
            self.put(key.clone(), value);
            self.misses += 1;
            self.tick += 1;
            let tick = self.tick;
            let entry = self.map.get_mut(&key).expect("just inserted");
            entry.1 = tick;
            return &entry.0;
        }
        self.get(&key).expect("checked present")
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(3);
        cache.put(1, "a");
        cache.put(2, "b");
        cache.put(3, "c");
        cache.get(&1);
        cache.get(&3);
        cache.put(4, "d");
        assert!(cache.get(&2).is_none(), "2 was LRU");
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&3).is_some());
        assert!(cache.get(&4).is_some());
    }

    #[test]
    fn put_returns_what_it_pushed_out() {
        let mut cache = LruCache::new(2);
        assert_eq!(cache.put(1, "a"), None);
        assert_eq!(cache.put(2, "b"), None);
        cache.get(&1);
        assert_eq!(cache.put(3, "c"), Some("b"), "2 was LRU");
        assert_eq!(cache.put(3, "C"), Some("c"), "the replaced value");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_updates_value_without_evicting() {
        let mut cache = LruCache::new(2);
        cache.put(1, "a");
        cache.put(2, "b");
        assert_eq!(cache.put(1, "A"), Some("a"));
        assert_eq!(cache.get(&1), Some(&"A"));
        assert_eq!(cache.get(&2), Some(&"b"));
    }

    #[test]
    fn get_or_insert_with_computes_once() {
        let mut cache = LruCache::new(2);
        let mut calls = 0;
        for _ in 0..3 {
            cache.get_or_insert_with(7, || {
                calls += 1;
                "value"
            });
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut cache = LruCache::new(2);
        cache.get(&1);
        cache.put(1, "a");
        cache.get(&1);
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn clear_empties() {
        let mut cache = LruCache::new(2);
        cache.put(1, "a");
        cache.clear();
        assert!(cache.map.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u32, u32>::new(0);
    }
}
