//! An exact LRU cache for computed route results.
//!
//! Design notes (DESIGN.md §8 has the policy rationale):
//!
//! * **One LRU** — a `HashMap` from key to (value, recency stamp) and a
//!   `BTreeMap` from stamp to key, behind one `Mutex`. Every touch takes
//!   a fresh stamp, so the smallest stamp is the least recently used
//!   entry: the one a full cache evicts. It holds at most `capacity`
//!   entries.
//! * **No expiry** — an entry leaves only by eviction or by being
//!   replaced. The cache takes no clock and judges no value: a caller
//!   whose values can go stale checks each one it finds
//!   ([`RouteCache::get_with`]), outside the lock, and a value it refuses
//!   counts as a miss. The demo's keys name no traffic column: the
//!   backend checks every entry against the request's column
//!   ([`crate::RouteBackend::reuse`]).
//! * **Counters** — hits, misses, evictions and a live-entry gauge come
//!   from [`CacheMetrics`]; detached metrics make all of it free.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Mutex;

use crate::metrics::CacheMetrics;

struct Lru<K, V> {
    /// Key → (value, the stamp of its last touch).
    entries: HashMap<K, (V, u64)>,
    /// Stamp → key; the first entry is the least recently used.
    order: BTreeMap<u64, K>,
    /// The last stamp handed out.
    clock: u64,
}

/// A bounded, exactly least-recently-used cache. See the module docs.
pub struct RouteCache<K, V> {
    lru: Mutex<Lru<K, V>>,
    capacity: usize,
    metrics: CacheMetrics,
}

impl<K: Hash + Eq + Clone, V: Clone> RouteCache<K, V> {
    /// A cache of at most `capacity` entries (clamped to at least one).
    pub fn new(capacity: usize, metrics: CacheMetrics) -> RouteCache<K, V> {
        let capacity = capacity.max(1);
        RouteCache {
            lru: Mutex::new(Lru {
                entries: HashMap::with_capacity(capacity),
                order: BTreeMap::new(),
                clock: 0,
            }),
            capacity,
            metrics,
        }
    }

    /// Looks up `key`. A found entry becomes the most recently used and
    /// its value is cloned out.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_with(key, Some)
    }

    /// Looks up `key` and hands a found value to `accept`, after the lock
    /// is released: a hit when `accept` answers, a miss when nothing was
    /// found or `accept` refused the value. A found entry becomes the
    /// most recently used either way.
    pub fn get_with<R>(&self, key: &K, accept: impl FnOnce(V) -> Option<R>) -> Option<R> {
        let found = {
            let mut guard = self.lru.lock().expect("route cache poisoned");
            let lru = &mut *guard;
            lru.entries.get_mut(key).map(|(value, stamp)| {
                let owned = lru.order.remove(stamp).expect("every entry has a stamp");
                lru.clock += 1;
                *stamp = lru.clock;
                lru.order.insert(lru.clock, owned);
                value.clone()
            })
        };
        let accepted = found.and_then(accept);
        match accepted {
            Some(_) => self.metrics.hits.inc(),
            None => self.metrics.misses.inc(),
        }
        accepted
    }

    /// Stores `value` under `key` as the most recently used entry,
    /// evicting the least recently used one if the cache is full.
    /// Re-putting an existing key replaces its value.
    pub fn put(&self, key: K, value: V) {
        let mut guard = self.lru.lock().expect("route cache poisoned");
        let lru = &mut *guard;
        lru.clock += 1;
        if let Some(entry) = lru.entries.get_mut(&key) {
            let owned = lru.order.remove(&entry.1).expect("every entry has a stamp");
            *entry = (value, lru.clock);
            lru.order.insert(lru.clock, owned);
            return;
        }
        if lru.entries.len() >= self.capacity {
            let (_, oldest) = lru.order.pop_first().expect("full, so not empty");
            lru.entries.remove(&oldest);
            self.metrics.entries.add(-1);
            self.metrics.evictions.inc();
        }
        lru.order.insert(lru.clock, key.clone());
        lru.entries.insert(key, (value, lru.clock));
        self.metrics.entries.add(1);
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.lru.lock().expect("route cache poisoned").entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most entries the cache holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The cache's metric handles.
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> RouteCache<String, u64> {
        RouteCache::new(capacity, CacheMetrics::default())
    }

    #[test]
    fn get_after_put_hits() {
        let c = cache(8);
        c.put("a".into(), 1);
        assert_eq!(c.get(&"a".into()), Some(1));
        assert_eq!(c.get(&"a".into()), Some(1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = cache(2);
        c.put("a".into(), 1);
        c.put("b".into(), 2);
        assert_eq!(c.get(&"a".into()), Some(1)); // a is now most recent
        c.put("c".into(), 3); // evicts b
        assert_eq!(c.get(&"b".into()), None);
        assert_eq!(c.get(&"a".into()), Some(1));
        assert_eq!(c.get(&"c".into()), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reput_replaces_the_value() {
        let c = cache(4);
        c.put("a".into(), 1);
        c.put("a".into(), 2);
        assert_eq!(c.get(&"a".into()), Some(2));
        assert_eq!(c.len(), 1, "re-put must not duplicate the key");
    }

    #[test]
    fn capacity_never_exceeded_under_churn() {
        let c = cache(16);
        for i in 0..500u64 {
            c.put(format!("k{i}"), i);
            assert!(
                c.len() <= c.capacity(),
                "len {} > capacity {}",
                c.len(),
                c.capacity()
            );
        }
    }

    #[test]
    fn counters_track_hits_misses_evictions() {
        let registry = arp_obs::Registry::new();
        let metrics = CacheMetrics::new(&registry);
        let c: RouteCache<String, u64> = RouteCache::new(1, metrics);
        c.put("a".into(), 1);
        c.put("a".into(), 2);
        assert_eq!(c.metrics().entries.get(), 1, "re-put must not double count");
        assert_eq!(c.get(&"a".into()), Some(2)); // hit
        assert_eq!(c.get(&"b".into()), None); // miss
        c.put("b".into(), 3); // evicts a
        assert_eq!(c.get(&"a".into()), None); // miss
        assert_eq!(c.metrics().hits.get(), 1);
        assert_eq!(c.metrics().misses.get(), 2);
        assert_eq!(c.metrics().evictions.get(), 1);
        assert_eq!(c.metrics().entries.get(), 1);
        // A found value its caller refuses is a miss, and stays cached.
        assert_eq!(c.get_with(&"b".into(), |_| None::<u64>), None);
        assert_eq!(c.get_with(&"b".into(), |v| Some(v + 1)), Some(4));
        assert_eq!(c.metrics().hits.get(), 2);
        assert_eq!(c.metrics().misses.get(), 3);
        assert_eq!(c.len(), 1);
    }
}
