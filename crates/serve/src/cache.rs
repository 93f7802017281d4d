//! A sharded LRU cache for computed route results.
//!
//! Design notes (DESIGN.md §8 has the policy rationale):
//!
//! * **Sharding** — the key hash picks one of N independent shards, each
//!   behind its own `Mutex`, so concurrent requests rarely contend on the
//!   same lock. Capacity is split evenly across shards (rounded up), so
//!   the effective total capacity is `shards * ceil(capacity / shards)` —
//!   report it via [`ShardedCache::capacity`], never exceed it.
//! * **LRU** — each shard keeps an intrusive doubly-linked list threaded
//!   through a slab of entries; get and put are O(1).
//! * **No expiry** — an entry leaves only by eviction. The serving layer's
//!   keys end in the traffic epoch and a lane result is a pure function
//!   of its key, so an entry can be unreachable but never stale.
//! * **Counters** — hits, misses, evictions and a live-entry gauge come
//!   from [`CacheMetrics`]; detached metrics make all of it free.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use crate::metrics::CacheMetrics;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

struct Shard<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Option<Entry<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Shard<K, V> {
        Shard {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, index: usize) {
        let (prev, next) = {
            let entry = self.slots[index].as_ref().expect("unlink of free slot");
            (entry.prev, entry.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().expect("bad prev link").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].as_mut().expect("bad next link").prev = prev,
        }
    }

    fn push_front(&mut self, index: usize) {
        {
            let entry = self.slots[index].as_mut().expect("push of free slot");
            entry.prev = NIL;
            entry.next = self.head;
        }
        match self.head {
            NIL => self.tail = index,
            h => self.slots[h].as_mut().expect("bad head link").prev = index,
        }
        self.head = index;
    }

    fn remove(&mut self, index: usize) -> Entry<K, V> {
        self.unlink(index);
        let entry = self.slots[index].take().expect("double remove");
        self.map.remove(&entry.key);
        self.free.push(index);
        entry
    }

    fn insert_new(&mut self, entry: Entry<K, V>) {
        let index = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(entry);
                i
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        let key = self.slots[index]
            .as_ref()
            .expect("just inserted")
            .key
            .clone();
        self.map.insert(key, index);
        self.push_front(index);
    }
}

/// A sharded, bounded cache. See the module docs for policy.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    metrics: CacheMetrics,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache of roughly `capacity` entries split over `shards` shards.
    /// Both `capacity` and `shards` are clamped to at least one.
    pub fn new(capacity: usize, shards: usize, metrics: CacheMetrics) -> ShardedCache<K, V> {
        let shard_count = shards.max(1);
        let per_shard = capacity.max(1).div_ceil(shard_count);
        ShardedCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            metrics,
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let index = (hasher.finish() as usize) % self.shards.len();
        &self.shards[index]
    }

    /// Looks up `key`. A found entry is moved to the front of its
    /// shard's LRU list and its value cloned out.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
        let Some(&index) = shard.map.get(key) else {
            self.metrics.misses.inc();
            return None;
        };
        shard.unlink(index);
        shard.push_front(index);
        let value = shard.slots[index]
            .as_ref()
            .expect("mapped free slot")
            .value
            .clone();
        self.metrics.hits.inc();
        Some(value)
    }

    /// Stores `value` under `key`, evicting the shard's
    /// least-recently-used entry if it is full. Re-putting an existing
    /// key replaces its value.
    pub fn put(&self, key: K, value: V) {
        let mut shard = self.shard_for(&key).lock().expect("cache shard poisoned");
        if let Some(&index) = shard.map.get(&key) {
            let entry = shard.slots[index].as_mut().expect("mapped free slot");
            entry.value = value;
            shard.unlink(index);
            shard.push_front(index);
            return;
        }
        if shard.map.len() >= shard.capacity {
            let tail = shard.tail;
            debug_assert_ne!(tail, NIL, "full shard with empty LRU list");
            shard.remove(tail);
            self.metrics.entries.add(-1);
            self.metrics.evictions.inc();
        }
        shard.insert_new(Entry {
            key,
            value,
            prev: NIL,
            next: NIL,
        });
        self.metrics.entries.add(1);
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The effective total capacity (`shards * per-shard capacity`).
    pub fn capacity(&self) -> usize {
        self.shards.len()
            * self.shards[0]
                .lock()
                .expect("cache shard poisoned")
                .capacity
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The cache's metric handles.
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize, shards: usize) -> ShardedCache<String, u64> {
        ShardedCache::new(capacity, shards, CacheMetrics::default())
    }

    #[test]
    fn get_after_put_hits() {
        let c = cache(8, 2);
        c.put("a".into(), 1);
        assert_eq!(c.get(&"a".into()), Some(1));
        assert_eq!(c.get(&"a".into()), Some(1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One shard so the LRU order is global and observable.
        let c = cache(2, 1);
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
        let c = cache(4, 1);
        c.put("a".into(), 1);
        c.put("a".into(), 2);
        assert_eq!(c.get(&"a".into()), Some(2));
        assert_eq!(c.len(), 1, "re-put must not duplicate the key");
    }

    #[test]
    fn capacity_never_exceeded_under_churn() {
        let c = cache(16, 4);
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
        let c: ShardedCache<String, u64> = ShardedCache::new(1, 1, metrics);
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
    }
}
