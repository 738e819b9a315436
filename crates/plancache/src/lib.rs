//! # throttledb-plancache
//!
//! The compiled-plan cache. In the paper's problem statement, excessive
//! compilation memory "causes excessive eviction of compiled plans from the
//! plan cache (forcing additional compilation CPU load in the future)" — so
//! the cache matters twice: it is a memory consumer the broker can squeeze,
//! and its hit rate determines how many compilations happen at all. The
//! SALES workload deliberately defeats it by uniquifying every query (§5.1).
//!
//! The eviction policy is cost-based: each entry carries the (estimated)
//! cost of recompiling it, and eviction removes the entries with the lowest
//! `recompile_cost / size` value first — cheap-to-rebuild, memory-hungry
//! plans go first, exactly the trade-off a production cache makes.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use throttledb_membroker::Clerk;

/// A cached plan entry's metadata (the engine stores its plan separately).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry<P> {
    /// The cached payload (a compiled plan).
    pub plan: P,
    /// Size of the cached plan in bytes.
    pub size_bytes: u64,
    /// Estimated cost (seconds) to recompile if evicted.
    pub recompile_cost: f64,
    /// Number of times this entry has been reused.
    pub hits: u64,
    /// Logical insertion/last-touch tick (for LRU tie-breaks).
    last_touch: u64,
}

/// Counters describing cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCacheStats {
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room or on shrink requests.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
}

/// A size-bounded plan cache with cost-based eviction.
///
/// Generic over the key type `K` (default `String`, the classic
/// normalized-query-text key). The engine keys its cache with the
/// (template, submission) pair that produced each plan — see
/// `throttledb-engine`'s `PlanKey`. It never looks plans up: its workload
/// draws the §5.1 perturbations without rendering the text, and uniquified
/// text defeats a text-keyed cache by construction, so the engine only
/// inserts, and the cache stays a memory consumer the broker squeezes.
#[derive(Debug)]
pub struct PlanCache<P, K = String> {
    capacity_bytes: Mutex<u64>,
    inner: Mutex<Inner<P, K>>,
    clerk: Option<Clerk>,
}

#[derive(Debug)]
struct Inner<P, K> {
    entries: HashMap<K, CacheEntry<P>>,
    used_bytes: u64,
    tick: u64,
    stats: PlanCacheStats,
}

impl<P: Clone, K: Eq + Hash + Clone> PlanCache<P, K> {
    /// A cache bounded by `capacity_bytes`, optionally reporting memory to a
    /// broker clerk.
    pub fn new(capacity_bytes: u64, clerk: Option<Clerk>) -> Self {
        PlanCache {
            capacity_bytes: Mutex::new(capacity_bytes),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                used_bytes: 0,
                tick: 0,
                stats: PlanCacheStats::default(),
            }),
            clerk,
        }
    }

    /// The configured capacity.
    pub fn capacity_bytes(&self) -> u64 {
        *self.capacity_bytes.lock()
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().used_bytes
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache behaviour counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.inner.lock().stats
    }

    /// Look up a plan by its key (e.g. normalized query text or a digest).
    pub fn get<Q>(&self, key: &Q) -> Option<P>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(e) => {
                e.hits += 1;
                e.last_touch = tick;
                let plan = e.plan.clone();
                inner.stats.hits += 1;
                Some(plan)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a plan. Evicts lower-value entries as needed; if the plan is
    /// larger than the whole cache it is simply not cached.
    pub fn insert(&self, key: impl Into<K>, plan: P, size_bytes: u64, recompile_cost: f64) {
        let capacity = *self.capacity_bytes.lock();
        if size_bytes > capacity {
            return;
        }
        let key = key.into();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        // Replace an existing entry outright.
        if let Some(old) = inner.entries.remove(&key) {
            inner.used_bytes -= old.size_bytes;
            if let Some(c) = &self.clerk {
                c.free(old.size_bytes);
            }
        }
        self.evict_until(&mut inner, capacity.saturating_sub(size_bytes));
        inner.entries.insert(
            key,
            CacheEntry {
                plan,
                size_bytes,
                recompile_cost,
                hits: 0,
                last_touch: tick,
            },
        );
        inner.used_bytes += size_bytes;
        inner.stats.insertions += 1;
        if let Some(c) = &self.clerk {
            c.allocate(size_bytes);
        }
    }

    /// Respond to memory pressure: shrink the cache to at most
    /// `target_bytes`, evicting the lowest-value entries. Returns the number
    /// of bytes released.
    pub fn shrink_to(&self, target_bytes: u64) -> u64 {
        let mut inner = self.inner.lock();
        let before = inner.used_bytes;
        self.evict_until(&mut inner, target_bytes);
        before - inner.used_bytes
    }

    /// Evict entries (lowest `value = recompile_cost·(hits+1) / size`, then
    /// least recently touched) until `used_bytes <= limit`.
    fn evict_until(&self, inner: &mut Inner<P, K>, limit: u64) {
        while inner.used_bytes > limit {
            let victim = inner
                .entries
                .iter()
                .min_by(|(_, a), (_, b)| {
                    let va = a.recompile_cost * (a.hits + 1) as f64 / a.size_bytes.max(1) as f64;
                    let vb = b.recompile_cost * (b.hits + 1) as f64 / b.size_bytes.max(1) as f64;
                    va.partial_cmp(&vb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.last_touch.cmp(&b.last_touch))
                })
                .map(|(k, _)| k.clone());
            let Some(key) = victim else { break };
            if let Some(e) = inner.entries.remove(&key) {
                inner.used_bytes -= e.size_bytes;
                inner.stats.evictions += 1;
                if let Some(c) = &self.clerk {
                    c.free(e.size_bytes);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};

    const MB: u64 = 1 << 20;

    #[test]
    fn hit_and_miss_accounting() {
        let cache: PlanCache<&'static str> = PlanCache::new(10 * MB, None);
        assert!(cache.get("q1").is_none());
        cache.insert("q1", "plan1", MB, 5.0);
        assert_eq!(cache.get("q1"), Some("plan1"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn capacity_is_enforced_via_eviction() {
        let cache: PlanCache<u32> = PlanCache::new(5 * MB, None);
        for i in 0..10u32 {
            cache.insert(format!("q{i}"), i, MB, 1.0);
        }
        assert!(cache.used_bytes() <= 5 * MB);
        assert!(cache.len() <= 5);
        assert!(cache.stats().evictions >= 5);
    }

    #[test]
    fn expensive_to_recompile_plans_are_kept() {
        let cache: PlanCache<&'static str> = PlanCache::new(3 * MB, None);
        cache.insert("cheap", "a", MB, 0.1);
        cache.insert("pricey", "b", MB, 100.0);
        cache.insert("newcomer1", "c", MB, 1.0);
        cache.insert("newcomer2", "d", MB, 1.0);
        // The cheap-to-recompile plan should be the one that went.
        assert!(cache.get("pricey").is_some());
        assert!(cache.get("cheap").is_none());
    }

    #[test]
    fn frequently_used_plans_are_kept() {
        let cache: PlanCache<&'static str> = PlanCache::new(3 * MB, None);
        cache.insert("hot", "a", MB, 1.0);
        for _ in 0..50 {
            cache.get("hot");
        }
        cache.insert("cold", "b", MB, 1.0);
        cache.insert("x1", "c", MB, 1.0);
        cache.insert("x2", "d", MB, 1.0);
        assert!(
            cache.get("hot").is_some(),
            "hot entry must survive eviction"
        );
    }

    #[test]
    fn shrink_to_responds_to_pressure() {
        let broker = MemoryBroker::new(BrokerConfig::with_total_memory(1 << 30));
        let clerk = broker.register(SubcomponentKind::PlanCache);
        let cache: PlanCache<u32> = PlanCache::new(100 * MB, Some(clerk.clone()));
        for i in 0..20u32 {
            cache.insert(format!("q{i}"), i, MB, 1.0);
        }
        assert_eq!(clerk.used_bytes(), 20 * MB);
        let released = cache.shrink_to(5 * MB);
        assert_eq!(released, 15 * MB);
        assert_eq!(cache.used_bytes(), 5 * MB);
        assert_eq!(clerk.used_bytes(), 5 * MB);
    }

    #[test]
    fn oversized_plans_are_not_cached() {
        let cache: PlanCache<&'static str> = PlanCache::new(MB, None);
        cache.insert("huge", "x", 10 * MB, 100.0);
        assert!(cache.is_empty());
    }

    #[test]
    fn replacing_a_key_does_not_leak_bytes() {
        let cache: PlanCache<u32> = PlanCache::new(10 * MB, None);
        cache.insert("q", 1, 2 * MB, 1.0);
        cache.insert("q", 2, 3 * MB, 1.0);
        assert_eq!(cache.used_bytes(), 3 * MB);
        assert_eq!(cache.get("q"), Some(2));
        assert_eq!(cache.len(), 1);
    }

    /// Resident (key, hits, cost) entries, least recently touched first.
    fn resident(cache: &PlanCache<u32, u64>) -> Vec<(u64, u64, f64)> {
        let inner = cache.inner.lock();
        let mut entries: Vec<_> = inner.entries.iter().collect();
        entries.sort_by_key(|(_, e)| e.last_touch);
        entries
            .into_iter()
            .map(|(k, e)| (*k, e.hits, e.recompile_cost))
            .collect()
    }

    #[test]
    fn missing_lookups_do_not_change_eviction() {
        // Two caches see the same inserts and squeezes past capacity; one
        // also sees lookups of never-inserted keys before every insert. A
        // miss only advances the internal tick, which eviction reads by
        // relative order alone, so both must hold the same entries in the
        // same touch order after every step. With equal sizes each insert
        // past capacity evicts exactly one key, so that also pins the
        // eviction order.
        let plain: PlanCache<u32, u64> = PlanCache::new(8 * MB, None);
        let probed: PlanCache<u32, u64> = PlanCache::new(8 * MB, None);
        for i in 0..200u64 {
            // Few distinct costs, so many value ties fall to `last_touch`.
            let cost = [1.0, 2.0, 1.0, 0.5, 2.0][(i % 5) as usize];
            for _ in 0..=(i % 3) {
                assert!(probed.get(&(u64::MAX - i)).is_none());
            }
            plain.insert(i, i as u32, MB, cost);
            probed.insert(i, i as u32, MB, cost);
            if i % 37 == 36 {
                assert_eq!(plain.shrink_to(3 * MB), probed.shrink_to(3 * MB));
            }
            assert_eq!(resident(&plain), resident(&probed), "after insert {i}");
            assert_eq!(plain.stats().evictions, probed.stats().evictions);
        }
        assert!(plain.stats().evictions > 150, "must evict past capacity");
        assert!(probed.stats().misses >= 200);
    }
}
