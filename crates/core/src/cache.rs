//! The session cache — toward the paper's closing future-work item (§7):
//! "aggregation over the sub-dataspace … can be quite expensive on
//! sizable data warehouses; we plan to … develop new specialized
//! techniques optimized for KDAP."
//!
//! Interactive sessions ask for the same exploration constantly: the user
//! drills down and back up, drops a constraint, flips a mode and flips it
//! back, re-picks an interpretation — and since navigation is a request,
//! each of those replays from the pick. What dominates such a request is
//! not the semi-join (the planner's [`SemijoinCache`](kdap_query::SemijoinCache)
//! already turns a seen net into an intersection of cached step bitmaps)
//! but the 2 + n fused scans over the subspace and its roll-up spaces. So
//! the cache holds the *answer*: one [`Explored`] per net — the exploration
//! and the [`FacetConfig`] it was computed under — keyed by the net's
//! ordered constraint fingerprints
//! ([`StarNet::explore_key`](crate::StarNet::explore_key)), with LRU
//! eviction. A repeat costs a hash lookup and an `Arc` clone; a request
//! for the same net under different options misses, recomputes and
//! replaces the entry. Entries are complete or absent: the session inserts
//! only after the whole explore stage succeeded.
//!
//! One mutex guards the map, the LRU stamps and the counters: a lookup is
//! a hash probe and an `Arc` clone, short enough that concurrent requests
//! do not queue on it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use kdap_obs::CacheCounters;

use crate::facet::{Exploration, FacetConfig};

/// The explore stage's output for one net: what a cache entry is.
#[derive(Debug)]
pub struct Explored {
    /// The effective facet configuration the exploration was computed
    /// under; a lookup under any other configuration misses.
    pub facet: FacetConfig,
    /// The aggregates and facets of the net's subspace.
    pub exploration: Exploration,
}

/// An LRU cache of explorations, one per net. Named for what it is keyed
/// by and reported as (`subspace` in `/stats`, `subspace cache` in
/// `kdap stats`).
pub struct SubspaceCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    /// Each entry with the clock value of its last touch.
    map: HashMap<String, (Arc<Explored>, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SubspaceCache {
    /// Creates a cache holding at most `capacity` explorations (at least
    /// one).
    pub fn new(capacity: usize) -> Self {
        SubspaceCache {
            capacity: capacity.max(1),
            inner: Mutex::default(),
        }
    }

    /// Looks up the exploration of `key` computed under `facet`. An entry
    /// computed under the same configuration is a hit (its LRU stamp is
    /// refreshed and the entry handed out as an `Arc` clone — nothing is
    /// copied under the lock); no entry, or one computed under another
    /// configuration, is a miss.
    pub fn get(&self, key: &str, facet: &FacetConfig) -> Option<Arc<Explored>> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some((entry, stamp)) if entry.facet == *facet => {
                *stamp = clock;
                let entry = Arc::clone(entry);
                inner.hits += 1;
                Some(entry)
            }
            _ => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Whether a lookup of `key` under `facet` would hit, without
    /// counting it or refreshing the entry's LRU stamp.
    pub(crate) fn holds(&self, key: &str, facet: &FacetConfig) -> bool {
        let inner = self.inner.lock();
        inner
            .map
            .get(key)
            .is_some_and(|(entry, _)| entry.facet == *facet)
    }

    /// Stores `entry` under `key` (replacing the net's previous entry, if
    /// any), then evicts the least recently used entry if that put the
    /// cache over capacity.
    pub fn insert(&self, key: String, entry: Arc<Explored>) {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.insert(key, (entry, clock));
        if inner.map.len() > self.capacity {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                inner.map.remove(&victim);
                inner.evictions += 1;
            }
        }
    }

    /// Hit/miss/eviction counters: `hits + misses` is the number of
    /// lookups, evictions count LRU victims (a replaced entry is not one).
    pub fn counters(&self) -> CacheCounters {
        let inner = self.inner.lock();
        CacheCounters {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }

    /// Number of cached explorations.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// The most explorations the cache holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interest::InterestMode;

    /// An entry recognisable by its `subspace_size`.
    fn entry(tag: usize, facet: &FacetConfig) -> Arc<Explored> {
        Arc::new(Explored {
            facet: facet.clone(),
            exploration: Exploration {
                subspace_size: tag,
                total_aggregate: tag as f64,
                panels: Vec::new(),
            },
        })
    }

    fn tag_of(cache: &SubspaceCache, key: &str) -> Option<usize> {
        cache
            .get(key, &FacetConfig::default())
            .map(|e| e.exploration.subspace_size)
    }

    #[test]
    fn a_repeat_hits_and_hands_out_the_stored_entry() {
        let cache = SubspaceCache::new(8);
        let facet = FacetConfig::default();
        assert!(cache.get("a", &facet).is_none());
        let stored = entry(1, &facet);
        cache.insert("a".into(), stored.clone());
        let hit = cache
            .get("a", &facet)
            .expect("stored under the same options");
        assert!(Arc::ptr_eq(&hit, &stored), "a hit copies nothing");
        assert_eq!(cache.counters(), CacheCounters::new(1, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn other_options_miss_and_their_answer_replaces_the_entry() {
        let cache = SubspaceCache::new(8);
        let surprise = FacetConfig::default();
        let bellwether = FacetConfig {
            mode: InterestMode::Bellwether,
            ..FacetConfig::default()
        };
        cache.insert("a".into(), entry(1, &surprise));
        assert!(cache.get("a", &bellwether).is_none());
        cache.insert("a".into(), entry(2, &bellwether));
        // One entry per net: the flip back recomputes too.
        assert_eq!(cache.len(), 1);
        assert!(cache.get("a", &surprise).is_none());
        let hit = cache.get("a", &bellwether).expect("the replacement");
        assert_eq!(hit.exploration.subspace_size, 2);
        // A replaced entry is not an eviction.
        assert_eq!(cache.counters(), CacheCounters::new(1, 2, 0));
    }

    #[test]
    fn holds_neither_counts_nor_refreshes() {
        let cache = SubspaceCache::new(1);
        let facet = FacetConfig::default();
        let bellwether = FacetConfig {
            mode: InterestMode::Bellwether,
            ..FacetConfig::default()
        };
        assert!(!cache.holds("a", &facet));
        cache.insert("a".into(), entry(1, &facet));
        assert!(cache.holds("a", &facet));
        assert!(!cache.holds("a", &bellwether), "other options would miss");
        assert_eq!(cache.counters(), CacheCounters::default());
    }

    #[test]
    fn a_one_slot_cache_keeps_the_last_insert() {
        let cache = SubspaceCache::new(1);
        assert_eq!(cache.capacity(), 1);
        let facet = FacetConfig::default();
        cache.insert("a".into(), entry(1, &facet));
        assert_eq!(tag_of(&cache, "a"), Some(1)); // hit
        cache.insert("b".into(), entry(2, &facet)); // evicts a
        assert_eq!(tag_of(&cache, "a"), None); // miss
        cache.insert("a".into(), entry(1, &facet)); // evicts b
        assert_eq!(tag_of(&cache, "b"), None); // miss
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.counters(), CacheCounters::new(1, 2, 2));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        // The victim is the entry touched longest ago, by lookup or insert.
        let cache = SubspaceCache::new(16);
        let facet = FacetConfig::default();
        let keys: Vec<String> = (0..16).map(|i| format!("net-{i}")).collect();
        for (i, key) in keys.iter().enumerate() {
            cache.insert(key.clone(), entry(i, &facet));
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.counters().evictions, 0, "room left, nothing evicted");
        // Refresh the two oldest; the third-oldest is now the LRU entry.
        assert_eq!(tag_of(&cache, &keys[0]), Some(0));
        assert_eq!(tag_of(&cache, &keys[1]), Some(1));
        cache.insert("net-16".into(), entry(16, &facet));
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(tag_of(&cache, &keys[2]), None);
        for key in keys.iter().filter(|k| *k != &keys[2]) {
            assert!(tag_of(&cache, key).is_some(), "{key} survived");
        }
    }

    #[test]
    fn the_cache_holds_exactly_its_capacity() {
        let facet = FacetConfig::default();
        for capacity in [1usize, 2, 5, 10, 20, 64] {
            let cache = SubspaceCache::new(capacity);
            assert_eq!(cache.capacity(), capacity);
            for i in 0..capacity {
                cache.insert(format!("net-{i}"), entry(i, &facet));
            }
            assert_eq!(cache.len(), capacity, "capacity {capacity}: room for all");
            assert_eq!(cache.counters().evictions, 0, "capacity {capacity}");
            // Touch every entry but the middle one, newest first; the
            // middle one is then the least recently used, wherever it sits.
            let middle = capacity / 2;
            for i in (0..capacity).rev().filter(|&i| i != middle) {
                assert_eq!(tag_of(&cache, &format!("net-{i}")), Some(i));
            }
            for extra in capacity..capacity + 3 {
                cache.insert(format!("net-{extra}"), entry(extra, &facet));
                assert_eq!(cache.len(), capacity, "capacity {capacity}");
            }
            assert_eq!(cache.counters().evictions, 3, "capacity {capacity}");
            // Least recently used first: the untouched middle entry, then
            // the touches in the order they were made, then the inserts.
            let lru_order = std::iter::once(middle)
                .chain((0..capacity).rev().filter(|&i| i != middle))
                .chain(capacity..);
            let victims: Vec<usize> = lru_order.take(3).collect();
            for i in 0..capacity + 3 {
                let expect = (!victims.contains(&i)).then_some(i);
                assert_eq!(
                    tag_of(&cache, &format!("net-{i}")),
                    expect,
                    "capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn concurrent_access_stays_consistent() {
        let cache = SubspaceCache::new(4);
        let facet = FacetConfig::default();
        const THREADS: usize = 8;
        const ITERS: usize = 200;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (cache, facet) = (&cache, &facet);
                s.spawn(move || {
                    for i in 0..ITERS {
                        let tag = (t * 31 + i * 7) % 10;
                        let key = format!("net-{tag}");
                        match cache.get(&key, facet) {
                            // Whatever is found under a key is that key's answer.
                            Some(hit) => assert_eq!(hit.exploration.subspace_size, tag),
                            None => cache.insert(key, entry(tag, facet)),
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= cache.capacity());
        let c = cache.counters();
        assert_eq!(c.hits + c.misses, (THREADS * ITERS) as u64);
    }
}
