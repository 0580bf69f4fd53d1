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
//! the cache holds the *answer*: one [`Explored`] per net — the exploration,
//! its scan report, and the [`FacetConfig`] both were computed under —
//! keyed by the net's ordered constraint fingerprints
//! ([`StarNet::explore_key`](crate::StarNet::explore_key)), with LRU
//! eviction. A repeat costs a hash lookup and an `Arc` clone; a request
//! for the same net under different options misses, recomputes and
//! replaces the entry. Entries are complete or absent: the session inserts
//! only after the whole explore stage succeeded.
//!
//! The cache is sharded by key hash: each shard guards an independent
//! map behind its own mutex, so concurrent requests do not contend on a
//! single lock, while eviction stays globally least-recently-used.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kdap_obs::CacheCounters;

use crate::explain::ExploreReport;
use crate::facet::{Exploration, FacetConfig};

/// Upper bound on the number of shards; small capacities use fewer so the
/// per-shard LRU never degenerates to zero slots.
const MAX_SHARDS: usize = 8;

/// The explore stage's output for one net: what a cache entry is.
#[derive(Debug)]
pub struct Explored {
    /// The effective facet configuration the other two were computed
    /// under; a lookup under any other configuration misses.
    pub facet: FacetConfig,
    /// The aggregates and facets of the net's subspace.
    pub exploration: Exploration,
    /// The scan accounting of the run that produced them (its cache
    /// counter fields unset; `explain` fills them in at report time).
    pub report: ExploreReport,
}

/// A sharded LRU cache of explorations, one per net. Named for what it is
/// keyed by and reported as (`subspace` in `/stats`, `subspace cache` in
/// `explain` and `kdap stats`).
pub struct SubspaceCache {
    shards: Vec<Mutex<Inner>>,
    shard_capacity: usize,
    /// Shared LRU clock: stamps must be comparable *across* shards so
    /// eviction can pick the globally least recently used entry.
    clock: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<String, (Arc<Explored>, u64)>,
    hits: u64,
    misses: u64,
}

impl SubspaceCache {
    /// Creates a cache holding at most `capacity` explorations in total,
    /// spread over `min(capacity, 8)` shards.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let n_shards = capacity.min(MAX_SHARDS);
        SubspaceCache {
            shards: (0..n_shards).map(|_| Mutex::default()).collect(),
            shard_capacity: capacity / n_shards,
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn shard(&self, key: &str) -> &Mutex<Inner> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up the exploration of `key` computed under `facet`. An entry
    /// computed under the same configuration is a hit (its LRU stamp is
    /// refreshed and the entry handed out as an `Arc` clone — nothing is
    /// copied under the shard lock); no entry, or one computed under
    /// another configuration, is a miss.
    pub fn get(&self, key: &str, facet: &FacetConfig) -> Option<Arc<Explored>> {
        let clock = self.tick();
        let mut inner = self.shard(key).lock();
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

    /// Stores `entry` under `key` (replacing the net's previous entry, if
    /// any), then evicts the globally least recently used entries while
    /// total occupancy exceeds capacity.
    ///
    /// Eviction is driven by *total* occupancy, not per-shard occupancy,
    /// so skewed key hashing cannot evict entries while the cache as a
    /// whole still has room. Locks are taken one shard at a time — never
    /// nested — so concurrent inserts cannot deadlock.
    pub fn insert(&self, key: String, entry: Arc<Explored>) {
        let clock = self.tick();
        self.shard(&key).lock().map.insert(key, (entry, clock));
        while self.len() > self.capacity() {
            // Scan for the entry with the smallest stamp across shards,
            // then re-lock its shard to remove it. A concurrent touch may
            // refresh or remove the victim in between; the removal is
            // then a no-op and the loop re-checks occupancy.
            let mut victim: Option<(usize, String, u64)> = None;
            for (idx, shard) in self.shards.iter().enumerate() {
                let inner = shard.lock();
                if let Some((k, (_, stamp))) = inner.map.iter().min_by_key(|(_, (_, s))| *s) {
                    if victim.as_ref().is_none_or(|(_, _, best)| *stamp < *best) {
                        victim = Some((idx, k.clone(), *stamp));
                    }
                }
            }
            match victim {
                Some((idx, k, _)) => {
                    if self.shards[idx].lock().map.remove(&k).is_some() {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
    }

    /// Hit/miss/eviction counters, summed over all shards: `hits + misses`
    /// is the number of lookups, evictions count LRU victims (a replaced
    /// entry is not one).
    pub fn counters(&self) -> CacheCounters {
        let (mut hits, mut misses) = (0, 0);
        for shard in &self.shards {
            let inner = shard.lock();
            hits += inner.hits;
            misses += inner.misses;
        }
        CacheCounters {
            hits,
            misses,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of cached explorations across all shards.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Total capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
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
            report: ExploreReport::default(),
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
    fn lru_evicts_oldest_within_a_shard() {
        // Capacity 1 forces a single shard with a single slot, making
        // eviction order deterministic regardless of key hashing.
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
    fn eviction_is_globally_least_recently_used() {
        // Sixteen slots over eight shards: whichever shards the keys hash
        // to, the victim is the entry touched longest ago overall.
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
    fn sharded_capacity_never_exceeds_requested_total() {
        for capacity in [1usize, 2, 5, 8, 10, 64] {
            let cache = SubspaceCache::new(capacity);
            assert!(cache.capacity() <= capacity, "capacity {capacity}");
            assert!(cache.capacity() >= 1);
            let facet = FacetConfig::default();
            for i in 0..2 * capacity + 3 {
                cache.insert(format!("net-{i}"), entry(i, &facet));
                assert!(cache.len() <= cache.capacity(), "capacity {capacity}");
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
