//! Subspace caching — toward the paper's closing future-work item (§7):
//! "aggregation over the sub-dataspace … can be quite expensive on
//! sizable data warehouses; we plan to … develop new specialized
//! techniques optimized for KDAP."
//!
//! Interactive sessions rematerialize the same subspaces constantly: the
//! user flips interestingness modes, drills down and back up, re-picks
//! interpretations. The cache keys materialized fact-row sets by the star
//! net's canonical fingerprint (order-independent constraint identity),
//! with LRU eviction, so a revisited subspace costs a hash lookup instead
//! of a semi-join cascade.
//!
//! The cache is sharded by key hash: each shard guards an independent LRU
//! map behind its own mutex, so concurrent sessions (or the parallel
//! differentiate phase warming several candidate subspaces at once) do not
//! contend on a single lock.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use kdap_obs::CacheCounters;
use kdap_query::JoinIndex;
use kdap_warehouse::Warehouse;

use crate::interpret::StarNet;
use crate::subspace::{materialize, Subspace};

/// Upper bound on the number of shards; small capacities use fewer so the
/// per-shard LRU never degenerates to zero slots.
const MAX_SHARDS: usize = 8;

/// A sharded LRU cache of materialized subspaces.
pub struct SubspaceCache {
    shards: Vec<Mutex<Inner>>,
    shard_capacity: usize,
    /// Shared LRU clock: stamps must be comparable *across* shards so
    /// eviction can pick the globally least recently used entry.
    clock: AtomicU64,
    evictions: AtomicU64,
}

struct Inner {
    map: HashMap<String, (Subspace, u64)>,
    hits: u64,
    misses: u64,
}

impl Inner {
    fn new() -> Self {
        Inner {
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }
}

impl SubspaceCache {
    /// Creates a cache holding at most `capacity` subspaces in total,
    /// spread over `min(capacity, 8)` shards.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let n_shards = capacity.min(MAX_SHARDS);
        SubspaceCache {
            shards: (0..n_shards).map(|_| Mutex::new(Inner::new())).collect(),
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

    /// Materializes `net`, serving repeats from the cache.
    pub fn materialize(&self, wh: &Warehouse, jidx: &JoinIndex, net: &StarNet) -> Subspace {
        let key = net.fingerprint();
        if let Some(sub) = self.get(&key) {
            return sub;
        }
        // Materialize outside the lock: concurrent sessions should not
        // serialize on the semi-join work.
        let sub = materialize(wh, jidx, net);
        self.insert(key, sub.clone());
        sub
    }

    /// Looks up a cached subspace by fingerprint, counting a hit or a
    /// miss and refreshing the entry's LRU stamp on a hit.
    pub fn get(&self, key: &str) -> Option<Subspace> {
        let clock = self.tick();
        let mut inner = self.shard(key).lock();
        if let Some((sub, stamp)) = inner.map.get_mut(key) {
            *stamp = clock;
            let sub = sub.clone();
            inner.hits += 1;
            Some(sub)
        } else {
            inner.misses += 1;
            None
        }
    }

    /// Stores a subspace under `key`, then evicts the globally least
    /// recently used entries while total occupancy exceeds capacity.
    ///
    /// Eviction is driven by *total* occupancy, not per-shard occupancy,
    /// so skewed key hashing cannot evict entries while the cache as a
    /// whole still has room. Locks are taken one shard at a time — never
    /// nested — so concurrent inserts cannot deadlock.
    pub fn insert(&self, key: String, sub: Subspace) {
        let clock = self.tick();
        self.shard(&key).lock().map.insert(key, (sub, clock));
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

    /// `(hits, misses)` counters, summed over all shards.
    pub fn stats(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for shard in &self.shards {
            let inner = shard.lock();
            hits += inner.hits;
            misses += inner.misses;
        }
        (hits, misses)
    }

    /// Hit/miss/eviction counters. Evictions count LRU victims and
    /// entries dropped by [`SubspaceCache::clear`].
    pub fn counters(&self) -> CacheCounters {
        let (hits, misses) = self.stats();
        CacheCounters {
            hits,
            misses,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of cached subspaces across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Container histogram over every cached subspace's row set — how the
    /// session's live subspaces compress (array/bitmap/run block counts).
    pub fn container_histogram(&self) -> kdap_query::ContainerHistogram {
        let mut h = kdap_query::ContainerHistogram::default();
        for shard in &self.shards {
            for (sub, _) in shard.lock().map.values() {
                h.merge(&sub.rows.container_histogram());
            }
        }
        h
    }

    /// Total capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached entries (e.g. after warehouse changes); the
    /// dropped entries count as evictions.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut inner = shard.lock();
            self.evictions
                .fetch_add(inner.map.len() as u64, Ordering::Relaxed);
            inner.map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::{generate_star_nets, GenConfig};
    use crate::testutil::ebiz_fixture;

    #[test]
    fn repeat_materializations_hit_the_cache() {
        let fx = ebiz_fixture();
        let cache = SubspaceCache::new(8);
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default());
        let a = cache.materialize(&fx.wh, &fx.jidx, &nets[0]);
        let b = cache.materialize(&fx.wh, &fx.jidx, &nets[0]);
        assert_eq!(a.rows, b.rows);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_result_matches_direct_materialization() {
        let fx = ebiz_fixture();
        let cache = SubspaceCache::new(8);
        for net in generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "lcd"],
            &GenConfig::default(),
        ) {
            let cached = cache.materialize(&fx.wh, &fx.jidx, &net);
            let direct = crate::subspace::materialize(&fx.wh, &fx.jidx, &net);
            assert_eq!(cached.rows, direct.rows);
        }
    }

    #[test]
    fn lru_evicts_oldest_within_a_shard() {
        let fx = ebiz_fixture();
        // Capacity 1 forces a single shard with a single slot, making
        // eviction order deterministic regardless of key hashing.
        let cache = SubspaceCache::new(1);
        assert_eq!(cache.capacity(), 1);
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default());
        assert!(nets.len() >= 2);
        cache.materialize(&fx.wh, &fx.jidx, &nets[0]); // miss
        cache.materialize(&fx.wh, &fx.jidx, &nets[0]); // hit
        cache.materialize(&fx.wh, &fx.jidx, &nets[1]); // miss, evicts 0
        cache.materialize(&fx.wh, &fx.jidx, &nets[0]); // miss again
        assert_eq!(cache.stats(), (1, 3));
        assert_eq!(cache.len(), 1);
        // Two LRU victims: net 0 (for net 1) and net 1 (for net 0 again).
        assert_eq!(cache.counters(), CacheCounters::new(1, 3, 2));
    }

    #[test]
    fn sharded_capacity_never_exceeds_requested_total() {
        for capacity in [1usize, 2, 5, 8, 10, 64] {
            let cache = SubspaceCache::new(capacity);
            assert!(cache.capacity() <= capacity, "capacity {capacity}");
            assert!(cache.capacity() >= 1);
        }
    }

    #[test]
    fn clear_resets_contents() {
        let fx = ebiz_fixture();
        let cache = SubspaceCache::new(4);
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default());
        cache.materialize(&fx.wh, &fx.jidx, &nets[0]);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "lcd"],
            &GenConfig::default(),
        );
        let net = &nets[0];
        let mut reversed = net.clone();
        reversed.constraints.reverse();
        assert_eq!(net.fingerprint(), reversed.fingerprint());
    }

    #[test]
    fn concurrent_access_stays_consistent() {
        let fx = std::sync::Arc::new(ebiz_fixture());
        let cache = std::sync::Arc::new(SubspaceCache::new(4));
        let nets = std::sync::Arc::new(generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "lcd"],
            &GenConfig::default(),
        ));
        std::thread::scope(|s| {
            for t in 0..4 {
                let fx = fx.clone();
                let cache = cache.clone();
                let nets = nets.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let net = &nets[(t + i) % nets.len()];
                        let cached = cache.materialize(&fx.wh, &fx.jidx, net);
                        let direct = crate::subspace::materialize(&fx.wh, &fx.jidx, net);
                        assert_eq!(cached.rows, direct.rows);
                    }
                });
            }
        });
        assert!(cache.len() <= cache.capacity());
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 4 * 50);
    }
}
