//! The atomic metrics registry: named counters, gauges, and log-bucketed
//! histograms.
//!
//! All instruments are lock-free on the hot path (relaxed atomics); the
//! registry itself takes a mutex only to resolve a name to its instrument
//! `Arc`, so callers in tight loops can hoist the handle once and update
//! it without any locking at all.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of histogram buckets: one per power of two of `u64`, plus a
/// dedicated bucket for zero.
pub const N_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins signed gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// row counts, …).
///
/// Bucket `0` holds the sample `0`; bucket `k ≥ 1` holds samples in
/// `[2^(k-1), 2^k)` — i.e. samples with exactly `k` significant bits.
/// Quantiles therefore resolve to a bucket and report its *upper bound*
/// (`2^k − 1`), a deterministic over-estimate that is never off by more
/// than 2×. Count, sum, min, and max are tracked exactly, so the mean is
/// exact. Updates are relaxed atomics; merging two histograms adds their
/// buckets, which makes merge commutative and associative — per-thread
/// histograms can be combined in any order with one deterministic result.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// The bucket index of a sample: its number of significant bits.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The largest sample a bucket can hold.
fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        match self.count() {
            0 => None,
            _ => Some(self.min.load(Ordering::Relaxed)),
        }
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        match self.count() {
            0 => None,
            _ => Some(self.max.load(Ordering::Relaxed)),
        }
    }

    /// Exact mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        match self.count() {
            0 => None,
            n => Some(self.sum() as f64 / n as f64),
        }
    }

    /// The quantile `q ∈ [0, 1]`: the upper bound of the bucket holding
    /// the sample of rank `⌈q·count⌉` (rank 1 = smallest). `None` when
    /// empty. `q = 0` reports the exact minimum and `q = 1` never exceeds
    /// the exact maximum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min();
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, slot) in self.buckets.iter().enumerate() {
            seen += slot.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bucket_upper(b).min(self.max.load(Ordering::Relaxed)));
            }
        }
        self.max()
    }

    /// Median (`quantile(0.5)`).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Adds every sample of `other` into `self`. Bucket-wise addition:
    /// commutative and associative, so per-thread histograms merge to the
    /// same result in any order.
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(&other.buckets) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Non-empty `(bucket_upper, count)` pairs, smallest bucket first.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, slot)| {
                let c = slot.load(Ordering::Relaxed);
                (c > 0).then_some((bucket_upper(b), c))
            })
            .collect()
    }
}

/// Hit/miss/eviction counters of one cache, as one comparable value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through.
    pub misses: u64,
    /// Entries dropped (capacity eviction or explicit clear).
    pub evictions: u64,
}

impl CacheCounters {
    /// Builds counters from the three values.
    pub fn new(hits: u64, misses: u64, evictions: u64) -> Self {
        CacheCounters {
            hits,
            misses,
            evictions,
        }
    }
}

/// The registry: name → instrument. Lookup takes a mutex; the returned
/// `Arc` handles update lock-free.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned registry only means a panic elsewhere; the maps stay
    // structurally sound.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock(&self.counters);
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.gauges);
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Arc::new(Gauge::default());
                map.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock(&self.histograms);
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::new());
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Every histogram with its live handle, sorted by name. Exporters
    /// that need raw buckets (Prometheus `le` series) use this instead
    /// of the summary-only [`Metrics::snapshot`].
    pub fn histogram_entries(&self) -> Vec<(String, Arc<Histogram>)> {
        let mut out: Vec<_> = lock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// A point-in-time snapshot of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = lock(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSummary {
                        count: v.count(),
                        sum: v.sum(),
                        min: v.min().unwrap_or(0),
                        max: v.max().unwrap_or(0),
                        p50: v.p50().unwrap_or(0),
                        p95: v.p95().unwrap_or(0),
                        p99: v.p99().unwrap_or(0),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Summary of one histogram at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum.
    pub sum: u64,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum (0 when empty).
    pub max: u64,
    /// Median bucket upper bound.
    pub p50: u64,
    /// 95th-percentile bucket upper bound.
    pub p95: u64,
    /// 99th-percentile bucket upper bound.
    pub p99: u64,
}

/// Every instrument of a registry at one point in time, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Human-readable rendering, one instrument per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{name}: n={} mean={:.0} p50≤{} p95≤{} p99≤{} max={}\n",
                h.count,
                if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64
                },
                h.p50,
                h.p95,
                h.p99,
                h.max,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_exact_fields() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.mean(), Some(1106.0 / 5.0));
    }

    #[test]
    fn quantiles_on_known_inputs() {
        // Ten samples, one per bucket 1..=10: values 1, 2, 4, …, 512.
        let h = Histogram::new();
        for b in 0..10u32 {
            h.record(1u64 << b);
        }
        // Rank ⌈0.5·10⌉ = 5 → value 16, bucket upper 31.
        assert_eq!(h.p50(), Some(31));
        // Rank ⌈0.95·10⌉ = 10 → value 512, bucket upper 1023, clamped to
        // the exact max 512.
        assert_eq!(h.p95(), Some(512));
        assert_eq!(h.p99(), Some(512));
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(512));
        // Rank ⌈0.1·10⌉ = 1 → value 1, bucket upper 1.
        assert_eq!(h.quantile(0.1), Some(1));
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let h = Histogram::new();
        h.record(1000);
        assert_eq!(h.p50(), Some(1000));
        assert_eq!(h.p99(), Some(1000));
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.p50(), None);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let samples: [&[u64]; 3] = [&[1, 2, 3, 100], &[7, 7, 7], &[0, 1 << 40, 55]];
        let build = |sets: &[&[u64]]| {
            let h = Histogram::new();
            for s in sets {
                for &v in *s {
                    h.record(v);
                }
            }
            h
        };
        // (a ⊕ b) ⊕ c
        let left = build(&[samples[0]]);
        left.merge(&build(&[samples[1]]));
        left.merge(&build(&[samples[2]]));
        // a ⊕ (b ⊕ c)
        let bc = build(&[samples[1]]);
        bc.merge(&build(&[samples[2]]));
        let right = build(&[samples[0]]);
        right.merge(&bc);
        // c ⊕ b ⊕ a
        let rev = build(&[samples[2]]);
        rev.merge(&build(&[samples[1]]));
        rev.merge(&build(&[samples[0]]));
        for h in [&right, &rev] {
            assert_eq!(left.count(), h.count());
            assert_eq!(left.sum(), h.sum());
            assert_eq!(left.min(), h.min());
            assert_eq!(left.max(), h.max());
            assert_eq!(left.nonzero_buckets(), h.nonzero_buckets());
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(left.quantile(q), h.quantile(q), "q={q}");
            }
        }
    }

    #[test]
    fn merge_across_threads_matches_serial() {
        let samples: Vec<u64> = (0..1000u64).map(|i| i * i % 7919).collect();
        let serial = Histogram::new();
        for &v in &samples {
            serial.record(v);
        }
        let merged = Histogram::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = samples
                .chunks(250)
                .map(|chunk| {
                    s.spawn(move || {
                        let h = Histogram::new();
                        for &v in chunk {
                            h.record(v);
                        }
                        h
                    })
                })
                .collect();
            for h in handles {
                merged.merge(&h.join().unwrap());
            }
        });
        assert_eq!(serial.count(), merged.count());
        assert_eq!(serial.sum(), merged.sum());
        assert_eq!(serial.nonzero_buckets(), merged.nonzero_buckets());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(serial.quantile(q), merged.quantile(q));
        }
    }

    #[test]
    fn registry_reuses_instruments() {
        let m = Metrics::new();
        m.counter("a").add(1);
        m.counter("a").add(2);
        assert_eq!(m.counter("a").get(), 3);
        m.gauge("g").set(-5);
        assert_eq!(m.gauge("g").get(), -5);
        m.histogram("h").record(42);
        let snap = m.snapshot();
        assert_eq!(snap.counters["a"], 3);
        assert_eq!(snap.gauges["g"], -5);
        assert_eq!(snap.histograms["h"].count, 1);
        assert!(snap.render().contains("a = 3"));
    }
}
