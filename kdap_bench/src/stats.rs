//! Seeded sampling and the order statistics every reported number goes
//! through: nearest-rank percentiles with the "ten samples beyond" rule,
//! medians, the quartile spread the noise study uses, and the FNV-1a
//! digest the correctness gate compares.

use std::time::{Duration, Instant};

/// SplitMix64: the whole benchmark's only source of randomness, so one
/// `--seed` fixes every draw.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Two-tier popularity over ranks `0..n` as a repeating schedule: every
/// cycle asks each hot rank (`0..hot`) once and the next few cold ranks
/// (walking round the cold tier from a seeded start), in a seeded order,
/// so the hot set takes `hot_share` of the operations.
///
/// Synthetic: no request log of a KDAP deployment exists to fit a
/// popularity curve to. Why two flat tiers and not Zipf: under Zipf(1.0)
/// over 256 queries one query is 16 % of all draws and the p50 of a run is
/// decided by where that one query's cost falls, and a hit ratio near one
/// half puts the p50 in the gap between hit cost and miss cost. Why a
/// schedule and not draws: with independent draws each query's share of a
/// few hundred operations fluctuates by a couple of percent, which moves
/// the p50 from one query's cost to its neighbour's (25 % between seeds).
/// With whole cycles every run holds the same operations in another
/// order. [`Zipf`] stays as a second population that gates nothing.
pub struct HotColdCycle {
    n: usize,
    hot: usize,
    cold_per_cycle: usize,
    cold_next: usize,
    pending: Vec<usize>,
}

impl HotColdCycle {
    pub fn new(n: usize, hot: usize, hot_share: f64, rng: &mut Rng) -> Self {
        assert!(0 < hot && hot < n, "need a hot set and a cold rest");
        let cold = n - hot;
        let per_cycle = hot as f64 * (1.0 - hot_share) / hot_share;
        HotColdCycle {
            n,
            hot,
            cold_per_cycle: (per_cycle.round() as usize).clamp(1, cold),
            cold_next: (rng.next_u64() % cold as u64) as usize,
            pending: Vec::new(),
        }
    }

    pub fn next(&mut self, rng: &mut Rng) -> usize {
        if self.pending.is_empty() {
            let cold = self.n - self.hot;
            self.pending.extend(0..self.hot);
            for _ in 0..self.cold_per_cycle {
                self.pending.push(self.hot + self.cold_next);
                self.cold_next = (self.cold_next + 1) % cold;
            }
            // Fisher–Yates.
            for i in (1..self.pending.len()).rev() {
                self.pending
                    .swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
        }
        self.pending.pop().expect("a cycle is never empty")
    }
}

/// Zipf(1.0) over ranks `0..n`: rank `k` is drawn with weight `1 / (k + 1)`.
/// The popularity ISSUE 11 asked for; it drives only the traced run's
/// `core.cache.zipf_*` probe, so that a change which is sensitive to skew
/// (cache policy, admission) stays visible.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "Zipf over no ranks");
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|k| {
                total += 1.0 / k as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let x = rng.next_f64() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile is trustworthy only with at least ten samples
/// beyond it (so p95 needs 200 samples).
pub fn has_tail(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// Median of unsorted values (mean of the middle two when even);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the "exclusive" method) — the spread the acceptance driver
/// computes. `None` with fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

/// A host-speed gauge: one fixed piece of work — arithmetic on 16 KiB,
/// a sequential read of an 8 MiB table, dependent loads all over that
/// table — timed between operations of a workload.
///
/// The shared 2-vCPU hosts this benchmark runs on change speed under it:
/// for minutes at a time the same work takes 1.3–1.5× as long, a whole
/// run falls inside such a phase, and every wall-clock metric moves with
/// it (ten identical `cold_start` runs: 15.1–20.8 ops/s, a quartile
/// spread of 28 %, above the largest bound the acceptance contract
/// allows). No statistic within a run can see that; a fixed piece of work
/// timed next to the run can. A *host factor* is a median of readings
/// over [`GAUGE_REFERENCE_NS`], and a run's CPU-bound timings are
/// reported as wall-clock ÷ the host factor of their own moment: at the
/// reference host's speed.
///
/// The gauge must not move with the engine, or it would hide part of an
/// engine regression. So its work is fixed, touches only its own table
/// and allocates nothing; and so that a reading does not depend on what
/// the operation before it left behind, each reading starts with about
/// 3 ms of the same work untimed (`PRIME`, `PRIME_STREAMS`). That
/// matters: a reading taken straight after an engine operation, even
/// after one untimed pass, is 1.4–1.5× a settled one; it settles within
/// 3 ms whatever the caches hold, so presumably it is the core's clock
/// coming back from the engine's wide-vector code. The test
/// `gauge_reading_does_not_depend_on_what_ran_before_it` covers the part
/// of this a test can stage (cold caches, a churned heap).
pub struct Gauge {
    table: Vec<u32>,
    due: Instant,
    /// When each reading was taken, and how many nanoseconds it took.
    readings: Vec<(Instant, f64)>,
}

/// About what one gauge reading takes on the development host (Xeon
/// 2.1 GHz vCPU) in its fast phase. Any fixed value would do: it only
/// sets the host speed at which timings are reported.
pub const GAUGE_REFERENCE_NS: f64 = 1_200_000.0;
const GAUGE_EVERY: Duration = Duration::from_millis(200);
/// The table: 8 MiB, four times the L2 cache.
const TABLE_SLOTS: u32 = 1 << 21;
/// The three parts of a reading, each about 0.4 ms on the development
/// host: arithmetic on the table's first 16 KiB, one sequential read of
/// the table, dependent loads all over it.
const ARITHMETIC_SLOTS: usize = 1 << 12;
const ARITHMETIC_PASSES: usize = 400;
const CHASE_STEPS: usize = 9_000;
/// Untimed work before a reading: arithmetic, then sequential reads of
/// the table — about 3 ms, which the clock needs to settle, and three
/// reads, after which a fourth takes the same time whatever the caches
/// held before (after one, it is still 17 % slower behind 64 MiB of
/// writes than behind a quiet spin).
const PRIME: Duration = Duration::from_millis(1);
const PRIME_STREAMS: usize = 3;

impl Gauge {
    pub fn new() -> Self {
        // `i -> a i + c (mod 2^21)` with `a ≡ 1 (mod 4)` and `c` odd visits
        // every slot before it repeats, in no order a prefetcher can follow.
        let table = (0..TABLE_SLOTS)
            .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) % TABLE_SLOTS)
            .collect();
        Gauge {
            table,
            due: Instant::now(),
            readings: Vec::new(),
        }
    }

    /// Multiply-xor over 16 KiB that stay in L1: the core's clock.
    fn arithmetic(&self) -> u32 {
        let mut acc = 0u32;
        for &x in std::hint::black_box(&self.table[..ARITHMETIC_SLOTS]) {
            let h = x.wrapping_mul(0x9E37_79B1);
            acc = acc.wrapping_add(h ^ (h >> 15));
        }
        acc
    }

    /// One sequential read of the table: bandwidth beyond L1.
    fn stream(&self) -> u32 {
        let mut acc = 0u32;
        for &x in std::hint::black_box(&self.table) {
            acc = acc.wrapping_add(x);
        }
        acc
    }

    /// Dependent loads all over the table: latency beyond L1.
    fn chase(&self) -> u32 {
        let table = std::hint::black_box(&self.table);
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = table[at as usize];
        }
        at
    }

    /// Settles the clock and the caches, untimed, then does the gauge's
    /// work and records how long it took.
    pub fn read(&mut self) {
        let mut acc = 0u32;
        let prime = Instant::now();
        while prime.elapsed() < PRIME {
            acc = acc.wrapping_add(self.arithmetic());
        }
        for _ in 0..PRIME_STREAMS {
            acc = acc.wrapping_add(self.stream());
        }
        let start = Instant::now();
        for _ in 0..ARITHMETIC_PASSES {
            acc = acc.wrapping_add(self.arithmetic());
        }
        acc = acc.wrapping_add(self.stream());
        acc = acc.wrapping_add(self.chase());
        self.readings
            .push((start, start.elapsed().as_nanos() as f64));
        std::hint::black_box(acc);
    }

    /// [`Gauge::read`] when the last reading is `GAUGE_EVERY` old. Call
    /// between operations, never inside a timed one.
    pub fn tick(&mut self) {
        if Instant::now() >= self.due {
            self.read();
            self.due = Instant::now() + GAUGE_EVERY;
        }
    }

    /// How many readings exist; pass it to [`Gauge::factor_since`] later.
    pub fn mark(&self) -> usize {
        self.readings.len()
    }

    fn factor_of(readings: &[(Instant, f64)]) -> f64 {
        let ns: Vec<f64> = readings.iter().map(|r| r.1).collect();
        median(&ns).map_or(1.0, |ns| ns / GAUGE_REFERENCE_NS)
    }

    /// How much slower than the reference the host was since `mark`:
    /// the median reading taken since, over the reference.
    pub fn factor_since(&self, mark: usize) -> f64 {
        Self::factor_of(&self.readings[mark..])
    }

    /// How much slower than the reference the host was around `at`: the
    /// median of the two readings before and the two after it. The host
    /// also slows for a second or two at a time; a run's tail latency is
    /// made of the operations such a burst hit, and only the readings
    /// next to them saw it.
    pub fn factor_at(&self, at: Instant) -> f64 {
        let next = self.readings.partition_point(|r| r.0 <= at);
        let near = next.saturating_sub(2)..(next + 2).min(self.readings.len());
        Self::factor_of(&self.readings[near])
    }
}

/// FNV-1a over `bytes`, continuing from `state` so several bodies fold
/// into one digest.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a offset basis: the digest of nothing.
pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!has_tail(199, 0.95));
        assert!(has_tail(200, 0.95));
        assert!(!has_tail(19, 0.50));
        assert!(has_tail(20, 0.50));
        assert!(!has_tail(0, 0.50));
    }

    #[test]
    fn cycle_asks_every_hot_rank_once_and_walks_the_cold_tier() {
        let run = |seed| {
            let mut rng = Rng::new(seed);
            let mut cycle = HotColdCycle::new(256, 32, 0.8, &mut rng);
            (0..120).map(|_| cycle.next(&mut rng)).collect::<Vec<_>>()
        };
        let a = run(42);
        assert_eq!(a, run(42));
        assert_ne!(a, run(7));
        // 32 hot + 8 cold per cycle of 40; three whole cycles.
        for cycle in a.chunks(40) {
            let mut hot: Vec<usize> = cycle.iter().copied().filter(|&r| r < 32).collect();
            hot.sort_unstable();
            assert_eq!(hot, (0..32).collect::<Vec<_>>());
            assert_eq!(cycle.iter().filter(|&&r| r >= 32).count(), 8);
        }
        // The 24 cold ranks are consecutive round the cold tier: no repeat.
        let mut cold: Vec<usize> = a.iter().copied().filter(|&r| r >= 32).collect();
        cold.sort_unstable();
        cold.dedup();
        assert_eq!(cold.len(), 24);
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let zipf = Zipf::new(256);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..4000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(42);
        assert_eq!(a, draw(42));
        assert_ne!(a, draw(7));
        assert!(a.iter().all(|&r| r < 256));
        // H(256) ≈ 6.12: rank 0 takes 1 / 6.12 ≈ 16 % of the draws, rank 1 half of that.
        let share = |rank| a.iter().filter(|&&r| r == rank).count() as f64 / 4000.0;
        assert!((0.14..0.19).contains(&share(0)), "rank 0: {}", share(0));
        assert!((0.06..0.10).contains(&share(1)), "rank 1: {}", share(1));
        assert!(a.iter().any(|&r| r >= 128), "the tail is reached");
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let spread = quartile_spread(&[1.0, 2.0]).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn gauge_factors_are_medians_of_readings() {
        let mut gauge = Gauge::new();
        assert_eq!(
            gauge.factor_since(gauge.mark()),
            1.0,
            "no reading: no correction"
        );
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        gauge.readings = [8.0, 1.0, 1.5, 3.0, 1.0, 1.25]
            .iter()
            .enumerate()
            .map(|(i, x)| (at(200 * i as u64), x * GAUGE_REFERENCE_NS))
            .collect();
        assert_eq!(gauge.factor_since(1), 1.25);
        // Around 500 ms: the readings at 200, 400 | 600, 800 ms.
        assert_eq!(gauge.factor_at(at(500)), 1.25);
        // At either end fewer than four readings are near.
        assert_eq!(gauge.factor_at(at(0)), 1.5);
        assert_eq!(gauge.factor_at(at(5000)), 1.125);
        let mark = gauge.mark();
        gauge.read();
        gauge.tick(); // due at once after `new`
        assert_eq!(gauge.mark(), mark + 2);
        gauge.tick(); // not due again within 200 ms
        assert_eq!(gauge.mark(), mark + 2);
        assert!(gauge.factor_since(mark) > 0.0);
    }

    /// An engine change that leaves more behind — colder caches, a busier
    /// allocator — must not slow the gauge, or the host factor would
    /// absorb part of that change's own regression. Readings taken after
    /// a quiet spin and after cache- and heap-heavy work, interleaved so
    /// that a change of host speed meets both alike, must agree.
    #[test]
    fn gauge_reading_does_not_depend_on_what_ran_before_it() {
        let mut gauge = Gauge::new();
        let mut big = vec![0u8; 64 << 20];
        let (mut quiet, mut pressed) = (Vec::new(), Vec::new());
        for round in 0..25u8 {
            let spin = Instant::now();
            while spin.elapsed() < Duration::from_millis(2) {
                std::hint::spin_loop();
            }
            gauge.read();
            quiet.push(gauge.readings[gauge.readings.len() - 1].1);

            // Evict every cache level, then churn the allocator.
            big.iter_mut().step_by(64).for_each(|b| *b = round);
            let strings: Vec<String> = (0..50_000).map(|i| format!("churn {i}")).collect();
            drop(std::hint::black_box((&big, strings)));
            gauge.read();
            pressed.push(gauge.readings[gauge.readings.len() - 1].1);
        }
        let ratio = median(&pressed).unwrap() / median(&quiet).unwrap();
        assert!(
            (0.9..1.1).contains(&ratio),
            "readings after heavy work are {ratio:.3}× those after a quiet spin"
        );
    }

    #[test]
    fn digest_folds_and_separates() {
        let ab = fnv1a(fnv1a(FNV_SEED, b"a"), b"b");
        assert_eq!(ab, fnv1a(FNV_SEED, b"ab"));
        assert_ne!(ab, fnv1a(FNV_SEED, b"ba"));
    }
}
