//! Numerical domain partitioning by simulated annealing (paper §5.3.2,
//! Algorithm 2).
//!
//! Given the `m` *basic intervals* computed during attribute ranking
//! (aggregation series over DS′ and RUP(DS′)), merge adjacent intervals
//! into `K` display ranges such that
//!
//! 1. `K` is small enough for human browsing,
//! 2. no merged range spans more than `L×` the basic intervals of the
//!    smallest range (skew constraint), and
//! 3. the correlation computed over the merged series stays as close as
//!    possible to the correlation over the basic intervals.
//!
//! The algorithm starts from equal-width splitting; each step proposes a
//! neighbor (one split point moved by one basic interval), keeps it as the
//! best-so-far when it shrinks the correlation error, and randomly accepts
//! it as the current state to escape local optima — exactly Algorithm 2 as
//! printed. The whole search runs on in-memory arrays and never touches
//! the storage engine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::interest::pearson;

/// Tuning parameters for Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealConfig {
    /// Target number of merged ranges `K`.
    pub target_intervals: usize,
    /// Skew limit `L`: largest range ≤ `L ×` smallest range (in basic
    /// intervals).
    pub skew_limit: f64,
    /// Iteration count `N`.
    pub iterations: usize,
    /// Probability of accepting a proposed neighbor as the *current*
    /// state (Algorithm 2 line 14, `RANDOM() > some constant` with
    /// constant = 1 − accept_prob).
    pub accept_prob: f64,
    /// RNG seed — runs are deterministic for a given seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            target_intervals: 5,
            skew_limit: 4.0,
            iterations: 500,
            accept_prob: 0.5,
            seed: 0x5EED,
        }
    }
}

/// Result of the interval merge.
#[derive(Debug, Clone)]
pub struct MergeResult {
    /// `K−1` split positions: range `r` covers basic intervals
    /// `[splits[r−1], splits[r])` (with sentinels 0 and `m`).
    pub splits: Vec<usize>,
    /// |corr(merged) − corr(basic)| of the best scheme found.
    pub error: f64,
    /// Correlation over the basic intervals (the reference value).
    pub base_corr: f64,
    /// Best error after each iteration (drives the Fig. 7 convergence
    /// curves).
    pub history: Vec<f64>,
}

impl MergeResult {
    /// Ranges as `(start, end)` basic-interval index pairs.
    pub fn ranges(&self, m: usize) -> Vec<(usize, usize)> {
        let mut bounds = Vec::with_capacity(self.splits.len() + 2);
        bounds.push(0);
        bounds.extend_from_slice(&self.splits);
        bounds.push(m);
        bounds.windows(2).map(|w| (w[0], w[1])).collect()
    }
}

/// Sums `series` over the ranges defined by `splits`.
pub fn merge_series(series: &[f64], splits: &[usize]) -> Vec<f64> {
    let mut out = Vec::with_capacity(splits.len() + 1);
    let mut start = 0usize;
    for &s in splits.iter().chain(std::iter::once(&series.len())) {
        out.push(series[start..s].iter().sum());
        start = s;
    }
    out
}

fn satisfies_skew(splits: &[usize], m: usize, l: f64) -> bool {
    let mut min_len = usize::MAX;
    let mut max_len = 0usize;
    let mut start = 0usize;
    for &s in splits.iter().chain(std::iter::once(&m)) {
        let len = s - start;
        min_len = min_len.min(len);
        max_len = max_len.max(len);
        start = s;
    }
    min_len > 0 && (max_len as f64) <= l * (min_len as f64)
}

fn scheme_error(x: &[f64], y: &[f64], splits: &[usize], base_corr: f64) -> f64 {
    let corr = pearson(&merge_series(x, splits), &merge_series(y, splits));
    (corr - base_corr).abs()
}

/// Runs Algorithm 2 on the basic-interval series `x` (DS′) and `y`
/// (RUP(DS′)).
///
/// Panics when the series lengths differ. When `m ≤ K` the basic
/// intervals are returned unmerged with zero error.
pub fn merge_intervals(x: &[f64], y: &[f64], cfg: &AnnealConfig) -> MergeResult {
    assert_eq!(x.len(), y.len(), "series length mismatch");
    let m = x.len();
    let k = cfg.target_intervals.max(1);
    let base_corr = pearson(x, y);
    if m <= k {
        return MergeResult {
            splits: (1..m).collect(),
            error: 0.0,
            base_corr,
            history: vec![0.0; cfg.iterations],
        };
    }

    // Line 3: equal-width initial splitting.
    let init: Vec<usize> = (1..k).map(|i| i * m / k).collect();
    let mut csp = init.clone();
    let mut bsp = init;
    let mut best_err = scheme_error(x, y, &bsp, base_corr);
    let mut history = Vec::with_capacity(cfg.iterations);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    for _ in 0..cfg.iterations {
        // Line 7: a valid neighbor of CSP — one split point nudged by one
        // basic interval. A few proposals are tried; when the constraint
        // rejects all of them the iteration is a no-op.
        let mut temp: Option<Vec<usize>> = None;
        for _attempt in 0..16 {
            let mut cand = csp.clone();
            let i = rng.gen_range(0..cand.len());
            let delta: isize = if rng.gen_bool(0.5) { 1 } else { -1 };
            let lo = if i == 0 { 0 } else { cand[i - 1] };
            let hi = if i + 1 == cand.len() { m } else { cand[i + 1] };
            let moved = cand[i] as isize + delta;
            if moved <= lo as isize || moved >= hi as isize {
                continue;
            }
            cand[i] = moved as usize;
            if satisfies_skew(&cand, m, cfg.skew_limit) {
                temp = Some(cand);
                break;
            }
        }
        if let Some(temp) = temp {
            let a = scheme_error(x, y, &temp, base_corr);
            // Lines 11–13: keep the best scheme seen.
            if a < best_err {
                best_err = a;
                bsp = temp.clone();
            }
            // Line 14: random acceptance into the current state.
            if rng.gen::<f64>() < cfg.accept_prob {
                csp = temp;
            }
        }
        history.push(best_err);
    }

    MergeResult {
        splits: bsp,
        error: best_err,
        base_corr,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_series(m: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..m).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..m).map(|i| 2.0 * i as f64 + 1.0).collect();
        (x, y)
    }

    #[test]
    fn merge_series_sums_segments() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(merge_series(&s, &[2, 4]), vec![3.0, 7.0, 5.0]);
        assert_eq!(merge_series(&s, &[]), vec![15.0]);
    }

    #[test]
    fn skew_constraint_checks_extremes() {
        // Segments of 1, 1, 8 over m=10: 8 > 3×1.
        assert!(!satisfies_skew(&[1, 2], 10, 3.0));
        // Segments 3, 3, 4: fine for L=2.
        assert!(satisfies_skew(&[3, 6], 10, 2.0));
    }

    #[test]
    fn perfectly_correlated_series_stay_perfect() {
        let (x, y) = linear_series(40);
        let r = merge_intervals(&x, &y, &AnnealConfig::default());
        assert!((r.base_corr - 1.0).abs() < 1e-9);
        // Any merge of a linear pair stays perfectly correlated.
        assert!(r.error < 1e-9);
    }

    #[test]
    fn error_history_is_monotone_nonincreasing() {
        let x: Vec<f64> = (0..60).map(|i| ((i * 37) % 23) as f64).collect();
        let y: Vec<f64> = (0..60).map(|i| ((i * 17) % 19) as f64).collect();
        let r = merge_intervals(&x, &y, &AnnealConfig::default());
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-15);
        }
        assert_eq!(r.history.len(), 500);
    }

    #[test]
    fn annealing_improves_on_equal_width_start() {
        // A deliberately lumpy pair where equal-width splitting distorts
        // the correlation.
        let x: Vec<f64> = (0..50)
            .map(|i| if i % 7 == 0 { 50.0 } else { i as f64 })
            .collect();
        let y: Vec<f64> = (0..50)
            .map(|i| if i % 11 == 0 { 80.0 } else { (50 - i) as f64 })
            .collect();
        let base = pearson(&x, &y);
        let init: Vec<usize> = (1..5).map(|i| i * 50 / 5).collect();
        let initial_err = scheme_error(&x, &y, &init, base);
        let cfg = AnnealConfig {
            iterations: 1000,
            ..AnnealConfig::default()
        };
        let r = merge_intervals(&x, &y, &cfg);
        assert!(r.error <= initial_err);
        assert!(r.error < initial_err, "should strictly improve here");
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let x: Vec<f64> = (0..40).map(|i| ((i * 13) % 11) as f64).collect();
        let y: Vec<f64> = (0..40).map(|i| ((i * 7) % 13) as f64).collect();
        let cfg = AnnealConfig::default();
        let a = merge_intervals(&x, &y, &cfg);
        let b = merge_intervals(&x, &y, &cfg);
        assert_eq!(a.splits, b.splits);
        assert_eq!(a.error, b.error);
    }

    #[test]
    fn splits_respect_skew_constraint() {
        let x: Vec<f64> = (0..40).map(|i| (i as f64).sin().abs() * 10.0).collect();
        let y: Vec<f64> = (0..40).map(|i| (i as f64).cos().abs() * 10.0).collect();
        let cfg = AnnealConfig {
            skew_limit: 2.0,
            ..AnnealConfig::default()
        };
        let r = merge_intervals(&x, &y, &cfg);
        assert!(satisfies_skew(&r.splits, 40, 2.0));
    }

    #[test]
    fn tiny_domains_pass_through() {
        let r = merge_intervals(&[1.0, 2.0], &[2.0, 3.0], &AnnealConfig::default());
        assert_eq!(r.splits, vec![1]);
        assert_eq!(r.error, 0.0);
        assert_eq!(r.ranges(2), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn ranges_partition_the_domain() {
        let (x, y) = linear_series(37);
        let cfg = AnnealConfig {
            target_intervals: 6,
            ..AnnealConfig::default()
        };
        let r = merge_intervals(&x, &y, &cfg);
        let ranges = r.ranges(37);
        assert_eq!(ranges.len(), 6);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges.last().unwrap().1, 37);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }
}
