//! Algorithm 2 as the paper prints it (§5.3.2): numerical domain
//! partitioning by simulated annealing — the subject of Fig 7 (E6).
//!
//! The engine solves the same problem exactly
//! ([`kdap_core::facet::optimal_splits`]); this search is kept only to
//! reproduce the paper's convergence curves against that optimum.
//!
//! It merges `m` basic intervals into `K` ranges, no range more than
//! `L×` the basic intervals of the smallest (`L` = 4, the engine's
//! bound), minimising |corr(merged) − corr(basic)|. It starts from
//! equal-width splitting; each step proposes a neighbor (one split point
//! moved by one basic interval), keeps it as the best-so-far when it
//! shrinks the error, and randomly accepts it as the current state to
//! escape local optima.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kdap_core::facet::merge_series;
use kdap_core::pearson;

/// Skew limit `L`: largest range ≤ `L ×` smallest range (in basic
/// intervals).
const SKEW_LIMIT: f64 = 4.0;

/// Probability of accepting a proposed neighbor as the *current* state
/// (Algorithm 2 line 14, `RANDOM() > some constant` with constant =
/// 1 − this).
const ACCEPT_PROB: f64 = 0.5;

/// Tuning parameters of the annealing.
#[derive(Debug, Clone)]
pub struct AnnealConfig {
    /// Target number of merged ranges `K`.
    pub target_intervals: usize,
    /// Iteration count `N`.
    pub iterations: usize,
    /// RNG seed — runs are deterministic for a given seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            target_intervals: 5,
            iterations: 500,
            seed: 0x5EED,
        }
    }
}

/// Result of the annealing.
#[derive(Debug, Clone)]
pub struct Annealed {
    /// `K−1` split positions: range `r` covers basic intervals
    /// `[splits[r−1], splits[r])` (with sentinels 0 and `m`).
    pub splits: Vec<usize>,
    /// |corr(merged) − corr(basic)| of the best scheme found.
    pub error: f64,
    /// Best error after each iteration (the Fig. 7 convergence curve).
    pub history: Vec<f64>,
}

fn satisfies_skew(splits: &[usize], m: usize) -> bool {
    let mut min_len = usize::MAX;
    let mut max_len = 0usize;
    let mut start = 0usize;
    for &s in splits.iter().chain(std::iter::once(&m)) {
        let len = s - start;
        min_len = min_len.min(len);
        max_len = max_len.max(len);
        start = s;
    }
    min_len > 0 && (max_len as f64) <= SKEW_LIMIT * (min_len as f64)
}

fn scheme_error(x: &[f64], y: &[f64], splits: &[usize], base_corr: f64) -> f64 {
    let corr = pearson(&merge_series(x, splits), &merge_series(y, splits));
    (corr - base_corr).abs()
}

/// Runs the annealing on the basic-interval series `x` (DS′) and `y`
/// (RUP(DS′)).
///
/// Panics when the series lengths differ, and when `K` = 1 < `m` (there
/// is no split point to move). When `m ≤ K` the basic intervals are
/// returned unmerged with zero error.
pub fn anneal(x: &[f64], y: &[f64], cfg: &AnnealConfig) -> Annealed {
    assert_eq!(x.len(), y.len(), "series length mismatch");
    let m = x.len();
    let k = cfg.target_intervals.max(1);
    let base_corr = pearson(x, y);
    if m <= k {
        return Annealed {
            splits: (1..m).collect(),
            error: 0.0,
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
            if satisfies_skew(&cand, m) {
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
            if rng.gen::<f64>() < ACCEPT_PROB {
                csp = temp;
            }
        }
        history.push(best_err);
    }

    Annealed {
        splits: bsp,
        error: best_err,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_constraint_checks_extremes() {
        // Segments of 1, 1, 8 over m=10: 8 > 4×1.
        assert!(!satisfies_skew(&[1, 2], 10));
        // Segments 2, 4, 4: fine; 4 ≤ 4×2.
        assert!(satisfies_skew(&[2, 6], 10));
    }

    #[test]
    fn perfectly_correlated_series_stay_perfect() {
        let x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..40).map(|i| 2.0 * i as f64 + 1.0).collect();
        let r = anneal(&x, &y, &AnnealConfig::default());
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-9);
        // Any merge of a linear pair stays perfectly correlated.
        assert!(r.error < 1e-9);
    }

    #[test]
    fn error_history_is_monotone_nonincreasing() {
        let x: Vec<f64> = (0..60).map(|i| ((i * 37) % 23) as f64).collect();
        let y: Vec<f64> = (0..60).map(|i| ((i * 17) % 19) as f64).collect();
        let r = anneal(&x, &y, &AnnealConfig::default());
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
        let r = anneal(&x, &y, &cfg);
        assert!(r.error < initial_err, "should strictly improve here");
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let x: Vec<f64> = (0..40).map(|i| ((i * 13) % 11) as f64).collect();
        let y: Vec<f64> = (0..40).map(|i| ((i * 7) % 13) as f64).collect();
        let cfg = AnnealConfig::default();
        let a = anneal(&x, &y, &cfg);
        let b = anneal(&x, &y, &cfg);
        assert_eq!(a.splits, b.splits);
        assert_eq!(a.error, b.error);
    }

    #[test]
    fn splits_respect_skew_constraint() {
        let x: Vec<f64> = (0..40).map(|i| (i as f64).sin().abs() * 10.0).collect();
        let y: Vec<f64> = (0..40).map(|i| (i as f64).cos().abs() * 10.0).collect();
        let r = anneal(&x, &y, &AnnealConfig::default());
        assert_eq!(r.splits.len(), 4);
        assert!(satisfies_skew(&r.splits, 40));
    }

    #[test]
    fn tiny_domains_pass_through() {
        let r = anneal(&[1.0, 2.0], &[2.0, 3.0], &AnnealConfig::default());
        assert_eq!(r.splits, vec![1]);
        assert_eq!(r.error, 0.0);
    }
}
