//! Numerical domain partitioning (paper §5.3.2, Algorithm 2), solved
//! exactly: merge `m` basic intervals into `K` ranges, none more than `L×`
//! (4×) the intervals of the smallest, keeping the merged correlation
//! closest to the basic one. The paper anneals; the space is small (273
//! splits at 3 of 40, 10,831 at 5 of 40), so the engine enumerates it.

use crate::interest::pearson;

/// Skew limit `L`.
const SKEW_LIMIT: usize = 4;

/// The most skew-feasible splits a session's [`optimal_splits`] scores:
/// 5 ranges of 40 basic intervals (10,831) fit, 6 of 40 (48,423) do not.
pub(crate) const MAX_SPLITS: usize = 16_384;

/// Sums `series` over the ranges defined by `splits`.
pub fn merge_series(series: &[f64], splits: &[usize]) -> Vec<f64> {
    let mut out = Vec::with_capacity(splits.len() + 1);
    merge_into(series, splits, &mut out);
    out
}

fn merge_into(series: &[f64], splits: &[usize], out: &mut Vec<f64>) {
    out.clear();
    let mut start = 0usize;
    for &s in splits.iter().chain(std::iter::once(&series.len())) {
        out.push(series[start..s].iter().sum());
        start = s;
    }
}

/// The next range's lengths, with `rest` intervals left for it and `after`
/// more ranges, the placed ones `shortest..=longest` long (`usize::MAX`, 0
/// before the first): those within the skew bound whose rest `after` ranges
/// of ¼ the longest to 4× the shortest can cover, from `first()` to where
/// `fits` fails. The next range's `first()` always fits.
struct NextRange {
    rest: usize,
    after: usize,
    shortest: usize,
    longest: usize,
}

impl NextRange {
    fn first(&self) -> usize {
        // The rest fits under 4× the shortest: `rest − len ≤ 4·after·min(shortest, len)`.
        let (rest, after, shortest) = (self.rest, self.after, self.shortest);
        let mut len = rest.div_ceil(SKEW_LIMIT * after + 1);
        if len > shortest {
            len = rest - SKEW_LIMIT * after * shortest;
        }
        len.max(self.longest.div_ceil(SKEW_LIMIT)).max(1)
    }

    fn fits(&self, len: usize) -> bool {
        let longest = self.longest.max(len);
        len <= SKEW_LIMIT.saturating_mul(self.shortest)
            && len < self.rest
            && self.after * longest.div_ceil(SKEW_LIMIT) <= self.rest - len
    }
}

/// Calls `visit` with every skew-feasible split of `m` intervals into `k`
/// ranges (`m > k ≥ 1`) in lexicographic order until it returns false: an
/// odometer over the ends of the first `k − 1` ranges.
fn walk(m: usize, k: usize, mut visit: impl FnMut(&[usize]) -> bool) {
    // Each range before the last: its bounds and start (its end is a split).
    let mut open: Vec<(NextRange, usize)> = Vec::with_capacity(k - 1);
    let mut splits: Vec<usize> = Vec::with_capacity(k - 1);
    let (mut start, mut shortest, mut longest) = (0, usize::MAX, 0);
    loop {
        while splits.len() < k - 1 {
            let next = NextRange {
                rest: m - start,
                after: k - 1 - splits.len(),
                shortest,
                longest,
            };
            let len = next.first();
            debug_assert!(next.fits(len), "a placed range leaves a completion");
            open.push((next, start));
            (start, shortest, longest) = (start + len, shortest.min(len), longest.max(len));
            splits.push(start);
        }
        if !visit(&splits) {
            return;
        }
        // Grow the deepest range that still fits; close those that do not.
        loop {
            let (Some((next, from)), Some(end)) = (open.last(), splits.last_mut()) else {
                return;
            };
            *end += 1;
            let len = *end - from;
            if next.fits(len) {
                (start, shortest, longest) = (*end, next.shortest.min(len), next.longest.max(len));
                break;
            }
            open.pop();
            splits.pop();
        }
    }
}

/// The skew-feasible splits of `m` intervals into `k` ranges, counted up
/// to `cap + 1` (1 when `m ≤ k`: no search). With `m > k` there are at
/// least `k` (equal-width lengths permuted, or one interval moved), so a
/// `k` over `cap` needs no walk.
pub(crate) fn feasible_splits(m: usize, k: usize, cap: usize) -> usize {
    if m <= k {
        return 1;
    }
    if k > cap {
        return cap + 1;
    }
    let mut n = 0;
    walk(m, k, |_| {
        n += 1;
        n <= cap
    });
    n
}

/// Algorithm 2 on the basic-interval series `x` (DS′) and `y` (RUP(DS′)):
/// the `k − 1` split points (range `r` is `splits[r−1]..splits[r]`, with
/// sentinels 0 and `m`) of the skew-feasible split with the least
/// |corr(merged) − corr(basic)| by [`merge_series`] and [`pearson`], and
/// that error. Ties go to equal width, then to the lexicographically
/// smallest split; `m ≤ k` is returned unmerged with error 0. Panics when
/// the series lengths differ.
pub fn optimal_splits(x: &[f64], y: &[f64], k: usize) -> (Vec<usize>, f64) {
    assert_eq!(x.len(), y.len(), "series length mismatch");
    let m = x.len();
    let k = k.max(1);
    if m <= k {
        return ((1..m).collect(), 0.0);
    }
    let base = pearson(x, y);
    let (mut merged_x, mut merged_y) = (Vec::with_capacity(k), Vec::with_capacity(k));
    let mut error = |splits: &[usize]| {
        merge_into(x, splits, &mut merged_x);
        merge_into(y, splits, &mut merged_y);
        (pearson(&merged_x, &merged_y) - base).abs()
    };
    let mut best: Vec<usize> = (1..k).map(|i| i * m / k).collect();
    let mut best_err = error(&best);
    walk(m, k, |splits| {
        let err = error(splits);
        if err < best_err {
            best_err = err;
            best.copy_from_slice(splits);
        }
        true
    });
    (best, best_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_series_sums_segments() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(merge_series(&s, &[2, 4]), vec![3.0, 7.0, 5.0]);
        assert_eq!(merge_series(&s, &[]), vec![15.0]);
    }

    #[test]
    fn feasible_split_counts_at_40_basic_intervals() {
        let counts: Vec<usize> = (3..=7)
            .map(|k| feasible_splits(40, k, usize::MAX - 1))
            .collect();
        assert_eq!(counts, vec![273, 2_005, 10_831, 48_423, 159_852]);
        assert!(feasible_splits(40, 5, MAX_SPLITS) <= MAX_SPLITS);
        assert_eq!(feasible_splits(40, 6, MAX_SPLITS), MAX_SPLITS + 1);
        assert_eq!(feasible_splits(3, 5, MAX_SPLITS), 1);
    }

    #[test]
    fn feasible_split_counts_match_brute_force() {
        for m in 1..=16usize {
            for k in 1..=6usize {
                // Every subset of 1..m as split points, by bit mask.
                let want = (0u32..1 << (m - 1))
                    .filter(|mask| mask.count_ones() as usize == k - 1)
                    .filter(|mask| {
                        let splits: Vec<usize> =
                            (1..m).filter(|i| mask & (1 << (i - 1)) != 0).collect();
                        let lens: Vec<usize> = merge_series(&vec![1.0; m], &splits)
                            .iter()
                            .map(|&l| l as usize)
                            .collect();
                        lens.iter().max() <= Some(&(SKEW_LIMIT * lens.iter().min().unwrap()))
                    })
                    .count();
                let want = if m <= k { 1 } else { want };
                assert_eq!(feasible_splits(m, k, usize::MAX - 1), want, "{k} of {m}");
            }
        }
    }

    #[test]
    fn hostile_sizes_are_over_the_bound_at_once() {
        assert_eq!(
            feasible_splits(1_000_001, 1_000_000, MAX_SPLITS),
            MAX_SPLITS + 1
        );
        assert_eq!(feasible_splits(1 << 40, 2, MAX_SPLITS), MAX_SPLITS + 1);
    }

    #[test]
    fn skew_bound_is_inclusive() {
        // 10 into two ranges: 2 + 8 meets 8 ≤ 4·2, 1 + 9 does not.
        assert_eq!(feasible_splits(10, 2, 100), 7);
    }

    #[test]
    fn perfectly_correlated_series_stay_perfect() {
        let x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..40).map(|i| 2.0 * i as f64 + 1.0).collect();
        let (splits, err) = optimal_splits(&x, &y, 5);
        // Every merge of a linear pair is perfectly correlated, so the
        // equal-width split wins the tie.
        assert!(err < 1e-9);
        assert_eq!(splits, vec![8, 16, 24, 32]);
    }

    #[test]
    fn tiny_domains_pass_through() {
        assert_eq!(optimal_splits(&[1.0, 2.0], &[2.0, 3.0], 3), (vec![1], 0.0));
    }
}
