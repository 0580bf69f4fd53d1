//! Property-based tests for the KDAP core algorithms: correlation,
//! ranking-formula, and Algorithm 2 invariants (the exact interval merge
//! against a brute-force oracle; an `#[ignore]`d 2,000-case copy runs
//! with `cargo test --release -p kdap-core --test props -- --ignored`).

use proptest::prelude::*;

use kdap_core::facet::{merge_series, optimal_splits};
use kdap_core::{pearson, score_star_net, Constraint, Hit, HitGroup, RankMethod, StarNet};
use kdap_query::JoinPath;
use kdap_warehouse::{ColRef, TableId};
use std::sync::Arc;

fn net_from(groups: Vec<Vec<f64>>) -> StarNet {
    StarNet {
        constraints: groups
            .into_iter()
            .enumerate()
            .map(|(gi, scores)| Constraint {
                group: Arc::new(HitGroup {
                    attr: ColRef::new(TableId(gi as u32), 0),
                    hits: scores
                        .into_iter()
                        .enumerate()
                        .map(|(i, s)| Hit {
                            code: i as u32,
                            value: Arc::from("v"),
                            score: s,
                        })
                        .collect(),
                    keywords: vec![gi],
                    numeric: None,
                }),
                path: JoinPath::empty(),
            })
            .collect(),
    }
}

proptest! {
    /// Pearson correlation is bounded, symmetric, and exactly 1 against
    /// itself for non-constant series.
    #[test]
    fn pearson_properties(x in proptest::collection::vec(-1e3..1e3f64, 2..40),
                          y in proptest::collection::vec(-1e3..1e3f64, 2..40)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let c = pearson(x, y);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c), "corr {c}");
        prop_assert!((c - pearson(y, x)).abs() < 1e-9);
        let self_corr = pearson(x, x);
        let constant = x.iter().all(|v| (v - x[0]).abs() < 1e-12);
        if constant {
            prop_assert_eq!(self_corr, 0.0);
        } else {
            prop_assert!((self_corr - 1.0).abs() < 1e-6);
        }
    }

    /// Pearson is invariant under positive affine transforms of either
    /// series.
    #[test]
    fn pearson_affine_invariance(
        x in proptest::collection::vec(-1e3..1e3f64, 3..30),
        a in 0.1..10.0f64,
        b in -100.0..100.0f64,
    ) {
        let y: Vec<f64> = x.iter().map(|v| v * 2.0 + 1.0).collect();
        let scaled: Vec<f64> = y.iter().map(|v| a * v + b).collect();
        let c1 = pearson(&x, &y);
        let c2 = pearson(&x, &scaled);
        prop_assert!((c1 - c2).abs() < 1e-6);
    }

    /// Star-net scores are non-negative, bounded by the best hit score
    /// under every method, and scale monotonically with hit scores.
    #[test]
    fn rank_scores_sane(groups in proptest::collection::vec(
        proptest::collection::vec(0.01..1.0f64, 1..10), 1..5)) {
        let net = net_from(groups.clone());
        for m in RankMethod::ALL {
            let s = score_star_net(&net, m);
            prop_assert!(s >= 0.0);
            prop_assert!(s <= 1.0 + 1e-9 || m == RankMethod::NoGroupNumberNorm,
                "method {:?} score {s}", m);
        }
        // Doubling every hit score (capped) never lowers any method.
        let boosted: Vec<Vec<f64>> = groups
            .iter()
            .map(|g| g.iter().map(|s| (s * 2.0).min(1.0)).collect())
            .collect();
        let net2 = net_from(boosted);
        for m in RankMethod::ALL {
            prop_assert!(score_star_net(&net2, m) >= score_star_net(&net, m) - 1e-12);
        }
    }

    /// A net's score does not depend on the order of its constraints, to
    /// the bit, under every method: keyword order must not change it.
    #[test]
    fn permuting_constraints_keeps_every_score_bit_identical(
        groups in proptest::collection::vec(
            proptest::collection::vec(1e-3..1.0f64, 1..6), 2..12),
        seed in any::<u64>(),
    ) {
        let mut permuted = groups.clone();
        let mut rng = TestRng::for_case("constraint order", seed);
        for i in (1..permuted.len()).rev() {
            permuted.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let (net, other) = (net_from(groups), net_from(permuted));
        for m in RankMethod::ALL {
            prop_assert_eq!(
                score_star_net(&net, m).to_bits(),
                score_star_net(&other, m).to_bits(),
                "method {:?}", m
            );
        }
    }

    /// merge_series preserves totals for any valid split scheme.
    #[test]
    fn merge_preserves_mass(series in proptest::collection::vec(-100.0..100.0f64, 1..60),
                            raw_splits in proptest::collection::vec(1usize..60, 0..6)) {
        let mut splits: Vec<usize> = raw_splits.into_iter().filter(|&s| s < series.len()).collect();
        splits.sort_unstable();
        splits.dedup();
        let merged = merge_series(&series, &splits);
        prop_assert_eq!(merged.len(), splits.len() + 1);
        let a: f64 = series.iter().sum();
        let b: f64 = merged.iter().sum();
        prop_assert!((a - b).abs() < 1e-6);
    }

    /// Algorithm 2 output: exactly K−1 split points (when m > K), sorted,
    /// strictly inside (0, m), and an error equal, to the bit, to
    /// re-evaluating the returned split.
    #[test]
    fn exact_merge_output_valid(
        pairs in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 8..50),
        k in 1usize..6,
    ) {
        let (x, y): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let (splits, error) = optimal_splits(&x, &y, k);
        prop_assert_eq!(splits.len(), k - 1);
        for w in splits.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        if let (Some(&first), Some(&last)) = (splits.first(), splits.last()) {
            prop_assert!(first >= 1);
            prop_assert!(last < x.len());
        }
        prop_assert!(skew_feasible(&splits, x.len()));
        prop_assert_eq!(error.to_bits(), split_error(&x, &y, &splits).to_bits());
    }

    /// The pruned search returns what scoring every split returns.
    #[test]
    fn exact_merge_matches_the_brute_force_oracle(
        pairs in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..15),
        k in 1usize..6,
        coarse in any::<bool>(),
    ) {
        check_against_oracle(pairs, k, coarse);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    #[ignore = "fuzz smoke: run with --release -- --ignored"]
    fn exact_merge_matches_the_brute_force_oracle_2k(
        pairs in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..15),
        k in 1usize..6,
        coarse in any::<bool>(),
    ) {
        check_against_oracle(pairs, k, coarse);
    }
}

/// Skew limit `L` of Algorithm 2, as the engine applies it.
const SKEW_LIMIT: usize = 4;

/// No range of the split longer than `L×` the shortest, and none empty.
fn skew_feasible(splits: &[usize], m: usize) -> bool {
    let bounds: Vec<usize> = std::iter::once(0)
        .chain(splits.iter().copied())
        .chain(std::iter::once(m))
        .collect();
    let lens: Vec<usize> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
    *min > 0 && *max <= SKEW_LIMIT * min
}

/// |corr(merged) − corr(basic)| of one split.
fn split_error(x: &[f64], y: &[f64], splits: &[usize]) -> f64 {
    (pearson(&merge_series(x, splits), &merge_series(y, splits)) - pearson(x, y)).abs()
}

/// The unpruned oracle: every (k−1)-subset of `1..m` in lexicographic
/// order, the skew-infeasible ones dropped, the smallest error kept with
/// strict `<` after starting from the equal-width split.
fn brute_force(x: &[f64], y: &[f64], k: usize) -> (Vec<usize>, f64) {
    let m = x.len();
    if m <= k {
        return ((1..m).collect(), 0.0);
    }
    let mut best: Vec<usize> = (1..k).map(|i| i * m / k).collect();
    let mut best_err = split_error(x, y, &best);
    let mut splits: Vec<usize> = (1..k).collect();
    loop {
        if skew_feasible(&splits, m) {
            let err = split_error(x, y, &splits);
            if err < best_err {
                best_err = err;
                best = splits.clone();
            }
        }
        // The next subset: bump the rightmost point that has room.
        let Some(i) = (0..splits.len())
            .rev()
            .find(|&i| splits[i] < m - (splits.len() - i))
        else {
            return (best, best_err);
        };
        splits[i] += 1;
        for j in i + 1..splits.len() {
            splits[j] = splits[j - 1] + 1;
        }
    }
}

/// `pairs` as two series — with `coarse`, rounded to four levels so that
/// ties between splits are common — merged by the engine and the oracle.
fn check_against_oracle(pairs: Vec<(f64, f64)>, k: usize, coarse: bool) {
    let level = |v: f64| if coarse { (v / 25.0).floor() } else { v };
    let (x, y): (Vec<f64>, Vec<f64>) = pairs.into_iter().map(|(a, b)| (level(a), level(b))).unzip();
    let (splits, error) = optimal_splits(&x, &y, k);
    let (want, want_error) = brute_force(&x, &y, k);
    assert_eq!(splits, want, "x={x:?} y={y:?} k={k}");
    assert_eq!(
        error.to_bits(),
        want_error.to_bits(),
        "x={x:?} y={y:?} k={k}"
    );
}
