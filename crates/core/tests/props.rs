//! Property-based tests for the KDAP core algorithms: correlation,
//! ranking-formula, and Algorithm 2 invariants.

use proptest::prelude::*;

use kdap_core::facet::{merge_intervals, merge_series, AnnealConfig};
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

    /// Algorithm 2 output: split points sorted, strictly inside (0, m),
    /// exactly K−1 of them (when m ≥ K), and the error is achievable
    /// (consistent with re-evaluating the returned scheme).
    #[test]
    fn anneal_output_valid(
        x in proptest::collection::vec(0.0..100.0f64, 8..50),
        k in 2usize..7,
        seed in 0u64..1000,
    ) {
        let y: Vec<f64> = x.iter().rev().cloned().collect();
        let cfg = AnnealConfig {
            target_intervals: k,
            iterations: 120,
            seed,
            ..AnnealConfig::default()
        };
        let r = merge_intervals(&x, &y, &cfg);
        prop_assert_eq!(r.splits.len(), k - 1);
        for w in r.splits.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        if let (Some(&first), Some(&last)) = (r.splits.first(), r.splits.last()) {
            prop_assert!(first >= 1);
            prop_assert!(last < x.len());
        }
        let merged_corr = pearson(&merge_series(&x, &r.splits), &merge_series(&y, &r.splits));
        prop_assert!(((merged_corr - r.base_corr).abs() - r.error).abs() < 1e-9);
        // History is monotone non-increasing and ends at the final error.
        for w in r.history.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-15);
        }
        prop_assert!((r.history.last().copied().unwrap() - r.error).abs() < 1e-15);
    }
}

/// `query`'s ranked interpretations: `run` with `differentiate`.
fn differentiate(kdap: &kdap_core::Kdap, query: &str) -> Vec<kdap_core::RankedStarNet> {
    let request = kdap_core::QueryRequest::new(kdap_core::Verb::Differentiate, query);
    kdap.run(&request).expect("a vocabulary query").ranked
}

fn session_with_threads(threads: usize) -> kdap_core::Kdap {
    kdap_core::Kdap::builder(kdap_core::testutil::ebiz_fixture().wh)
        .threads(threads)
        .build()
        .expect("fixture declares Revenue")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The parallel engine (threads ∈ {2, 4, 8}) produces an `Exploration`
    /// identical to the serial one for any vocabulary query: same panels,
    /// same attribute order, same entries, same aggregates.
    #[test]
    fn parallel_explore_equals_serial(
        words in proptest::collection::vec(
            proptest::sample::select(vec![
                "columbus", "seattle", "plasma", "lcd", "projector",
                "alice", "ohio", "slimline",
            ]),
            1..4,
        )
    ) {
        let serial = session_with_threads(1);
        let query = words.join(" ");
        let ranked = differentiate(&serial, &query);
        for threads in [2usize, 4, 8] {
            let par = session_with_threads(threads);
            for r in ranked.iter().take(3) {
                let a = serial.explore(&r.net).unwrap();
                let b = par.explore(&r.net).unwrap();
                prop_assert_eq!(&a, &b, "threads={} query={:?}", threads, query);
            }
        }
    }
}

/// Eight threads hammering one `SubspaceCache` stay consistent: every
/// hit is the exploration a direct explore of that net computes, the
/// capacity bound holds, and the hit/miss accounting adds up.
#[test]
fn cache_consistent_under_hammering() {
    use kdap_core::Explored;
    let fx = kdap_core::testutil::ebiz_fixture();
    let kdap = kdap_core::Kdap::builder(fx.wh).build().expect("measure");
    let cache = kdap_core::SubspaceCache::new(3);
    let nets: Vec<_> = ["columbus", "seattle", "plasma", "lcd"]
        .iter()
        .flat_map(|q| differentiate(&kdap, q))
        .map(|r| r.net)
        .collect();
    assert!(nets.len() >= 4, "fixture yields several interpretations");
    let facet = kdap.facet_config();
    const THREADS: usize = 8;
    const ITERS: usize = 50;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (kdap, cache, nets) = (&kdap, &cache, &nets);
            s.spawn(move || {
                for i in 0..ITERS {
                    let net = &nets[(t * 31 + i * 7) % nets.len()];
                    let direct = kdap.explore(net).expect("fixture nets explore");
                    let key = net.explore_key();
                    match cache.get(&key, facet) {
                        Some(hit) => assert_eq!(hit.exploration, direct),
                        None => cache.insert(
                            key,
                            Arc::new(Explored {
                                facet: facet.clone(),
                                exploration: direct,
                            }),
                        ),
                    }
                }
            });
        }
    });
    assert!(cache.len() <= cache.capacity(), "capacity bound holds");
    let counters = cache.counters();
    assert_eq!(counters.hits + counters.misses, (THREADS * ITERS) as u64);
}
