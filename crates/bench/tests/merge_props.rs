//! The engine's exact interval merge against the paper's annealing: on
//! the same series, `K` and skew bound, no annealing run ends below the
//! exact optimum.

use proptest::prelude::*;

use kdap_bench::anneal::{anneal, AnnealConfig};
use kdap_core::facet::optimal_splits;

proptest! {
    #[test]
    fn exact_error_is_never_above_the_annealing(
        pairs in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 2..50),
        k in 1usize..6,
        iterations in 0usize..500,
        seed in 0u64..1000,
    ) {
        let (x, y): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let cfg = AnnealConfig { target_intervals: k, iterations, seed };
        let annealed = anneal(&x, &y, &cfg);
        let (_, exact) = optimal_splits(&x, &y, k);
        prop_assert!(exact <= annealed.error, "exact {exact} > annealed {}", annealed.error);
    }
}
