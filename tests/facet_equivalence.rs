//! The single-pass multi-aggregate facet scan is an *execution*
//! strategy, never a *semantics* change: for any workload subspace, the
//! fused scan must reproduce the row-at-a-time oracle of `tests/support`
//! bit-for-bit — group maps, domains, bucket series, bucketizers and
//! totals — across thread counts and across the dense-array /
//! hash-fallback accumulator choice; and a whole exploration must equal
//! the one-scan-per-facet reference pipeline field-for-field.

mod support;

use proptest::prelude::*;

use kdap_suite::core::facet::per_facet::explore_per_facet;
use kdap_suite::core::materialize;
use kdap_suite::query::{
    multi_group_by_exec, AggFunc, Bucketizer, ExecConfig, FacetSpec, MeasureVector,
    DENSE_GROUP_LIMIT,
};

use support::{
    aggregate_total, candidate_specs, group_by_buckets, group_by_categorical, project_categorical,
    project_numeric, workload, KeyWalker,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fused scan vs. the single-attribute oracle: identical group maps,
    /// domains, bucket series, bucketizers and totals at every thread
    /// count, on both the dense-array path and the hash fallback (forced
    /// by a zero dense limit).
    #[test]
    fn multi_aggregate_kernel_matches_per_facet_kernels(
        query_idx in 0usize..64,
        threads in proptest::sample::select(vec![1usize, 4]),
        dense in any::<bool>(),
    ) {
        let fx = workload();
        let kdap = &fx.serial;
        let (wh, jidx) = (kdap.warehouse(), kdap.join_index());
        let keys = KeyWalker::new(wh);
        let measure = kdap.measure();
        let mv = MeasureVector::build(wh, measure);
        let exec = ExecConfig::with_threads(threads);
        let dense_limit = if dense { DENSE_GROUP_LIMIT } else { 0 };
        for net in fx.nets(query_idx).iter().take(2) {
            let sub = materialize(wh, jidx, net);
            let tagged = candidate_specs(kdap, &keys, &sub.rows);
            let specs: Vec<FacetSpec> = tagged.iter().map(|(_, s)| s.clone()).collect();
            let groups = multi_group_by_exec(wh, &specs, &sub.rows, &mv, &exec, dense_limit).unwrap();
            prop_assert_eq!(groups.len(), specs.len());
            for ((path, spec), fg) in tagged.iter().zip(&groups) {
                match spec {
                    FacetSpec::Total => {
                        let expect = aggregate_total(wh, measure, &sub.rows).finish(AggFunc::Sum);
                        let got = fg.total(AggFunc::Sum);
                        prop_assert!(
                            got == expect || (got.is_nan() && expect.is_nan()),
                            "total {} vs {}", got, expect
                        );
                    }
                    FacetSpec::Categorical { attr, .. } => {
                        if dense_limit > 0 {
                            prop_assert!(fg.is_dense());
                        }
                        let expect =
                            group_by_categorical(&keys, path, *attr, &sub.rows, measure);
                        prop_assert_eq!(
                            fg.to_map(AggFunc::Sum),
                            expect.iter().map(|(c, a)| (*c, a.finish(AggFunc::Sum))).collect()
                        );
                        prop_assert_eq!(
                            fg.domain(),
                            project_categorical(&keys, path, *attr, &sub.rows)
                        );
                    }
                    FacetSpec::Buckets { attr, buckets, .. } => {
                        let expect =
                            group_by_buckets(&keys, path, *attr, &sub.rows, measure, buckets);
                        prop_assert_eq!(
                            fg.to_series(AggFunc::Sum),
                            expect.iter().map(|a| a.finish(AggFunc::Sum)).collect::<Vec<_>>()
                        );
                    }
                    FacetSpec::NumericDomain { attr, .. } => {
                        let values = project_numeric(&keys, path, *attr, &sub.rows);
                        prop_assert_eq!(fg.bucketizer(8), Bucketizer::equal_width(values, 8));
                    }
                }
            }
        }
    }

    /// Whole-pipeline check: an exploration through the session equals
    /// the serial one-scan-per-facet reference field-for-field — same
    /// panels, same attribute scores, same instance lists, same
    /// aggregates — at every thread count.
    #[test]
    fn fused_exploration_matches_per_facet_oracle(
        query_idx in 0usize..64,
        threads in proptest::sample::select(vec![1usize, 4]),
    ) {
        let fx = workload();
        let kdap = fx.session(threads);
        let (wh, jidx) = (kdap.warehouse(), kdap.join_index());
        let mv = MeasureVector::build(wh, kdap.measure());
        for net in fx.nets(query_idx).iter().take(2) {
            let fused = kdap.explore(net).expect("explore succeeds");
            let sub = materialize(wh, jidx, net);
            let reference = explore_per_facet(wh, jidx, net, &sub, &mv, kdap.facet_config());
            prop_assert_eq!(fused, reference);
        }
    }
}
