//! The single-pass multi-aggregate facet scan is an *execution*
//! strategy, never a *semantics* change: for any workload subspace, the
//! fused scan must reproduce the row-at-a-time oracle of `tests/support`
//! bit-for-bit — group maps, domains, bucket series, bucketizers and
//! totals — across thread counts and across the dense-array /
//! hash-fallback accumulator choice; and a whole exploration must equal
//! the one-scan-per-facet reference pipeline field-for-field, whatever
//! the session's whole-dataspace memo already holds.

mod support;

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use kdap_suite::core::facet::per_facet::explore_per_facet;
use kdap_suite::core::{
    materialize, rollup_constraint, rollup_spaces, Constraint, Kdap, Rollup, StarNet,
};
use kdap_suite::query::{
    multi_group_by_exec, paths_between, AggFunc, Bucketizer, ExecConfig, FacetSpec, Fold,
    MeasureVector, RowSet, DENSE_GROUP_LIMIT, MAX_PATH_LEN,
};
use kdap_suite::warehouse::ColRef;

use support::{
    aggregate_total, candidate_specs, chunk_shapes, group_by_buckets, group_by_categorical,
    hostile_floats, project_categorical, project_numeric, spec_layouts, workload, Accumulator,
    KeyWalker,
};

/// The functions whose finished values a scan under `fold` answers.
fn functions_of(fold: Fold) -> &'static [AggFunc] {
    match fold {
        Fold::Sum => &[AggFunc::Sum, AggFunc::Count, AggFunc::Avg],
        Fold::Min => &[AggFunc::Min, AggFunc::Count],
        Fold::Max => &[AggFunc::Max, AggFunc::Count],
    }
}

/// What the single-attribute oracle expects of one candidate spec.
enum Expected {
    Total(Accumulator),
    Categorical(BTreeMap<u32, Accumulator>, Vec<u32>),
    Buckets(Vec<Accumulator>),
    Domain(Option<Bucketizer>),
}

/// Scans every candidate spec of `kdap` over `rows` in one pass per fold,
/// then again in every [`spec_layouts`] scan, and holds each result to
/// the single-attribute oracle, under every function the fold answers.
fn check_kernel(kdap: &Kdap, rows: &RowSet, threads: usize, dense_limit: usize) {
    let wh = kdap.warehouse();
    let keys = KeyWalker::new(wh);
    let measure = kdap.measure();
    let mv = MeasureVector::build(wh, measure);
    let exec = ExecConfig::with_threads(threads);
    let tagged = candidate_specs(kdap, &keys, rows);
    let expected: Vec<Expected> = tagged
        .iter()
        .map(|(path, spec)| match spec {
            FacetSpec::Total => Expected::Total(aggregate_total(wh, measure, rows)),
            FacetSpec::Categorical { attr, .. } => Expected::Categorical(
                group_by_categorical(&keys, path, *attr, rows, measure)
                    .into_iter()
                    .collect(),
                project_categorical(&keys, path, *attr, rows),
            ),
            FacetSpec::Buckets { attr, buckets, .. } => {
                Expected::Buckets(group_by_buckets(&keys, path, *attr, rows, measure, buckets))
            }
            FacetSpec::NumericDomain { attr, .. } => Expected::Domain(Bucketizer::equal_width(
                project_numeric(&keys, path, *attr, rows),
                8,
            )),
        })
        .collect();
    let every: Vec<usize> = (0..tagged.len()).collect();
    for layout in std::iter::once(every).chain(spec_layouts(&tagged)) {
        let specs: Vec<FacetSpec> = layout.iter().map(|&i| tagged[i].1.clone()).collect();
        for fold in [Fold::Sum, Fold::Min, Fold::Max] {
            let groups =
                multi_group_by_exec(wh, &specs, rows, &mv, fold, &exec, dense_limit).unwrap();
            assert_eq!(groups.len(), specs.len());
            for (&i, fg) in layout.iter().zip(&groups) {
                let context = format!("spec {i} of {layout:?} {fold:?} threads={threads}");
                match &expected[i] {
                    Expected::Total(expect) => {
                        for &func in functions_of(fold) {
                            assert_eq!(
                                fg.total(func).to_bits(),
                                expect.finish(func).to_bits(),
                                "total {func:?} {context}"
                            );
                        }
                    }
                    Expected::Categorical(expect, domain) => {
                        if dense_limit > 0 {
                            assert!(fg.is_dense());
                        }
                        for &func in functions_of(fold) {
                            let bits = |m: HashMap<u32, f64>| -> BTreeMap<u32, u64> {
                                m.into_iter().map(|(c, v)| (c, v.to_bits())).collect()
                            };
                            assert_eq!(
                                bits(fg.to_map(func)),
                                bits(
                                    expect
                                        .iter()
                                        .filter(|(_, a)| a.count > 0)
                                        .map(|(c, a)| (*c, a.finish(func)))
                                        .collect()
                                ),
                                "{func:?} {context}"
                            );
                        }
                        assert_eq!(&fg.domain(), domain, "{context}");
                    }
                    Expected::Buckets(expect) => {
                        for &func in functions_of(fold) {
                            let bits = |v: Vec<f64>| -> Vec<u64> {
                                v.iter().map(|x| x.to_bits()).collect()
                            };
                            assert_eq!(
                                bits(fg.to_series(func)),
                                bits(expect.iter().map(|a| a.finish(func)).collect()),
                                "{:?} {func:?} {context}",
                                tagged[i].1
                            );
                        }
                    }
                    Expected::Domain(bucketizer) => {
                        assert_eq!(&fg.bucketizer(8), bucketizer, "{context}");
                    }
                }
            }
        }
    }
}

/// A fresh session over the workload's warehouse: empty memo, no cache.
fn fresh(threads: usize, observability: bool) -> Kdap {
    Kdap::builder(workload().serial.warehouse().clone())
        .threads(threads)
        .observability(observability)
        .build()
        .expect("measure defined")
}

/// Two nets whose one roll-up is the whole dataspace. The first holds a
/// single top-level constraint, `CategoryName = Bikes`, dropped on roll-up
/// (an empty plan). The second selects one state per country, so it rolls
/// up to every country: a non-empty plan that still selects every fact.
fn whole_dataspace_nets(kdap: &Kdap) -> [StarNet; 2] {
    let (wh, jidx) = (kdap.warehouse(), kdap.join_index());
    let fact = wh.schema().fact_table();
    let net_on = |attr: ColRef, codes: &[u32]| {
        let path = paths_between(wh.schema(), fact, attr.table, MAX_PATH_LEN).remove(0);
        StarNet {
            constraints: vec![Constraint::exact(wh, attr, path, codes).expect("codes exist")],
        }
    };
    let category = wh.col_ref("DimProductCategory", "CategoryName").unwrap();
    let bikes = wh
        .column(category)
        .dict()
        .unwrap()
        .code_of("Bikes")
        .unwrap();
    let top_level = net_on(category, &[bikes]);
    assert!(matches!(
        rollup_constraint(wh, jidx, &top_level.constraints[0]),
        Rollup::Drop
    ));

    let state = wh.col_ref("DimStateProvince", "StateProvinceName").unwrap();
    let country = wh.col_ref("DimStateProvince", "CountryRegionName").unwrap();
    let mut state_of_country = BTreeMap::new();
    for row in 0..wh.table(state.table).nrows() {
        let (Some(c), Some(s)) = (
            wh.column(country).get_code(row),
            wh.column(state).get_code(row),
        ) else {
            continue;
        };
        state_of_country.entry(c).or_insert(s);
    }
    let codes: Vec<u32> = state_of_country.into_values().collect();
    let every_country = net_on(state, &codes);
    assert!(matches!(
        rollup_constraint(wh, jidx, &every_country.constraints[0]),
        Rollup::Parent(_)
    ));
    assert!(materialize(wh, jidx, &every_country).len() < wh.fact_rows());
    let spaces = rollup_spaces(wh, jidx, &every_country);
    assert_eq!(spaces.len(), 1);
    assert_eq!(
        spaces[0].len(),
        wh.fact_rows(),
        "the parent selects every fact"
    );
    [top_level, every_country]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fused scan vs. the single-attribute oracle: identical group maps,
    /// domains, bucket series, bucketizers and totals at every thread
    /// count, on both the dense-array path and the hash fallback (forced
    /// by a zero dense limit). The inputs are the workload's subspaces and
    /// row subsets of a star whose float attribute holds NULL, NaN, ±∞,
    /// −0.0 and values outside a bucketizer's domain, strided and in the
    /// chunk shapes of `chunk_shapes`; bucket specs run under
    /// equal-width, per-distinct-value and middle-half bucketizers. Each
    /// scan runs with every candidate spec and in every `spec_layouts`
    /// scan (one to nine specs on one first edge, edges interleaved).
    #[test]
    fn multi_aggregate_kernel_matches_per_facet_kernels(
        query_idx in 0usize..64,
        threads in proptest::sample::select(vec![1usize, 2, 4]),
        dense in any::<bool>(),
    ) {
        let fx = workload();
        let kdap = &fx.serial;
        let (wh, jidx) = (kdap.warehouse(), kdap.join_index());
        let dense_limit = if dense { DENSE_GROUP_LIMIT } else { 0 };
        for net in fx.nets(query_idx).iter().take(2) {
            let sub = materialize(wh, jidx, net);
            check_kernel(kdap, &sub, threads, dense_limit);
        }
        let hostile = hostile_floats();
        let n = hostile.warehouse().fact_rows();
        let stride = query_idx % 5 + 1;
        let rows = RowSet::from_rows(n, (0..n).filter(|r| r % stride == query_idx % stride));
        check_kernel(hostile, &rows, threads, dense_limit);
        // One of the chunk shapes: one to three chunks, an empty one
        // between non-empty ones, chunks with and without a NULL measure.
        let mv = MeasureVector::build(hostile.warehouse(), hostile.measure());
        let shapes = chunk_shapes(n, |r| mv.get(r).is_none());
        check_kernel(hostile, &shapes[query_idx % shapes.len()], threads, dense_limit);
    }

    /// Whole-pipeline check: an exploration through the session equals
    /// the serial one-scan-per-facet reference field-for-field — same
    /// panels, same attribute scores, same instance lists, same
    /// aggregates — at every thread count. The warm-memo arm explores each
    /// net again on a session whose whole-dataspace memo other nets
    /// filled, and on a cold one, and requires both to print the same
    /// bits as the reference, with observability on or off. The nets
    /// include a top-level constraint (its roll-up is ALL) and one whose
    /// parent roll-up selects every fact.
    #[test]
    fn fused_exploration_matches_per_facet_oracle(
        query_idx in 0usize..64,
        threads in proptest::sample::select(vec![1usize, 4]),
        observability in any::<bool>(),
    ) {
        let fx = workload();
        let kdap = fx.session(threads);
        let (wh, jidx) = (kdap.warehouse(), kdap.join_index());
        let mv = MeasureVector::build(wh, kdap.measure());
        let special = whole_dataspace_nets(kdap);
        let warm = fresh(threads, observability);
        for net in special.iter().chain(fx.nets(query_idx + 1).iter().take(2)) {
            warm.explore(net).expect("explore succeeds");
        }
        prop_assert!(warm.dataspace_groups_len() > 0);
        for net in fx.nets(query_idx).iter().take(2).chain(&special) {
            let fused = kdap.explore(net).expect("explore succeeds");
            let sub = materialize(wh, jidx, net);
            let reference = explore_per_facet(wh, jidx, net, &sub, &mv, kdap.facet_config());
            prop_assert_eq!(&fused, &reference);
            // `{:?}` prints every f64 exactly, the sign of zero included.
            let reference = format!("{reference:?}");
            let cold = fresh(threads, observability).explore(net).expect("explore succeeds");
            prop_assert_eq!(&format!("{cold:?}"), &reference);
            let from_warm = warm.explore(net).expect("explore succeeds");
            prop_assert_eq!(&format!("{from_warm:?}"), &reference);
        }
    }
}
