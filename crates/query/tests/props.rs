//! Property-based tests for the executor: RowSet vs a model set,
//! semi-join vs brute-force join, aggregation consistency, bucketizers.

use std::collections::HashSet;

use proptest::prelude::*;

use kdap_query::{
    multi_group_by_exec, paths_between, AggFunc, Bucketizer, ExecConfig, FacetSpec, JoinIndex,
    MeasureVector, RowSet, Selection, DENSE_GROUP_LIMIT,
};
use kdap_warehouse::{Value, ValueType, Warehouse, WarehouseBuilder};

proptest! {
    /// RowSet agrees with a HashSet model under from_rows/intersect.
    #[test]
    fn rowset_model(
        n in 1usize..200,
        a in proptest::collection::vec(0usize..200, 0..80),
        b in proptest::collection::vec(0usize..200, 0..80),
    ) {
        let a: Vec<usize> = a.into_iter().filter(|&x| x < n).collect();
        let b: Vec<usize> = b.into_iter().filter(|&x| x < n).collect();
        let sa = RowSet::from_rows(n, a.iter().copied());
        let sb = RowSet::from_rows(n, b.iter().copied());
        let ma: HashSet<usize> = a.iter().copied().collect();
        let mb: HashSet<usize> = b.iter().copied().collect();

        prop_assert_eq!(sa.len(), ma.len());
        let mut inter = sa.clone();
        inter.intersect_with(&sb).unwrap();
        let minter: HashSet<usize> = ma.intersection(&mb).copied().collect();
        prop_assert_eq!(inter.iter().collect::<HashSet<_>>(), minter);
        for row in 0..n {
            prop_assert_eq!(sa.contains(row), ma.contains(&row));
        }
    }

    /// Semi-join along FACT → DIM → OUTER equals a brute-force join.
    #[test]
    fn semijoin_matches_bruteforce(
        dim_outer in proptest::collection::vec(0i64..5, 1..8),      // DIM row → OUTER key
        fact_dim in proptest::collection::vec(0i64..8, 0..60),      // FACT row → DIM key
        outer_labels in proptest::collection::vec(0u8..3, 5),       // OUTER key → label id
        wanted in 0u8..3,
    ) {
        let n_dim = dim_outer.len() as i64;
        let wh = build_chain(&dim_outer, &fact_dim, &outer_labels);
        let idx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let outer = wh.table_id("OUTER").unwrap();
        let path = paths_between(wh.schema(), fact, outer, 4).remove(0);
        let attr = wh.col_ref("OUTER", "Label").unwrap();
        let dict = wh.column(attr).dict().unwrap();
        let codes: Vec<u32> = dict.code_of(&format!("L{wanted}")).into_iter().collect();

        let sel = Selection::by_codes(path, attr, codes);
        let got: HashSet<usize> = sel.try_eval(&wh, &idx, fact).unwrap().iter().collect();

        // Brute force: follow keys by hand.
        let mut expect = HashSet::new();
        for (f, dkey) in fact_dim.iter().enumerate() {
            if *dkey < n_dim {
                let okey = dim_outer[*dkey as usize];
                if outer_labels[okey as usize] == wanted {
                    expect.insert(f);
                }
            }
        }
        prop_assert_eq!(got, expect);
    }

    /// Group-by aggregates partition the total: Σ groups = total over
    /// rows that join successfully with a non-null attribute.
    #[test]
    fn groupby_partitions_total(
        dim_outer in proptest::collection::vec(0i64..5, 1..8),
        fact_dim in proptest::collection::vec(0i64..8, 1..60),
        outer_labels in proptest::collection::vec(0u8..3, 5),
    ) {
        let n_dim = dim_outer.len() as i64;
        let wh = build_chain(&dim_outer, &fact_dim, &outer_labels);
        let idx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let outer = wh.table_id("OUTER").unwrap();
        let path = paths_between(wh.schema(), fact, outer, 4).remove(0);
        let attr = wh.col_ref("OUTER", "Label").unwrap();
        let measure = wh.schema().measure_by_name("M").unwrap().clone();
        let all = RowSet::full(wh.fact_rows());
        let mv = MeasureVector::build(&wh, &measure);
        let scan = |spec: FacetSpec, rows: &RowSet| {
            multi_group_by_exec(&wh, &[spec], rows, &mv, &ExecConfig::serial(), DENSE_GROUP_LIMIT)
                .unwrap()
                .remove(0)
        };
        let mapper = idx.row_mapper(&path);
        let groups = scan(FacetSpec::Categorical { attr, mapper }, &all).to_map(AggFunc::Sum);
        let group_total: f64 = groups.values().sum();
        // Joinable facts only (dangling fact keys fall out of the join).
        let joined = RowSet::from_rows(
            wh.fact_rows(),
            fact_dim
                .iter()
                .enumerate()
                .filter(|(_, d)| **d < n_dim)
                .map(|(i, _)| i),
        );
        let direct = scan(FacetSpec::Total, &joined).total(AggFunc::Sum);
        prop_assert!((group_total - direct).abs() < 1e-6, "{group_total} vs {direct}");
    }

    /// Every in-range value lands in exactly one equal-width bucket, and
    /// bucket bounds tile the domain.
    #[test]
    fn equal_width_bucketizer_total(values in proptest::collection::vec(-1e6..1e6f64, 1..50), n in 1usize..64) {
        let b = Bucketizer::equal_width(values.iter().copied(), n).unwrap();
        for v in &values {
            let i = b.bucket_of(*v);
            prop_assert!(i.is_some());
            prop_assert!(i.unwrap() < b.n_buckets());
        }
        let mut prev_hi: Option<f64> = None;
        for i in 0..b.n_buckets() {
            let (lo, hi) = b.bounds(i);
            prop_assert!(hi >= lo);
            if let Some(p) = prev_hi {
                prop_assert!((lo - p).abs() < 1e-6);
            }
            prev_hi = Some(hi);
        }
    }

    /// Per-distinct bucketizer maps each value to its own bucket, in
    /// sorted order.
    #[test]
    fn per_distinct_bucketizer_exact(values in proptest::collection::vec(-1000i32..1000, 1..40)) {
        let vals: Vec<f64> = values.iter().map(|v| *v as f64).collect();
        let b = Bucketizer::per_distinct(vals.iter().copied()).unwrap();
        let mut sorted = vals.clone();
        sorted.sort_by(|a, c| a.partial_cmp(c).unwrap());
        sorted.dedup();
        prop_assert_eq!(b.n_buckets(), sorted.len());
        for v in &vals {
            let i = b.bucket_of(*v).unwrap();
            prop_assert_eq!(sorted[i], *v);
        }
    }
}

/// FACT(key, dkey, m) → DIM(dkey, okey) → OUTER(okey, label).
/// Fact rows with out-of-range dim keys are kept as NULLs (dangling keys
/// never enter the column, so FK validation passes).
fn build_chain(dim_outer: &[i64], fact_dim: &[i64], outer_labels: &[u8]) -> Warehouse {
    let n_dim = dim_outer.len() as i64;
    let mut b = WarehouseBuilder::new();
    b.table(
        "FACT",
        &[
            ("Id", ValueType::Int, false),
            ("DKey", ValueType::Int, false),
            ("M", ValueType::Float, false),
        ],
    )
    .unwrap();
    b.table(
        "DIM",
        &[
            ("DKey", ValueType::Int, false),
            ("OKey", ValueType::Int, false),
        ],
    )
    .unwrap();
    b.table(
        "OUTER",
        &[
            ("OKey", ValueType::Int, false),
            ("Label", ValueType::Str, true),
        ],
    )
    .unwrap();
    for (okey, label) in outer_labels.iter().enumerate() {
        b.row(
            "OUTER",
            vec![(okey as i64).into(), format!("L{label}").into()],
        )
        .unwrap();
    }
    for (dkey, okey) in dim_outer.iter().enumerate() {
        b.row("DIM", vec![(dkey as i64).into(), (*okey).into()])
            .unwrap();
    }
    for (f, dkey) in fact_dim.iter().enumerate() {
        let dval: Value = if *dkey < n_dim {
            (*dkey).into()
        } else {
            Value::Null
        };
        b.row(
            "FACT",
            vec![(f as i64).into(), dval, ((f % 7) as f64 + 1.0).into()],
        )
        .unwrap();
    }
    b.edge("FACT.DKey", "DIM.DKey", None, Some("D")).unwrap();
    b.edge("DIM.OKey", "OUTER.OKey", None, None).unwrap();
    b.dimension("D", &["DIM", "OUTER"], vec![], vec![]).unwrap();
    b.fact("FACT").unwrap();
    b.measure_column("M", "FACT.M").unwrap();
    b.finish().unwrap()
}
