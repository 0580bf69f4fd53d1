//! Property-based tests for the executor: RowSet vs a model set,
//! semi-join vs brute-force join, aggregation under every fold vs a
//! key-walking oracle, bucketizers. (An `#[ignore]`d 2,000-case copy of
//! the fold oracle runs with `cargo test --release -p kdap-query --
//! --ignored`.)

use std::collections::{BTreeMap, HashSet};

use proptest::prelude::*;

use kdap_query::{
    multi_group_by_exec, paths_between, AggFunc, Bucketizer, ExecConfig, FacetGroups, FacetSpec,
    Fold, GroupStats, JoinIndex, MeasureVector, RowSet, Selection, DENSE_GROUP_LIMIT,
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
        dim_outer in proptest::collection::vec(0i64..7, 1..8),      // DIM row → OUTER key (≥ 5: NULL)
        fact_dim in proptest::collection::vec(0i64..8, 0..60),      // FACT row → DIM key
        outer_labels in proptest::collection::vec(0u8..3, 5),       // OUTER key → label id
        wanted in 0u8..3,
    ) {
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
            if let Some(okey) = outer_key(&dim_outer, *dkey) {
                if outer_labels[okey as usize] == wanted {
                    expect.insert(f);
                }
            }
        }
        prop_assert_eq!(got, expect);
    }

    /// Under every fold, the group-by of FACT → DIM → OUTER equals the
    /// key-walking oracle's groups bit for bit (value, count, rows), the
    /// groups partition the total over the rows that join, and the
    /// finished maps read the fold.
    #[test]
    fn groupby_matches_the_oracle_under_every_fold(
        dim_outer in proptest::collection::vec(0i64..7, 1..8),
        fact_dim in proptest::collection::vec(0i64..9, 1..60),
        outer_labels in proptest::collection::vec(0u8..3, 5),
    ) {
        check_fold_oracle(&dim_outer, &fact_dim, &outer_labels);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    #[ignore = "fuzz smoke: run with --release -- --ignored"]
    fn groupby_matches_the_oracle_under_every_fold_2k(
        dim_outer in proptest::collection::vec(0i64..7, 1..8),
        fact_dim in proptest::collection::vec(0i64..9, 1..60),
        outer_labels in proptest::collection::vec(0u8..3, 5),
    ) {
        check_fold_oracle(&dim_outer, &fact_dim, &outer_labels);
    }
}

/// The OUTER key a fact's DIM key reaches: `None` when the fact's key is
/// NULL (out of range) or the DIM row's is (≥ the five OUTER rows).
fn outer_key(dim_outer: &[i64], dkey: i64) -> Option<i64> {
    let okey = *dim_outer.get(usize::try_from(dkey).ok()?)?;
    (okey < 5).then_some(okey)
}

/// The measure of fact row `f` in [`build_chain`]: NULL every sixth row.
fn measure_of(f: usize) -> Option<f64> {
    (f % 6 != 5).then_some((f % 7) as f64 + 1.0)
}

/// Scans the label group-by and the total under every fold, and holds
/// each to a row-at-a-time walk of the keys.
fn check_fold_oracle(dim_outer: &[i64], fact_dim: &[i64], outer_labels: &[u8]) {
    let wh = build_chain(dim_outer, fact_dim, outer_labels);
    let idx = JoinIndex::build(&wh);
    let fact = wh.schema().fact_table();
    let outer = wh.table_id("OUTER").unwrap();
    let path = paths_between(wh.schema(), fact, outer, 4).remove(0);
    let attr = wh.col_ref("OUTER", "Label").unwrap();
    let dict = wh.column(attr).dict().unwrap();
    let measure = wh.schema().measure_by_name("M").unwrap().clone();
    let all = RowSet::full(wh.fact_rows());
    let mv = MeasureVector::build(&wh, &measure);
    let mapper = idx.row_mapper(&path);
    // Joinable facts only (NULL keys on either hop fall out of the join).
    let joined: Vec<usize> = (0..fact_dim.len())
        .filter(|&f| outer_key(dim_outer, fact_dim[f]).is_some())
        .collect();
    let joined = RowSet::from_rows(wh.fact_rows(), joined);
    for fold in [Fold::Sum, Fold::Min, Fold::Max] {
        let scan = |spec: FacetSpec, rows: &RowSet| {
            let exec = ExecConfig::serial();
            multi_group_by_exec(&wh, &[spec], rows, &mv, fold, &exec, DENSE_GROUP_LIMIT)
                .unwrap()
                .remove(0)
        };
        let spec = FacetSpec::Categorical {
            attr,
            mapper: mapper.clone(),
        };
        let groups = scan(spec, &all);
        // The oracle: every fact, in row order, through its keys.
        let mut want: BTreeMap<u32, GroupStats> = BTreeMap::new();
        for (f, dkey) in fact_dim.iter().enumerate() {
            let Some(okey) = outer_key(dim_outer, *dkey) else {
                continue;
            };
            let label = format!("L{}", outer_labels[okey as usize]);
            let g = want
                .entry(dict.code_of(&label).unwrap())
                .or_insert(GroupStats {
                    value: match fold {
                        Fold::Sum => 0.0,
                        Fold::Min => f64::INFINITY,
                        Fold::Max => f64::NEG_INFINITY,
                    },
                    count: 0,
                    rows: 0,
                });
            g.rows += 1;
            if let Some(m) = measure_of(f) {
                g.value = match fold {
                    Fold::Sum => g.value + m,
                    Fold::Min => g.value.min(m),
                    Fold::Max => g.value.max(m),
                };
                g.count += 1;
            }
        }
        let FacetGroups::Dense { stats } = &groups else {
            panic!("three labels fit the dense path");
        };
        let got: BTreeMap<u32, GroupStats> = stats
            .iter()
            .enumerate()
            .filter(|(_, g)| g.rows > 0)
            .map(|(code, g)| (code as u32, *g))
            .collect();
        let bits = |m: &BTreeMap<u32, GroupStats>| -> Vec<(u32, u64, u64, u64)> {
            m.iter()
                .map(|(c, g)| (*c, g.value.to_bits(), g.count, g.rows))
                .collect()
        };
        prop_assert_eq!(bits(&got), bits(&want), "{:?}", fold);

        let total = scan(FacetSpec::Total, &joined);
        let FacetGroups::Total { stats: total } = total else {
            panic!("a total spec yields a total");
        };
        let rows: u64 = got.values().map(|g| g.rows).sum();
        let count: u64 = got.values().map(|g| g.count).sum();
        prop_assert_eq!((rows, count), (total.rows, total.count));
        let func = match fold {
            Fold::Sum => AggFunc::Sum,
            Fold::Min => AggFunc::Min,
            Fold::Max => AggFunc::Max,
        };
        let map = groups.to_map(func);
        let direct = total.finish(func);
        match fold {
            // Σ groups = total over the rows that join.
            Fold::Sum => {
                let group_total: f64 = map.values().sum();
                prop_assert!(
                    (group_total - direct).abs() < 1e-6,
                    "{group_total} vs {direct}"
                );
            }
            Fold::Min => {
                let least = map.values().copied().fold(f64::INFINITY, f64::min);
                prop_assert!(least == direct || map.is_empty() && direct.is_nan());
            }
            Fold::Max => {
                let most = map.values().copied().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(most == direct || map.is_empty() && direct.is_nan());
            }
        }
    }
}

/// FACT(key, dkey, m) → DIM(dkey, okey) → OUTER(okey, label).
/// Fact rows with out-of-range dim keys are kept as NULLs (dangling keys
/// never enter the column, so FK validation passes), and so are DIM rows
/// with an OUTER key ≥ 5: a NULL on the path's tail hop. The measure is
/// NULL every sixth fact.
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
        let oval: Value = if *okey < 5 {
            (*okey).into()
        } else {
            Value::Null
        };
        b.row("DIM", vec![(dkey as i64).into(), oval]).unwrap();
    }
    for (f, dkey) in fact_dim.iter().enumerate() {
        let dval: Value = if *dkey < n_dim {
            (*dkey).into()
        } else {
            Value::Null
        };
        let m = measure_of(f).map_or(Value::Null, Value::Float);
        b.row("FACT", vec![(f as i64).into(), dval, m]).unwrap();
    }
    b.edge("FACT.DKey", "DIM.DKey", None, Some("D")).unwrap();
    b.edge("DIM.OKey", "OUTER.OKey", None, None).unwrap();
    b.dimension("D", &["DIM", "OUTER"], vec![], vec![]).unwrap();
    b.fact("FACT").unwrap();
    b.measure_column("M", "FACT.M").unwrap();
    b.finish().unwrap()
}
