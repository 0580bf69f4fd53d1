//! Property-based tests for the executor: RowSet vs a model set,
//! semi-join vs brute-force join, aggregation under every fold vs a
//! key-walking oracle, bucketizers. (An `#[ignore]`d 2,000-case copy of
//! the fold oracle runs with `cargo test --release -p kdap-query --
//! --ignored`.)

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use kdap_query::{
    multi_group_by_exec, paths_between, AggFunc, Bucketizer, ExecConfig, FacetGroups, FacetSpec,
    Fold, GroupStats, JoinIndex, JoinedColumn, MeasureVector, RowSet, Selection, DENSE_GROUP_LIMIT,
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
        let wh = build_chain(&dim_outer, &fact_dim, &outer_labels, fact_dim.len());
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
        picks in proptest::collection::vec(0..MENU, 1..=9),
        modes in proptest::collection::vec(0u8..4, 1..=3),
        threads in 1usize..=2,
        dense in any::<bool>(),
    ) {
        let dense_limit = if dense { DENSE_GROUP_LIMIT } else { 0 };
        check_fold_oracle(&dim_outer, &fact_dim, &outer_labels, &picks, &modes, threads, dense_limit);
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
        picks in proptest::collection::vec(0..MENU, 1..=9),
        modes in proptest::collection::vec(0u8..4, 1..=3),
        threads in 1usize..=2,
        dense in any::<bool>(),
    ) {
        let dense_limit = if dense { DENSE_GROUP_LIMIT } else { 0 };
        check_fold_oracle(&dim_outer, &fact_dim, &outer_labels, &picks, &modes, threads, dense_limit);
    }
}

/// The OUTER key a fact's DIM key reaches: `None` when the fact's key is
/// NULL (out of range) or the DIM row's is (≥ the five OUTER rows).
fn outer_key(dim_outer: &[i64], dkey: i64) -> Option<i64> {
    let okey = *dim_outer.get(usize::try_from(dkey).ok()?)?;
    (okey < 5).then_some(okey)
}

/// The measure of fact row `f` in [`build_chain`]: NULL every sixth row,
/// otherwise a value that rounds, so a sum depends on its order.
fn measure_of(f: usize) -> Option<f64> {
    (f % 6 != 5).then_some(((f * 7919) % 1009) as f64 / 7.0 - 40.0)
}

/// Rows of one scan chunk (`AGG_CHUNK_WORDS` × 64): partials of the
/// chunks merge in chunk order.
const CHUNK_ROWS: usize = 8192;

/// The specs a scan in [`check_fold_oracle`] picks from: four that read
/// through the first edge FACT → DIM, two through FACT → SIDE, and the
/// total.
const MENU: usize = 7;

/// The rows of `n` facts a chunk `mode` selects in its chunk: none, all,
/// those whose measure is not NULL, or every fourth (NULLs included).
fn chunk_rows(modes: &[u8], n: usize) -> Vec<usize> {
    (0..n)
        .filter(|&f| match modes[f / CHUNK_ROWS] {
            0 => false,
            1 => true,
            2 => measure_of(f).is_some(),
            _ => f % 4 == 1,
        })
        .collect()
}

/// Scans the specs `picks` names from the menu (in that order, repeats
/// allowed) over the rows the chunk `modes` select, under every fold at
/// `threads`, and holds every group of every spec to a walk of the keys
/// that folds each chunk's rows in ascending order and merges the chunk
/// partials in chunk order: value, count and rows bits. The groups of
/// OUTER's label also partition the total over the rows that join.
fn check_fold_oracle(
    dim_outer: &[i64],
    fact_dim: &[i64],
    outer_labels: &[u8],
    picks: &[usize],
    modes: &[u8],
    threads: usize,
    dense_limit: usize,
) {
    // One to three chunks, the last holding `fact_dim.len()` facts.
    let n = (modes.len() - 1) * CHUNK_ROWS + fact_dim.len();
    let wh = build_chain(dim_outer, fact_dim, outer_labels, n);
    let idx = JoinIndex::build(&wh);
    let fact = wh.schema().fact_table();
    let path_to = |table: &str| {
        let target = wh.table_id(table).unwrap();
        paths_between(wh.schema(), fact, target, 4).remove(0)
    };
    let (to_dim, to_outer, to_side) = (path_to("DIM"), path_to("OUTER"), path_to("SIDE"));
    assert_eq!(to_dim.edges()[0], to_outer.edges()[0], "one first edge");
    let col = |table: &str, name: &str| wh.col_ref(table, name).unwrap();
    let (label, tag, score) = (
        col("OUTER", "Label"),
        col("DIM", "Tag"),
        col("OUTER", "Score"),
    );
    let (kind, weight) = (col("SIDE", "Kind"), col("SIDE", "Weight"));
    let joined = |attr, path| -> Arc<JoinedColumn> {
        JoinedColumn::new(&wh, attr, &idx.row_mapper(path)).into()
    };
    let score_buckets = Bucketizer::EqualWidth {
        min: 0.0,
        max: 3.0,
        n: 3,
    };
    let weight_buckets = Bucketizer::EqualWidth {
        min: 0.0,
        max: 4.5,
        n: 4,
    };
    let menu: [FacetSpec; MENU] = [
        FacetSpec::Categorical {
            attr: label,
            column: joined(label, &to_outer),
        },
        FacetSpec::Categorical {
            attr: tag,
            column: joined(tag, &to_dim),
        },
        FacetSpec::Buckets {
            attr: score,
            column: joined(score, &to_outer),
            buckets: score_buckets.clone(),
        },
        FacetSpec::NumericDomain {
            attr: score,
            column: joined(score, &to_outer),
        },
        FacetSpec::Categorical {
            attr: kind,
            column: joined(kind, &to_side),
        },
        FacetSpec::Buckets {
            attr: weight,
            column: joined(weight, &to_side),
            buckets: weight_buckets.clone(),
        },
        FacetSpec::Total,
    ];
    let code = |attr, text: String| wh.column(attr).dict().unwrap().code_of(&text).unwrap();
    let label_of: Vec<u32> = outer_labels
        .iter()
        .map(|l| code(label, format!("L{l}")))
        .collect();
    let tag_of: Vec<u32> = (0..dim_outer.len().min(4))
        .map(|t| code(tag, format!("T{t}")))
        .collect();
    let kind_of: Vec<u32> = (0..2).map(|k| code(kind, format!("K{k}"))).collect();
    let float = |attr, row: i64| wh.column(attr).get_float(row as usize);
    // The group a fact reaches under menu item `m`, by walking its keys;
    // `Err` carries a domain spec's value.
    let dim_row = |f: usize| -> Option<i64> {
        let dkey = fact_dim[f % fact_dim.len()];
        (dkey < dim_outer.len() as i64).then_some(dkey)
    };
    let side_row = |f: usize| -> Option<i64> { (f % 5 < 4).then_some((f % 5) as i64) };
    let group_of = |m: usize, f: usize| -> Option<u32> {
        let outer = || outer_key(dim_outer, fact_dim[f % fact_dim.len()]);
        match m {
            0 => Some(label_of[outer()? as usize]),
            1 => Some(tag_of[dim_row(f)? as usize % 4]),
            2 => score_buckets
                .bucket_of(float(score, outer()?)?)
                .map(|b| b as u32),
            4 => Some(kind_of[side_row(f)? as usize % 2]),
            5 => weight_buckets
                .bucket_of(float(weight, side_row(f)?)?)
                .map(|b| b as u32),
            _ => Some(0),
        }
    };
    let rows = RowSet::from_rows(n, chunk_rows(modes, n));
    let measure = wh.schema().measure_by_name("M").unwrap().clone();
    let mv = MeasureVector::build(&wh, &measure);
    let specs: Vec<FacetSpec> = picks.iter().map(|&m| menu[m].clone()).collect();
    let exec = ExecConfig::with_threads(threads);
    for fold in [Fold::Sum, Fold::Min, Fold::Max] {
        let identity = match fold {
            Fold::Sum => 0.0,
            Fold::Min => f64::INFINITY,
            Fold::Max => f64::NEG_INFINITY,
        };
        let op = |a: f64, b: f64| match fold {
            Fold::Sum => a + b,
            Fold::Min => a.min(b),
            Fold::Max => a.max(b),
        };
        let got = multi_group_by_exec(&wh, &specs, &rows, &mv, fold, &exec, dense_limit).unwrap();
        for (&m, groups) in picks.iter().zip(&got) {
            let context = format!("menu {m} of {picks:?}, {fold:?}, chunks {modes:?}");
            if m == 3 {
                let values: Vec<f64> = rows
                    .iter()
                    .filter_map(|f| {
                        float(score, outer_key(dim_outer, fact_dim[f % fact_dim.len()])?)
                    })
                    .collect();
                let FacetGroups::Domain { min, max, any } = groups else {
                    panic!("a domain spec yields a domain");
                };
                let least = values.iter().copied().fold(f64::INFINITY, f64::min);
                let most = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                prop_assert_eq!(
                    (*any, *min, *max),
                    (!values.is_empty(), least, most),
                    "{}",
                    context
                );
                continue;
            }
            // The oracle: each chunk's rows in order into a partial, the
            // partials merged in chunk order.
            let mut want: BTreeMap<u32, GroupStats> = BTreeMap::new();
            let rows: Vec<usize> = rows.iter().collect();
            for chunk in rows.chunk_by(|a, b| a / CHUNK_ROWS == b / CHUNK_ROWS) {
                let mut partial: BTreeMap<u32, GroupStats> = BTreeMap::new();
                for &f in chunk {
                    let Some(g) = group_of(m, f) else {
                        continue;
                    };
                    let g = partial.entry(g).or_insert(GroupStats {
                        value: identity,
                        count: 0,
                        rows: 0,
                    });
                    g.rows += 1;
                    if let Some(x) = measure_of(f) {
                        g.value = op(g.value, x);
                        g.count += 1;
                    }
                }
                for (g, p) in partial {
                    let w = want.entry(g).or_insert(GroupStats {
                        value: identity,
                        count: 0,
                        rows: 0,
                    });
                    w.value = op(w.value, p.value);
                    w.count += p.count;
                    w.rows += p.rows;
                }
            }
            let reached: BTreeMap<u32, GroupStats> = match groups {
                FacetGroups::Dense { stats } | FacetGroups::Buckets { stats } => stats
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.rows > 0)
                    .map(|(code, g)| (code as u32, *g))
                    .collect(),
                FacetGroups::Sparse { stats } => stats.iter().map(|(c, g)| (*c, *g)).collect(),
                FacetGroups::Total { stats } => [(0, *stats)].into(),
                FacetGroups::Domain { .. } => unreachable!("domains are checked above"),
            };
            if m == 6 {
                // A total is one group even over no row.
                want.entry(0).or_insert(GroupStats {
                    value: identity,
                    count: 0,
                    rows: 0,
                });
            }
            if matches!(m, 0 | 1 | 4) {
                prop_assert_eq!(groups.is_dense(), dense_limit > 0, "{}", context);
            }
            let bits = |m: &BTreeMap<u32, GroupStats>| -> Vec<(u32, u64, u64, u64)> {
                m.iter()
                    .map(|(c, g)| (*c, g.value.to_bits(), g.count, g.rows))
                    .collect()
            };
            prop_assert_eq!(bits(&reached), bits(&want), "{}", context);
        }
        check_label_partition(&wh, &menu[0], &rows, &mv, fold, &exec, dense_limit, |f| {
            outer_key(dim_outer, fact_dim[f % fact_dim.len()]).is_some()
        });
    }
}

/// OUTER's label groups over `rows` partition the total over the rows
/// that join (`joins`), and the finished maps read `fold`: their sum is
/// the total under SUM, their least or greatest value the total's under
/// MIN or MAX.
#[allow(clippy::too_many_arguments)]
fn check_label_partition(
    wh: &Warehouse,
    label: &FacetSpec,
    rows: &RowSet,
    mv: &MeasureVector,
    fold: Fold,
    exec: &ExecConfig,
    dense_limit: usize,
    joins: impl Fn(usize) -> bool,
) {
    let scan = |spec: FacetSpec, rows: &RowSet| {
        multi_group_by_exec(wh, &[spec], rows, mv, fold, exec, dense_limit)
            .unwrap()
            .remove(0)
    };
    let groups = scan(label.clone(), rows);
    let joined = RowSet::from_rows(rows.universe(), rows.iter().filter(|&f| joins(f)));
    let FacetGroups::Total { stats: total } = scan(FacetSpec::Total, &joined) else {
        panic!("a total spec yields a total");
    };
    let stats: Vec<GroupStats> = match &groups {
        FacetGroups::Dense { stats } => stats.clone(),
        FacetGroups::Sparse { stats } => stats.values().copied().collect(),
        _ => panic!("a categorical spec yields categorical groups"),
    };
    let rows_in: u64 = stats.iter().map(|g| g.rows).sum();
    let count: u64 = stats.iter().map(|g| g.count).sum();
    prop_assert_eq!((rows_in, count), (total.rows, total.count));
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
                (group_total - direct).abs() < 1e-6 * direct.abs().max(1.0),
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

/// FACT(key, dkey, skey, m) → DIM(dkey, okey, tag) → OUTER(okey, label,
/// score), and FACT → SIDE(skey, kind, weight): `n` facts, fact `f` with
/// DIM key `fact_dim[f % fact_dim.len()]` and SIDE key `f % 5`. Fact
/// rows with out-of-range keys are kept as NULLs (dangling keys never
/// enter the column, so FK validation passes): every fifth SIDE key, and
/// DIM keys past `dim_outer`. So are DIM rows with an OUTER key ≥ 5: a
/// NULL on the path's tail hop. DIM row `d` is tagged `T{d % 4}`; OUTER
/// row `o` scores `0.75 o`, NULL for `o = 3`; SIDE row `s` is kind
/// `K{s % 2}` and weighs `1.5 s`, NULL for `s = 2`. The measure is
/// [`measure_of`].
fn build_chain(dim_outer: &[i64], fact_dim: &[i64], outer_labels: &[u8], n: usize) -> Warehouse {
    let n_dim = dim_outer.len() as i64;
    let mut b = WarehouseBuilder::new();
    b.table(
        "FACT",
        &[
            ("Id", ValueType::Int, false),
            ("DKey", ValueType::Int, false),
            ("SKey", ValueType::Int, false),
            ("M", ValueType::Float, false),
        ],
    )
    .unwrap();
    b.table(
        "DIM",
        &[
            ("DKey", ValueType::Int, false),
            ("OKey", ValueType::Int, false),
            ("Tag", ValueType::Str, true),
        ],
    )
    .unwrap();
    b.table(
        "OUTER",
        &[
            ("OKey", ValueType::Int, false),
            ("Label", ValueType::Str, true),
            ("Score", ValueType::Float, false),
        ],
    )
    .unwrap();
    b.table(
        "SIDE",
        &[
            ("SKey", ValueType::Int, false),
            ("Kind", ValueType::Str, true),
            ("Weight", ValueType::Float, false),
        ],
    )
    .unwrap();
    for (okey, label) in outer_labels.iter().enumerate() {
        let score = if okey == 3 {
            Value::Null
        } else {
            Value::Float(0.75 * okey as f64)
        };
        b.row(
            "OUTER",
            vec![(okey as i64).into(), format!("L{label}").into(), score],
        )
        .unwrap();
    }
    for (dkey, okey) in dim_outer.iter().enumerate() {
        let oval: Value = if *okey < 5 {
            (*okey).into()
        } else {
            Value::Null
        };
        let tag = format!("T{}", dkey % 4).into();
        b.row("DIM", vec![(dkey as i64).into(), oval, tag]).unwrap();
    }
    for skey in 0..4i64 {
        let weight = if skey == 2 {
            Value::Null
        } else {
            Value::Float(1.5 * skey as f64)
        };
        let kind = format!("K{}", skey % 2).into();
        b.row("SIDE", vec![skey.into(), kind, weight]).unwrap();
    }
    let facts = (0..n).map(|f| {
        let dkey = fact_dim[f % fact_dim.len()];
        let dval: Value = if dkey < n_dim {
            dkey.into()
        } else {
            Value::Null
        };
        let sval: Value = if f % 5 < 4 {
            ((f % 5) as i64).into()
        } else {
            Value::Null
        };
        let m = measure_of(f).map_or(Value::Null, Value::Float);
        vec![(f as i64).into(), dval, sval, m]
    });
    b.rows("FACT", facts.collect()).unwrap();
    b.edge("FACT.DKey", "DIM.DKey", None, Some("D")).unwrap();
    b.edge("DIM.OKey", "OUTER.OKey", None, None).unwrap();
    b.edge("FACT.SKey", "SIDE.SKey", None, Some("S")).unwrap();
    b.dimension("D", &["DIM", "OUTER"], vec![], vec![]).unwrap();
    b.dimension("S", &["SIDE"], vec![], vec![]).unwrap();
    b.fact("FACT").unwrap();
    b.measure_column("M", "FACT.M").unwrap();
    b.finish().unwrap()
}
