//! The join index against key semantics, on random snowflakes.
//!
//! `JoinIndex` resolves every FK edge to row ids once and answers both
//! directions from flat arrays: `row_mapper` (child row → target row) and
//! `rows_reaching` (target rows → the origin rows joining to them). Here
//! both are held to [`KeyWalker`], which follows key *values* and shares
//! no code with the index — for every origin table, every enumerated
//! path and every row — and to each other: up and down must be one
//! relation.
//!
//! Every generated schema has the shapes the engine meets in the demo
//! warehouses: arms of one to four hops, two role-playing edges into one
//! parent, one outer table reached along several arms (the paper's three
//! paths to LOC), NULL keys at every level, childless parents, keys that
//! are not row numbers, and empty tables. A table's keys step by 1, 3 or
//! 2⁴⁰, so parent keys are resolved both through an array and through a
//! hash map (the two forms of `KeyRows`).
//!
//! The property runs 96 cases by default; an `#[ignore]`d copy runs 2,000
//! (`cargo test --release --test join_index -- --ignored`).

use proptest::prelude::*;

use kdap_suite::query::{paths_between, JoinIndex, JoinPath, RowSet, MAX_PATH_LEN};
use kdap_suite::warehouse::{TableId, Value, ValueType, Warehouse, WarehouseBuilder};

mod support;
use support::KeyWalker;

/// A warehouse under construction, with the keys handed out so far.
struct Snowflake {
    b: WarehouseBuilder,
    rng: TestRng,
    keys: Vec<(String, Vec<i64>)>,
    edges: Vec<(String, String, Option<&'static str>)>,
}

impl Snowflake {
    /// Adds table `name` with `nrows` rows: a `Key` column of distinct,
    /// shuffled keys a stride of 1, 3 or 2⁴⁰ apart, then one FK column per
    /// `(column, parent table, role)` whose values are NULL one time in
    /// four and otherwise a random key of the parent.
    fn table(&mut self, name: &str, nrows: usize, fks: &[(&str, &str, Option<&'static str>)]) {
        let mut cols = vec![("Key", ValueType::Int, false)];
        cols.extend(fks.iter().map(|(col, _, _)| (*col, ValueType::Int, false)));
        self.b.table(name, &cols).unwrap();
        let base = 10 + self.rng.below(90) as i64;
        let stride = [1, 3, 1 << 40][self.rng.below(3) as usize];
        let mut own: Vec<i64> = (0..nrows as i64).map(|i| base + stride * i).collect();
        for i in (1..own.len()).rev() {
            own.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        for &key in &own {
            let mut row: Vec<Value> = vec![key.into()];
            for (_, parent, _) in fks {
                let parent_keys = &self.keys.iter().find(|(t, _)| t == parent).unwrap().1;
                row.push(if parent_keys.is_empty() || self.rng.below(4) == 0 {
                    Value::Null
                } else {
                    parent_keys[self.rng.below(parent_keys.len() as u64) as usize].into()
                });
            }
            self.b.row(name, row).unwrap();
        }
        for (col, parent, role) in fks {
            self.edges
                .push((format!("{name}.{col}"), format!("{parent}.Key"), *role));
        }
        self.keys.push((name.to_string(), own));
    }

    /// 0–6 rows: small enough that empty tables and childless parents
    /// are common, large enough for fan-out.
    fn some_rows(&mut self) -> usize {
        self.rng.below(7) as usize
    }
}

/// ```text
/// FACT → A1 → … → Ak → LOC      k in 1..=3: an arm of two to four hops
/// FACT → B1 → LOC               a second arm into the shared outer table
/// FACT →(Buyer) ACCT → LOC      two role-playing edges into one parent,
/// FACT →(Seller) ACCT           and a third and fourth way to LOC
/// FACT → E                      a one-hop arm
/// NOTE → A1                     a child table with no rows
/// ```
fn snowflake(seed: u64) -> Warehouse {
    let mut s = Snowflake {
        b: WarehouseBuilder::new(),
        rng: TestRng::for_case("snowflake", seed),
        keys: Vec::new(),
        edges: Vec::new(),
    };
    let n = s.some_rows();
    s.table("LOC", n, &[]);
    let k = 1 + s.rng.below(3);
    let mut up = "LOC".to_string();
    for i in (1..=k).rev() {
        let n = s.some_rows();
        s.table(&format!("A{i}"), n, &[("Up", &up, None)]);
        up = format!("A{i}");
    }
    for (name, parent) in [("B1", Some("LOC")), ("ACCT", Some("LOC")), ("E", None)] {
        let n = s.some_rows();
        let fk = parent.map(|p| ("Up", p, None));
        s.table(name, n, fk.as_slice());
    }
    s.table("NOTE", 0, &[("About", "A1", None)]);
    let n = 2 * s.some_rows();
    s.table(
        "FACT",
        n,
        &[
            ("A", "A1", None),
            ("B", "B1", None),
            ("Buyer", "ACCT", Some("Buyer")),
            ("Seller", "ACCT", Some("Seller")),
            ("E", "E", None),
        ],
    );
    for (child, parent, role) in &s.edges {
        s.b.edge(child, parent, *role, None).unwrap();
    }
    s.b.fact("FACT").unwrap();
    s.b.finish().unwrap()
}

/// Holds the index to [`KeyWalker`] on the snowflake of `seed`: for
/// every origin table, every enumerated path and every row, up and down.
fn check_both_directions(seed: u64) {
    let wh = snowflake(seed);
    let idx = JoinIndex::build(&wh);
    let keys = KeyWalker::new(&wh);
    let mut rng = TestRng::for_case("target sets", seed);
    let tables = || (0..wh.tables().len() as u32).map(TableId);
    for (origin, target) in tables().flat_map(|o| tables().map(move |t| (o, t))) {
        let (n_origin, n_target) = (wh.table(origin).nrows(), wh.table(target).nrows());
        for path in paths_between(wh.schema(), origin, target, MAX_PATH_LEN) {
            let context = format!("seed {seed}: {}", path.display(&wh, origin));
            // Up: every origin row lands where its keys lead.
            let mapper = idx.row_mapper(&path);
            let want: Vec<Option<usize>> = (0..n_origin).map(|r| keys.resolve(&path, r)).collect();
            let got: Vec<Option<usize>> = (0..n_origin)
                .map(|r| mapper.get(r).map(|t| t as usize))
                .collect();
            assert_eq!(&got, &want, "{context}");
            // Down: a random target set is reached by exactly the
            // rows whose keys lead into it.
            let picked: Vec<usize> = (0..n_target).filter(|_| rng.below(2) == 0).collect();
            let reaching = idx
                .rows_reaching(&path, &RowSet::from_rows(n_target, picked.iter().copied()))
                .unwrap();
            let expect: Vec<usize> = (0..n_origin)
                .filter(|&r| want[r].is_some_and(|t| picked.contains(&t)))
                .collect();
            assert_eq!(reaching.iter().collect::<Vec<_>>(), expect, "{context}");
            // Up and down are one relation, target row by target row.
            for t in 0..n_target {
                let down = idx
                    .rows_reaching(&path, &RowSet::from_rows(n_target, [t]))
                    .unwrap();
                for r in 0..n_origin {
                    assert_eq!(
                        down.contains(r),
                        mapper.get(r) == Some(t as u32),
                        "{context}: origin row {r} / target row {t}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn index_agrees_with_key_walking_in_both_directions(seed in any::<u64>()) {
        check_both_directions(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    #[ignore = "fuzz smoke: run with --release -- --ignored"]
    fn index_agrees_with_key_walking_in_both_directions_2k(seed in any::<u64>()) {
        check_both_directions(seed);
    }
}

/// The generator delivers the shapes the header promises, so the
/// property above is not vacuous on any of them.
#[test]
fn generated_snowflakes_cover_the_claimed_shapes() {
    let (mut hops, mut loc_paths) = (std::collections::BTreeSet::new(), 0);
    let (mut null_fk, mut childless, mut empty_parent) = (false, false, false);
    let (mut dense, mut hashed) = (false, false);
    for seed in 0..96 {
        let wh = snowflake(seed);
        let keys = KeyWalker::new(&wh);
        let fact = wh.schema().fact_table();
        let loc = wh.table_id("LOC").unwrap();
        let to_loc = paths_between(wh.schema(), fact, loc, MAX_PATH_LEN);
        loc_paths = loc_paths.max(to_loc.len());
        hops.extend(to_loc.iter().map(|p| p.len()));
        assert_eq!(wh.table(wh.table_id("NOTE").unwrap()).nrows(), 0);
        for edge in wh.schema().edges() {
            let path = JoinPath::new(wh.schema(), edge.child.table, vec![edge.id]).unwrap();
            let (children, parents) = (
                wh.table(edge.child.table).nrows(),
                wh.table(edge.parent.table).nrows(),
            );
            let reached: Vec<_> = (0..children).map(|r| keys.resolve(&path, r)).collect();
            null_fk |= reached.contains(&None);
            childless |= (0..parents).any(|p| !reached.contains(&Some(p)));
            empty_parent |= parents == 0 && children > 0;
            // `KeyRows` indexes an array when the parent's n keys span at
            // most 2·n + 64 values, and hashes them otherwise.
            let parent_keys = wh.column(edge.parent);
            let parent_keys: Vec<i128> = (0..parents)
                .map(|r| i128::from(parent_keys.get_int(r).unwrap()))
                .collect();
            let span = match (parent_keys.iter().min(), parent_keys.iter().max()) {
                (Some(min), Some(max)) => max - min + 1,
                _ => 0,
            };
            let resolved = parents > 1 && reached.iter().any(Option::is_some);
            dense |= resolved && span <= 2 * parents as i128 + 64;
            hashed |= resolved && span > 2 * parents as i128 + 64;
        }
    }
    // Buyer, Seller, the B arm and the A arm; A is two to four hops.
    assert_eq!(loc_paths, 4);
    assert_eq!(hops.into_iter().collect::<Vec<_>>(), vec![2, 3, 4]);
    assert!(null_fk && childless && empty_parent);
    assert!(dense && hashed, "dense {dense}, hashed {hashed}");
}
