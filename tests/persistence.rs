//! Save/load roundtrips: any warehouse — including the generated demo
//! ones — persists as a spec + CSV directory and reloads identically,
//! down to each dictionary code.

use std::path::PathBuf;

use kdap_suite::core::Kdap;
use kdap_suite::datagen::{
    build_aw_online, build_aw_reseller, build_ebiz, build_trends, EbizScale, Scale, TrendsScale,
};
use kdap_suite::warehouse::{
    export_spec, load_warehouse, save_warehouse, Value, ValueType, Warehouse, WarehouseBuilder,
    NULL_CODE,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kdap_persist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Saves `wh`, loads it back, and checks the structure, every cell, every
/// dictionary code and the storage size against the original.
fn roundtrip(tag: &str, wh: &Warehouse) -> Warehouse {
    let dir = temp_dir(tag);
    save_warehouse(wh, &dir).unwrap();
    let loaded = load_warehouse(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(loaded.tables().len(), wh.tables().len(), "{tag}");
    assert_eq!(loaded.fact_rows(), wh.fact_rows(), "{tag}");
    assert_eq!(
        loaded.schema().dimensions().len(),
        wh.schema().dimensions().len(),
        "{tag}"
    );
    assert_eq!(
        loaded.schema().edges().len(),
        wh.schema().edges().len(),
        "{tag}"
    );
    assert_eq!(
        loaded.schema().measures().len(),
        wh.schema().measures().len(),
        "{tag}"
    );
    for t in wh.tables() {
        let lt = loaded.table(loaded.table_id(t.name()).unwrap());
        assert_eq!(lt.nrows(), t.nrows(), "{tag}: table {}", t.name());
        for r in 0..t.nrows() {
            assert_eq!(lt.row(r), t.row(r), "{tag}: {} row {r}", t.name());
            for (c, col) in t.columns().iter().enumerate() {
                assert_eq!(
                    lt.column(c).get_code(r),
                    col.get_code(r),
                    "{tag}: {}.{} row {r}",
                    t.name(),
                    col.name()
                );
            }
        }
    }
    assert_eq!(loaded.approx_bytes(), wh.approx_bytes(), "{tag}");
    loaded
}

/// With `ebiz_roundtrips_through_disk`, every generator.
#[test]
fn every_generator_roundtrips_to_the_dictionary_code() {
    roundtrip("aw_online", &build_aw_online(Scale::small(), 7).unwrap());
    roundtrip(
        "aw_reseller",
        &build_aw_reseller(Scale::small(), 7).unwrap(),
    );
    roundtrip("trends", &build_trends(TrendsScale::small(), 7).unwrap());
}

/// Every non-NULL code of every string column is below the column's
/// cardinality — what lets the dense group-by index its array by code
/// without a bounds fallback — in the built warehouse and after a save →
/// load round trip.
#[test]
fn every_dictionary_code_is_below_its_column_cardinality() {
    let warehouses = [
        ("aw_online", build_aw_online(Scale::small(), 7).unwrap()),
        ("aw_reseller", build_aw_reseller(Scale::small(), 7).unwrap()),
        ("ebiz", build_ebiz(EbizScale::small(), 7).unwrap()),
        ("trends", build_trends(TrendsScale::small(), 7).unwrap()),
    ];
    let mut codes = Vec::new();
    for (tag, wh) in warehouses {
        let dir = temp_dir(&format!("codes_{tag}"));
        save_warehouse(&wh, &dir).unwrap();
        let loaded = load_warehouse(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let mut checked = 0;
        for (side, wh) in [("built", &wh), ("loaded", &loaded)] {
            for t in wh.tables() {
                for col in t.columns() {
                    if !col.unpack_codes_into(&mut codes) {
                        continue;
                    }
                    let card = col.cardinality().expect("a string column has codes");
                    for (row, &code) in codes.iter().enumerate() {
                        assert!(
                            code == NULL_CODE || (code as usize) < card,
                            "{tag} {side}: {}.{} row {row}: code {code}, cardinality {card}",
                            t.name(),
                            col.name()
                        );
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "{tag} has string columns");
    }
}

#[test]
fn awkward_strings_and_nulls_roundtrip() {
    let mut b = WarehouseBuilder::new();
    b.table(
        "T",
        &[
            ("I", ValueType::Int, false),
            ("F", ValueType::Float, false),
            ("S", ValueType::Str, true),
        ],
    )
    .unwrap();
    let strings = [
        Value::from(""),
        Value::from(" padded "),
        Value::from("\""),
        Value::from("a,b"),
        Value::from("line\nbreak"),
        Value::from("crlf\r\nline"),
        Value::Null,
        Value::from(""),
    ];
    for (i, s) in strings.into_iter().enumerate() {
        let int = if i == 2 {
            Value::Null
        } else {
            Value::Int(i as i64 - 3)
        };
        let float = if i == 5 {
            Value::Null
        } else {
            Value::Float(i as f64 / 4.0 - 1.0)
        };
        b.row("T", vec![int, float, s]).unwrap();
    }
    b.fact("T").unwrap();
    let wh = b.finish().unwrap();
    let loaded = roundtrip("awkward", &wh);
    let t = loaded.table(loaded.table_id("T").unwrap());
    assert_eq!(t.row(0)[2].as_str(), Some(""));
    assert_eq!(t.column(2).get_code(0), t.column(2).get_code(7));
    assert!(t.row(6)[2].is_null());
}

#[test]
fn ebiz_roundtrips_through_disk() {
    let wh = build_ebiz(EbizScale::small(), 7).unwrap();
    let loaded = roundtrip("ebiz", &wh);

    // Hierarchies and roles survived.
    let product = loaded.schema().dimension_by_name("Product").unwrap();
    assert_eq!(product.hierarchies.len(), 2);
    assert!(loaded
        .schema()
        .edges()
        .iter()
        .any(|e| e.role.as_deref() == Some("Buyer")));
}

#[test]
fn kdap_answers_identically_after_reload() {
    let wh = build_ebiz(EbizScale::small(), 7).unwrap();
    let dir = temp_dir("answers");
    save_warehouse(&wh, &dir).unwrap();
    let loaded = load_warehouse(&dir).unwrap();

    let a = Kdap::builder(wh).build().unwrap();
    let b = Kdap::builder(loaded).build().unwrap();
    for query in ["seattle", "plasma lcd", "\"columbus day\"", "premium"] {
        let ra = a.interpret(query);
        let rb = b.interpret(query);
        assert_eq!(ra.len(), rb.len(), "{query}");
        for (x, y) in ra.iter().zip(&rb) {
            assert!((x.score - y.score).abs() < 1e-12, "{query}");
            assert_eq!(
                x.net.display(a.warehouse()),
                y.net.display(b.warehouse()),
                "{query}"
            );
        }
        if let (Some(x), Some(y)) = (ra.first(), rb.first()) {
            let ea = a.explore(&x.net).expect("star net evaluates");
            let eb = b.explore(&y.net).expect("star net evaluates");
            assert_eq!(ea.subspace_size, eb.subspace_size, "{query}");
            assert_eq!(ea.total_aggregate, eb.total_aggregate, "{query}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exported_spec_is_valid_spec_syntax() {
    let wh = build_ebiz(EbizScale::small(), 7).unwrap();
    let spec = export_spec(&wh);
    assert!(spec.contains("fact TRANSITEM"));
    assert!(spec.contains("role=Buyer"));
    assert!(spec.contains("hierarchy=ProductLine:"));
    assert!(spec.contains("groupby="));
    assert!(spec.contains("measure SalesRevenue = TRANSITEM.UnitPrice * TRANSITEM.Qty"));
    // Loadable when paired with exported tables (covered by the roundtrip
    // tests); here just check it parses structurally with stub CSVs.
    let err = kdap_suite::warehouse::load_spec(&spec, |_| Err("no files".into()));
    assert!(err.is_err(), "missing CSVs must be reported, not panic");
}
