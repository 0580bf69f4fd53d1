//! Test fixture: a miniature EBiz warehouse (paper Figure 2) exhibiting
//! both ambiguity kinds — the shared `LOC` table reachable via Store,
//! Buyer and Seller paths (join-path ambiguity) and "Columbus" as a city
//! and a holiday (attribute-instance ambiguity).

use kdap_query::JoinIndex;
use kdap_textindex::TextIndex;
use kdap_warehouse::{AttrKind, Value, ValueType, Warehouse, WarehouseBuilder};

pub struct Fixture {
    pub wh: Warehouse,
    pub index: TextIndex,
    pub jidx: JoinIndex,
}

pub fn ebiz_fixture() -> Fixture {
    let wh = build_warehouse();
    let index = TextIndex::build(&wh);
    let jidx = JoinIndex::build(&wh);
    Fixture { wh, index, jidx }
}

fn build_warehouse() -> Warehouse {
    let mut b = WarehouseBuilder::new();
    b.table(
        "ITEM",
        &[
            ("IKey", ValueType::Int, false),
            ("TKey", ValueType::Int, false),
            ("PKey", ValueType::Int, false),
            ("Qty", ValueType::Int, false),
            ("UnitPrice", ValueType::Float, false),
        ],
    )
    .unwrap();
    b.table(
        "TRANS",
        &[
            ("TKey", ValueType::Int, false),
            ("SKey", ValueType::Int, false),
            ("BuyerKey", ValueType::Int, false),
            ("SellerKey", ValueType::Int, false),
            ("DKey", ValueType::Int, false),
        ],
    )
    .unwrap();
    b.table(
        "STORE",
        &[
            ("SKey", ValueType::Int, false),
            ("StoreName", ValueType::Str, true),
            ("LKey", ValueType::Int, false),
        ],
    )
    .unwrap();
    b.table(
        "LOC",
        &[
            ("LKey", ValueType::Int, false),
            ("City", ValueType::Str, true),
            ("State", ValueType::Str, true),
        ],
    )
    .unwrap();
    b.table(
        "ACCT",
        &[
            ("AKey", ValueType::Int, false),
            ("CKey", ValueType::Int, false),
        ],
    )
    .unwrap();
    b.table(
        "CUST",
        &[
            ("CKey", ValueType::Int, false),
            ("Name", ValueType::Str, true),
            ("LKey", ValueType::Int, false),
            ("Income", ValueType::Float, false),
        ],
    )
    .unwrap();
    b.table(
        "PROD",
        &[
            ("PKey", ValueType::Int, false),
            ("Name", ValueType::Str, true),
            ("GKey", ValueType::Int, false),
            ("ListPrice", ValueType::Float, false),
        ],
    )
    .unwrap();
    b.table(
        "PGROUP",
        &[
            ("GKey", ValueType::Int, false),
            ("GroupName", ValueType::Str, true),
        ],
    )
    .unwrap();
    b.table(
        "DATE",
        &[
            ("DKey", ValueType::Int, false),
            ("Label", ValueType::Str, false),
            ("HKey", ValueType::Int, false),
        ],
    )
    .unwrap();
    b.table(
        "HOLIDAY",
        &[
            ("HKey", ValueType::Int, false),
            ("Event", ValueType::Str, true),
        ],
    )
    .unwrap();

    b.rows(
        "LOC",
        vec![
            vec![1i64.into(), "Columbus".into(), "Ohio".into()],
            vec![2i64.into(), "Seattle".into(), "Washington".into()],
            vec![3i64.into(), "Portland".into(), "Oregon".into()],
        ],
    )
    .unwrap();
    b.rows(
        "STORE",
        vec![
            vec![1i64.into(), "Downtown Store".into(), 1i64.into()],
            vec![2i64.into(), "Mall Store".into(), 2i64.into()],
        ],
    )
    .unwrap();
    b.rows(
        "CUST",
        vec![
            vec![
                1i64.into(),
                "Alice Johnson".into(),
                2i64.into(),
                50_000.0.into(),
            ],
            vec![
                2i64.into(),
                "Bob Smith".into(),
                3i64.into(),
                80_000.0.into(),
            ],
        ],
    )
    .unwrap();
    b.rows(
        "ACCT",
        vec![
            vec![1i64.into(), 1i64.into()],
            vec![2i64.into(), 2i64.into()],
        ],
    )
    .unwrap();
    b.rows(
        "PGROUP",
        vec![
            vec![1i64.into(), "Flat Panel(LCD)".into()],
            vec![2i64.into(), "LCD Projectors".into()],
            vec![3i64.into(), "Plasma Displays".into()],
        ],
    )
    .unwrap();
    b.rows(
        "PROD",
        vec![
            vec![
                1i64.into(),
                "Slimline TV 42".into(),
                1i64.into(),
                550.0.into(),
            ],
            vec![
                2i64.into(),
                "Projector X100".into(),
                2i64.into(),
                850.0.into(),
            ],
            vec![
                3i64.into(),
                "Plasma TV 50".into(),
                3i64.into(),
                700.0.into(),
            ],
        ],
    )
    .unwrap();
    b.rows(
        "HOLIDAY",
        vec![
            vec![1i64.into(), "Columbus Day".into()],
            vec![2i64.into(), "New Year".into()],
        ],
    )
    .unwrap();
    b.rows(
        "DATE",
        vec![
            vec![1i64.into(), "2006-10-09".into(), 1i64.into()],
            vec![2i64.into(), "2006-01-01".into(), 2i64.into()],
            vec![3i64.into(), "2006-05-05".into(), Value::Null],
        ],
    )
    .unwrap();
    b.rows(
        "TRANS",
        vec![
            // store Columbus, buyer Alice(Seattle), seller Bob(Portland),
            // Columbus Day
            vec![
                1i64.into(),
                1i64.into(),
                1i64.into(),
                2i64.into(),
                1i64.into(),
            ],
            // store Seattle, buyer Bob, seller Alice, New Year
            vec![
                2i64.into(),
                2i64.into(),
                2i64.into(),
                1i64.into(),
                2i64.into(),
            ],
            // store Columbus, buyer Alice, seller Alice, no holiday
            vec![
                3i64.into(),
                1i64.into(),
                1i64.into(),
                1i64.into(),
                3i64.into(),
            ],
        ],
    )
    .unwrap();
    b.rows(
        "ITEM",
        vec![
            vec![
                1i64.into(),
                1i64.into(),
                1i64.into(),
                2i64.into(),
                500.0.into(),
            ],
            vec![
                2i64.into(),
                1i64.into(),
                2i64.into(),
                1i64.into(),
                800.0.into(),
            ],
            vec![
                3i64.into(),
                2i64.into(),
                3i64.into(),
                1i64.into(),
                700.0.into(),
            ],
            vec![
                4i64.into(),
                2i64.into(),
                1i64.into(),
                3i64.into(),
                450.0.into(),
            ],
            vec![
                5i64.into(),
                3i64.into(),
                2i64.into(),
                1i64.into(),
                900.0.into(),
            ],
            vec![
                6i64.into(),
                3i64.into(),
                3i64.into(),
                2i64.into(),
                650.0.into(),
            ],
        ],
    )
    .unwrap();

    b.edge("ITEM.TKey", "TRANS.TKey", None, None).unwrap();
    b.edge("ITEM.PKey", "PROD.PKey", None, Some("Product"))
        .unwrap();
    b.edge("TRANS.SKey", "STORE.SKey", None, Some("Store"))
        .unwrap();
    b.edge(
        "TRANS.BuyerKey",
        "ACCT.AKey",
        Some("Buyer"),
        Some("Customer"),
    )
    .unwrap();
    b.edge(
        "TRANS.SellerKey",
        "ACCT.AKey",
        Some("Seller"),
        Some("Customer"),
    )
    .unwrap();
    b.edge("TRANS.DKey", "DATE.DKey", None, Some("Time"))
        .unwrap();
    b.edge("STORE.LKey", "LOC.LKey", None, None).unwrap();
    b.edge("ACCT.CKey", "CUST.CKey", None, None).unwrap();
    b.edge("CUST.LKey", "LOC.LKey", None, None).unwrap();
    b.edge("PROD.GKey", "PGROUP.GKey", None, None).unwrap();
    b.edge("DATE.HKey", "HOLIDAY.HKey", None, None).unwrap();

    b.dimension(
        "Product",
        &["PROD", "PGROUP"],
        vec![("ProductGroup", vec!["PGROUP.GroupName", "PROD.Name"])],
        vec![
            ("PGROUP.GroupName", AttrKind::Categorical),
            ("PROD.Name", AttrKind::Categorical),
            ("PROD.ListPrice", AttrKind::Numerical),
        ],
    )
    .unwrap();
    b.dimension(
        "Store",
        &["STORE", "LOC"],
        vec![("StoreGeo", vec!["LOC.State", "LOC.City"])],
        vec![
            ("LOC.City", AttrKind::Categorical),
            ("LOC.State", AttrKind::Categorical),
        ],
    )
    .unwrap();
    b.dimension(
        "Customer",
        &["ACCT", "CUST", "LOC"],
        vec![("CustGeo", vec!["LOC.State", "LOC.City"])],
        vec![
            ("CUST.Name", AttrKind::Categorical),
            ("CUST.Income", AttrKind::Numerical),
        ],
    )
    .unwrap();
    b.dimension(
        "Time",
        &["DATE", "HOLIDAY"],
        vec![],
        vec![("HOLIDAY.Event", AttrKind::Categorical)],
    )
    .unwrap();
    b.fact("ITEM").unwrap();
    b.measure_product("Revenue", "ITEM.UnitPrice", "ITEM.Qty")
        .unwrap();
    b.finish().unwrap()
}
