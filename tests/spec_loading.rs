//! End-to-end test of the data-driven path: the bookshop example spec
//! (examples/data/) loads through `kdap_warehouse::spec`, and the full
//! KDAP pipeline runs over it — exactly what `kdap --spec` does.

mod support;

use std::path::Path;

use kdap_suite::core::Kdap;
use kdap_suite::warehouse::load_spec;

use support::differentiate;

fn load_bookshop() -> kdap_suite::warehouse::Warehouse {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let spec = std::fs::read_to_string(dir.join("bookshop.spec")).expect("spec exists");
    load_spec(&spec, |file| {
        std::fs::read_to_string(dir.join(file)).map_err(|e| e.to_string())
    })
    .expect("bookshop spec is valid")
}

#[test]
fn bookshop_spec_builds_a_complete_warehouse() {
    let wh = load_bookshop();
    assert_eq!(wh.fact_rows(), 10);
    assert_eq!(wh.tables().len(), 4);
    assert_eq!(wh.schema().dimensions().len(), 2);
    assert_eq!(wh.schema().measures().len(), 2);
    let book_dim = wh.schema().dimension_by_name("Book").unwrap();
    assert_eq!(book_dim.hierarchies.len(), 1);
    assert_eq!(book_dim.groupby_candidates.len(), 4);
}

#[test]
fn kdap_runs_end_to_end_over_spec_data() {
    let kdap = Kdap::builder(load_bookshop()).build().unwrap();
    // Attribute-instance ambiguity in the bookshop: "gardens" hits two
    // fantasy titles in one hit group.
    let ranked = differentiate(&kdap, "gardens");
    assert!(!ranked.is_empty());
    let top = &ranked[0];
    assert_eq!(top.net.n_groups(), 1);
    assert_eq!(
        top.net.constraints[0].group.hits.len(),
        2,
        "both Gardens titles"
    );
    let ex = kdap.explore(&top.net).expect("star net evaluates");
    // Sales of books 2 and 6: rows 2, 7, 8 → qty-weighted revenue.
    assert_eq!(ex.subspace_size, 3);
    let expected = 18.50 + 16.00 + 2.0 * 17.75;
    assert!((ex.total_aggregate - expected).abs() < 1e-9);

    // A phrase over the author's name resolves to the AUTHOR domain.
    let ranked = differentiate(&kdap, "\"ada winterbourne\" mystery");
    assert!(!ranked.is_empty());
    let d = ranked[0].net.display(kdap.warehouse());
    assert!(d.contains("AUTHOR.Name"), "got {d}");
    assert!(d.contains("Mystery"), "got {d}");
}

#[test]
fn hierarchy_rollup_works_on_spec_defined_hierarchies() {
    let kdap = Kdap::builder(load_bookshop()).build().unwrap();
    // Title rolls up to genre.
    let ranked = differentiate(&kdap, "\"the last lighthouse\"");
    let net = &ranked[0].net;
    let rolled = kdap_suite::core::roll_up(kdap.warehouse(), kdap.join_index(), net, 0).unwrap();
    assert_eq!(rolled.n_groups(), 1);
    let attr = rolled.constraints[0].group.attr;
    assert_eq!(kdap.warehouse().col_name(attr), "BOOK.Genre");
    let ex = kdap.explore(&rolled).expect("star net evaluates");
    // All Mystery sales: books 1 and 4 → rows 1, 4, 5.
    assert_eq!(ex.subspace_size, 3);
}
