//! The paper's concrete scenarios, asserted as tests: each test pins one
//! claim from the text so regressions against the reproduction are loud.

mod support;

use std::time::Instant;

use kdap_suite::core::facet::{merge_intervals, AnnealConfig};
use kdap_suite::core::Kdap;
use kdap_suite::datagen::{build_aw_online, build_ebiz, EbizScale, Scale};

use support::differentiate;

fn ebiz() -> Kdap {
    Kdap::builder(build_ebiz(EbizScale::full(), 42).unwrap())
        .build()
        .unwrap()
}

/// §4.1 Example 3.1: "Columbus" may be a holiday or a city, and as a city
/// either stores or customers — four interpretations in total (customers
/// split into buyer/seller roles).
#[test]
fn example_3_1_columbus_ambiguity() {
    let kdap = ebiz();
    let ranked = differentiate(&kdap, "Columbus");
    assert_eq!(ranked.len(), 4);
    let displays: Vec<String> = ranked
        .iter()
        .map(|r| r.net.display(kdap.warehouse()))
        .collect();
    assert!(displays.iter().any(|d| d.contains("STORE → LOCATION")));
    assert!(displays.iter().any(|d| d.contains("(Buyer)")));
    assert!(displays.iter().any(|d| d.contains("(Seller)")));
    assert!(displays.iter().any(|d| d.contains("Columbus Day")));
}

/// §4.3: "San Jose" must merge into the city instance and outrank
/// "San Antonio"-style split interpretations.
#[test]
fn phrase_query_san_jose_merges_and_wins() {
    let kdap = ebiz();
    let ranked = differentiate(&kdap, "San Jose");
    let top = &ranked[0];
    assert_eq!(top.net.n_groups(), 1, "one merged hit group");
    assert!(top.net.constraints[0]
        .group
        .hits
        .iter()
        .all(|h| h.value.contains("San Jose")));
    // Any split interpretation scores strictly lower.
    for r in &ranked[1..] {
        if r.net.n_groups() > 1 {
            assert!(r.score < top.score);
        }
    }
}

/// §4.2: the "Seattle Portland TV" query must include the interpretation
/// "TV purchases made by customers from Seattle in stores located in
/// Portland" — the same LOCATION table under two aliases.
#[test]
fn seattle_portland_cross_role_interpretation_exists() {
    let kdap = ebiz();
    let ranked = differentiate(&kdap, "Seattle Portland TV");
    let found = ranked.iter().any(|r| {
        r.net.constraints.iter().any(|c| {
            let d = c
                .path
                .display(kdap.warehouse(), kdap.warehouse().schema().fact_table());
            d.contains("(Buyer)") && c.group.hits.iter().any(|h| h.value.as_ref() == "Seattle")
        }) && r.net.constraints.iter().any(|c| {
            let d = c
                .path
                .display(kdap.warehouse(), kdap.warehouse().schema().fact_table());
            d.contains("STORE") && c.group.hits.iter().any(|h| h.value.as_ref() == "Portland")
        })
    });
    assert!(found);
}

/// §4.2: star nets must join *through the fact table*: "Home Electronics
/// VCR" (both product hits) yields ONE dimension-merged subspace slicing
/// the fact table, not a Discover-style product-only tuple tree.
#[test]
fn star_nets_go_through_the_fact_table() {
    let kdap = ebiz();
    let ranked = differentiate(&kdap, "\"Home Electronics\" VCR");
    assert!(!ranked.is_empty());
    let fact = kdap.warehouse().schema().fact_table();
    for r in &ranked {
        for c in &r.net.constraints {
            // Every constraint path starts at the fact table.
            let tables = c.path.tables(kdap.warehouse().schema(), fact);
            assert_eq!(tables[0], fact);
        }
    }
    // The top interpretation has one group on the product line and one on
    // the group name — intersection on the fact table.
    let ex = kdap.explore(&ranked[0].net).expect("star net evaluates");
    assert!(ex.subspace_size > 0, "intersection selects fact points");
}

/// Table 1 shape: "California Mountain Bikes" puts the intended
/// state × subcategory interpretation first on AW_ONLINE.
#[test]
fn table1_intended_interpretation_ranks_first() {
    let kdap = Kdap::builder(build_aw_online(Scale::full(), 42).unwrap())
        .build()
        .unwrap();
    let ranked = differentiate(&kdap, "California Mountain Bikes");
    let top = ranked[0].net.display(kdap.warehouse());
    assert!(top.contains("StateProvinceName/{California}"), "got {top}");
    assert!(top.contains("Mountain Bikes"), "got {top}");
}

/// Table 2 shape: after picking the Table 1 star net, the Product panel
/// promotes the subcategory with the "Mountain Bikes" hit pinned first.
#[test]
fn table2_product_panel_promotes_hit_attribute() {
    let kdap = Kdap::builder(build_aw_online(Scale::full(), 42).unwrap())
        .build()
        .unwrap();
    let ranked = differentiate(&kdap, "California Mountain Bikes");
    let ex = kdap.explore(&ranked[0].net).expect("star net evaluates");
    let product = ex
        .panels
        .iter()
        .find(|p| p.dimension == "Product")
        .expect("product panel");
    assert!(product.attrs[0].promoted);
    assert_eq!(
        product.attrs[0].name,
        "DimProductSubcategory.ProductSubcategoryName"
    );
    assert_eq!(product.attrs[0].entries[0].label, "Mountain Bikes");
    assert!(product.attrs[0].entries[0].is_hit);
}

/// §6.5: a 500-iteration interval merge takes well under 5 ms and never
/// touches the storage engine.
#[test]
fn interval_merge_latency_claim_holds() {
    let x: Vec<f64> = (0..40).map(|i| ((i * 37) % 23) as f64).collect();
    let y: Vec<f64> = (0..40).map(|i| ((i * 17) % 19) as f64).collect();
    let cfg = AnnealConfig {
        iterations: 500,
        ..AnnealConfig::default()
    };
    let _ = merge_intervals(&x, &y, &cfg); // warm-up
    let t = Instant::now();
    for _ in 0..20 {
        let _ = std::hint::black_box(merge_intervals(&x, &y, &cfg));
    }
    let per_run = t.elapsed().as_secs_f64() * 1000.0 / 20.0;
    assert!(
        per_run < 5.0,
        "merge took {per_run:.2} ms (debug builds included)"
    );
}

/// §6.2 content summaries: long textual attributes (descriptions) are
/// searchable and produce valid interpretations.
#[test]
fn long_description_attributes_are_searchable() {
    let kdap = ebiz();
    let ranked = differentiate(&kdap, "handcrafted bumps");
    assert!(!ranked.is_empty());
    let top = ranked[0].net.display(kdap.warehouse());
    assert!(top.contains("PRODUCT.Description"), "got {top}");
}
