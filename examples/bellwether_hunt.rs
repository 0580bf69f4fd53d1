//! Bellwether hunting (the paper's second OLAP application, after Chen et
//! al. VLDB'06): find *local* regions whose aggregates track the larger
//! region — "sales of LCDs in Columbus during January are very correlated
//! with total LCD sales".
//!
//! Same machinery as surprise analysis with the interestingness flipped:
//! facets are ranked by +correlation against the roll-up space, so the
//! partitions that mirror the global trend surface first.
//!
//! Run: `cargo run --release --example bellwether_hunt`

use kdap_suite::core::interest::InterestMode;
use kdap_suite::core::{FacetConfig, Kdap, QueryOptions, QueryRequest, Verb};
use kdap_suite::datagen::{build_aw_reseller, Scale};

fn main() {
    println!("building AW_RESELLER (60k+ facts)...");
    let wh = build_aw_reseller(Scale::full(), 42).expect("generator is valid");
    let kdap = Kdap::builder(wh)
        .facet_config(FacetConfig {
            mode: InterestMode::Bellwether,
            top_k_attrs: 3,
            top_k_instances: 4,
            ..FacetConfig::default()
        })
        .build()
        .expect("warehouse has a measure");

    // The analyst zooms into one subcategory and asks: which partitions
    // of these sales behave like the whole Bikes category does?
    let query = "\"Mountain Bikes\"";
    let ranked = kdap
        .run(&QueryRequest::new(Verb::Differentiate, query))
        .expect("usable keywords")
        .ranked;
    let net = &ranked.first().expect("interpretations exist").net;
    println!("\nquery {query} → {}", net.display(kdap.warehouse()));

    let ex = kdap.explore(net).expect("star net evaluates");
    println!(
        "subspace: {} facts, revenue {:.2}\n",
        ex.subspace_size, ex.total_aggregate
    );
    println!("bellwether candidates (facets most correlated with the Bikes roll-up):\n");

    let mut candidates: Vec<(String, String, f64)> = Vec::new();
    for panel in &ex.panels {
        for attr in panel.attrs.iter().filter(|a| !a.promoted) {
            candidates.push((panel.dimension.clone(), attr.name.clone(), attr.correlation));
        }
    }
    candidates.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    for (dim, name, corr) in candidates.iter().take(6) {
        let verdict = if *corr > 0.9 {
            "strong bellwether"
        } else if *corr > 0.6 {
            "candidate"
        } else {
            "weak"
        };
        println!("  {corr:+.3}  {name:<48} ({dim} dimension) — {verdict}");
    }

    // Contrast with surprise mode on the same subspace: the ordering of
    // the two modes is exactly inverted.
    let surprise = QueryRequest::new(Verb::Explore, query).with_options(QueryOptions {
        mode: Some(InterestMode::Surprise),
        ..QueryOptions::default()
    });
    let ex2 = kdap
        .run(&surprise)
        .expect("star net evaluates")
        .exploration
        .expect("explore explores");
    let most_surprising = ex2
        .panels
        .iter()
        .flat_map(|p| p.attrs.iter())
        .filter(|a| !a.promoted)
        .max_by(|a, b| {
            a.score
                .partial_cmp(&b.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    if let Some(attr) = most_surprising {
        println!(
            "\nfor contrast, the most *surprising* facet of the same subspace is {} \
             (correlation {:+.3})",
            attr.name, attr.correlation
        );
    }
}
