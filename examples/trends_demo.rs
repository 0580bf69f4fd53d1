//! KDAP subsumes Google Trends (related work, §2).
//!
//! The paper positions Google Trends as "the only system that provides
//! some rudimentary KDAP functionality": keyword search over a query log
//! with aggregated volume shown over time and location. This demo runs a
//! Trends-style session on a query-log warehouse — then shows what Trends
//! cannot do: dynamically ranked facets beyond time/location, drill-down,
//! and interestingness-driven attribute selection.
//!
//! Run: `cargo run --release --example trends_demo`

use kdap_cli::render::render_exploration;
use kdap_suite::core::interest::InterestMode;
use kdap_suite::core::{FacetConfig, Kdap, QueryOptions, QueryRequest, Verb};
use kdap_suite::datagen::{build_trends, TrendsScale};

fn main() {
    println!("building the query-log warehouse…");
    let wh = build_trends(TrendsScale::full(), 42).expect("generator is valid");
    let kdap = Kdap::builder(wh)
        .facet_config(FacetConfig {
            top_k_attrs: 2,
            top_k_instances: 12,
            ..FacetConfig::default()
        })
        .build()
        .expect("measure defined");

    // --- The Google Trends experience: term → volume over time/place ---
    let query = "christmas gifts";
    println!("\n=== Trends-style lookup: \"{query}\" ===\n");
    let ranked = kdap
        .run(&QueryRequest::new(
            Verb::Differentiate,
            format!("\"{query}\""),
        ))
        .expect("usable keywords")
        .ranked;
    let net = &ranked.first().expect("term found").net;
    println!("interpretation: {}\n", net.display(kdap.warehouse()));
    let ex = kdap.explore(net).expect("star net evaluates");
    // The Time panel is the classic Trends curve, as a facet.
    if let Some(time) = ex.panels.iter().find(|p| p.dimension == "Time") {
        for attr in &time.attrs {
            if attr.name.ends_with("MonthName") {
                println!("search volume by month (the Trends curve):");
                let max = attr
                    .entries
                    .iter()
                    .map(|e| e.aggregate)
                    .fold(0.0f64, f64::max)
                    .max(1.0);
                let mut entries = attr.entries.clone();
                entries.sort_by(|a, b| a.label.cmp(&b.label));
                for e in &entries {
                    let bar = "█".repeat((28.0 * e.aggregate / max) as usize);
                    println!("  {:<10} {:>10.0} {}", e.label, e.aggregate, bar);
                }
            }
        }
    }

    // --- Beyond Trends: interestingness-ranked facets ---
    println!("\n=== what Google Trends cannot do ===\n");
    println!("surprise-ranked facets of the \"{query}\" subspace:\n");
    println!("{}", render_exploration(&ex));

    let bellwether =
        QueryRequest::new(Verb::Explore, format!("\"{query}\"")).with_options(QueryOptions {
            mode: Some(InterestMode::Bellwether),
            ..QueryOptions::default()
        });
    let ex2 = kdap
        .run(&bellwether)
        .expect("star net evaluates")
        .exploration
        .expect("explore explores");
    let bell = ex2
        .panels
        .iter()
        .flat_map(|p| p.attrs.iter())
        .filter(|a| !a.promoted)
        .max_by(|a, b| {
            a.score
                .partial_cmp(&b.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    if let Some(attr) = bell {
        println!(
            "best bellwether facet: {} (corr {:+.3}) — the partition whose\n\
             volume tracks overall Shopping searches most closely",
            attr.name, attr.correlation
        );
    }
}
