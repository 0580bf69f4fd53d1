//! Surprise analysis (the paper's first OLAP application, §5 / Eq. 1):
//! find exceptions — partitions of the subspace whose aggregation trend
//! *deviates* from the roll-up background space.
//!
//! The analyst asks for Mountain Bikes sold to Californian customers and
//! lets KDAP surface the group-by attributes along which that subspace
//! behaves least like Bikes sales overall — then drills down into the
//! most surprising instance, exactly the interaction loop of §6.2.
//!
//! Run: `cargo run --release --example surprise_analysis`

use kdap_suite::core::interest::InterestMode;
use kdap_suite::core::{FacetConfig, Kdap, QueryRequest, StarNet, Verb};
use kdap_suite::datagen::{build_aw_online, Scale};

fn main() {
    println!("building AW_ONLINE (60k+ facts)...");
    let wh = build_aw_online(Scale::full(), 42).expect("generator is valid");
    let kdap = Kdap::builder(wh)
        .facet_config(FacetConfig {
            mode: InterestMode::Surprise,
            top_k_attrs: 3,
            top_k_instances: 5,
            ..FacetConfig::default()
        })
        .build()
        .expect("warehouse has a measure");

    let ranked = kdap
        .run(&QueryRequest::new(
            Verb::Differentiate,
            "California Mountain Bikes",
        ))
        .expect("usable keywords")
        .ranked;
    let net = ranked.first().expect("interpretations exist").net.clone();
    println!("\ninterpretation: {}\n", net.display(kdap.warehouse()));

    let ex = kdap.explore(&net).expect("star net evaluates");
    println!(
        "subspace: {} facts, revenue {:.2}\n",
        ex.subspace_size, ex.total_aggregate
    );

    // Most surprising non-promoted attribute across all dimensions.
    let mut best: Option<(&str, &kdap_suite::core::FacetAttr)> = None;
    for panel in &ex.panels {
        for attr in panel.attrs.iter().filter(|a| !a.promoted) {
            if best.is_none() || attr.score > best.as_ref().unwrap().1.score {
                best = Some((&panel.dimension, attr));
            }
        }
    }
    let (dim, attr) = best.expect("facets were built");
    println!(
        "most surprising angle: {} in the {} dimension \
         (correlation with roll-up space: {:+.3})",
        attr.name, dim, attr.correlation
    );
    for e in &attr.entries {
        println!(
            "    {:<28} revenue {:>12.2}  deviation score {:+.4}",
            e.label, e.aggregate, e.score
        );
    }

    // Drill down: narrow the subspace to the most deviant instance by
    // refining the keyword query with it, then re-explore.
    if let Some(top_entry) = attr.entries.iter().max_by(|a, b| {
        a.score
            .partial_cmp(&b.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    }) {
        println!(
            "\ndrilling down into the most surprising instance: \"{}\"",
            top_entry.label
        );
        let refined_query = format!("\"{}\" \"Mountain Bikes\" California", top_entry.label);
        let refined = kdap
            .run(&QueryRequest::new(Verb::Differentiate, refined_query))
            .expect("usable keywords")
            .ranked;
        if let Some(r) = refined.first() {
            let ex2 = kdap.explore(&r.net).expect("star net evaluates");
            print_drilldown(&r.net, &ex2, kdap.warehouse());
        }
    }
}

fn print_drilldown(
    net: &StarNet,
    ex: &kdap_suite::core::Exploration,
    wh: &kdap_suite::warehouse::Warehouse,
) {
    println!("refined interpretation: {}", net.display(wh));
    println!(
        "refined subspace: {} facts, revenue {:.2}",
        ex.subspace_size, ex.total_aggregate
    );
    for panel in ex.panels.iter().take(2) {
        println!("  [{}]", panel.dimension);
        for attr in panel.attrs.iter().take(2) {
            let labels: Vec<&str> = attr
                .entries
                .iter()
                .take(3)
                .map(|e| e.label.as_str())
                .collect();
            println!("    {} → {}", attr.name, labels.join(" | "));
        }
    }
}
