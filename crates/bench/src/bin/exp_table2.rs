//! Experiment E2 — reproduces **Table 2**: the dynamically selected
//! group-by attributes and attribute instances of the Product dimension
//! after the analyst picks star net #1 of "California Mountain Bikes".
//!
//! Expected shape (paper): ProductSubCategory is promoted with the
//! "Mountain Bikes" hit pinned; DealerPrice shows merged numeric ranges;
//! ModelName and Color follow with their ranked instances.
//!
//! Run: `cargo run --release -p kdap-bench --bin exp_table2 [-- --scale small]`

use kdap_bench::{differentiate, print_table};
use kdap_core::{FacetConfig, Kdap};
use kdap_datagen::{build_aw_online, Scale};

fn main() {
    let scale = if std::env::args().any(|a| a == "--scale=small" || a == "small") {
        Scale::small()
    } else {
        Scale::full()
    };
    eprintln!("building AW_ONLINE ({} facts)...", scale.facts);
    let wh = build_aw_online(scale, 42).expect("generator is valid");
    let kdap = Kdap::builder(wh)
        .facet_config(FacetConfig {
            top_k_attrs: 4,
            top_k_instances: 5,
            display_intervals: 3,
            ..FacetConfig::default()
        })
        .build()
        .expect("measure defined");

    let ranked = differentiate(&kdap, "California Mountain Bikes");
    let net = &ranked.first().expect("interpretations exist").net;
    println!(
        "## Table 2 — selected attributes & instances (Product dimension)\n\nstar net: {}\n",
        net.display(kdap.warehouse())
    );
    let ex = kdap.explore(net).expect("star net evaluates");
    println!(
        "subspace: {} fact points, total revenue {:.2}\n",
        ex.subspace_size, ex.total_aggregate
    );

    for panel in &ex.panels {
        println!("### {} Dimension", panel.dimension);
        let mut rows = Vec::new();
        for attr in &panel.attrs {
            for (i, e) in attr.entries.iter().enumerate() {
                rows.push(vec![
                    if i == 0 {
                        attr.name.clone()
                    } else {
                        String::new()
                    },
                    if i == 0 {
                        format!(
                            "{:+.3}{}",
                            attr.score,
                            if attr.promoted { " (hit)" } else { "" }
                        )
                    } else {
                        String::new()
                    },
                    format!("{}{}", e.label, if e.is_hit { " *" } else { "" }),
                    format!("{:.2}", e.aggregate),
                ]);
            }
        }
        print_table(
            &[
                "group-by attribute",
                "score",
                "attribute instance",
                "revenue",
            ],
            &rows,
        );
        println!();
    }
}
