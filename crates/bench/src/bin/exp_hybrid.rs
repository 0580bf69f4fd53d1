//! Extension E9 — interface-consistency ablation (§7).
//!
//! The paper's closing discussion: dynamic facet construction is useful
//! for exploration "but may become inadequate whenever the users have a
//! very concrete goal for their aggregations — in such cases the
//! *consistency* of the interface organization becomes critical and a
//! hybrid solution may be better."
//!
//! We quantify the trade-off over a session of related queries:
//! * **churn** — how much the per-dimension attribute layout changes
//!   between consecutive queries (1 − positional agreement); lower is
//!   easier to navigate with a concrete goal;
//! * **mean interestingness** — the average facet score surfaced; higher
//!   means more exploration value on screen.
//!
//! Run: `cargo run --release -p kdap-bench --bin exp_hybrid`

use kdap_bench::print_table;
use kdap_core::{FacetOrder, Kdap, KdapError, QueryOptions, QueryRequest, Verb};
use kdap_datagen::{build_aw_online, Scale};

const SESSION: &[&str] = &[
    "Bikes",
    "\"Mountain Bikes\"",
    "\"Road Bikes\"",
    "Clothing",
    "Accessories",
    "California Bikes",
];

fn main() {
    let scale = if std::env::args().any(|a| a.contains("small")) {
        Scale::small()
    } else {
        Scale::full()
    };
    eprintln!("building AW_ONLINE ({} facts)...", scale.facts);
    let wh = build_aw_online(scale, 42).expect("generator is valid");
    let kdap = Kdap::builder(wh).build().expect("measure defined");

    println!("## Hybrid interface organization (§7) — layout churn vs interestingness\n");
    println!("session: {}\n", SESSION.join(" → "));

    let orders = [
        ("dynamic", FacetOrder::Dynamic),
        ("hybrid (pin 1)", FacetOrder::Hybrid { pinned: 1 }),
        ("hybrid (pin 2)", FacetOrder::Hybrid { pinned: 2 }),
        ("consistent", FacetOrder::Consistent),
    ];

    let mut rows = Vec::new();
    for (label, order) in orders {
        let options = QueryOptions {
            order: Some(order),
            top_k_attrs: Some(3),
            ..QueryOptions::default()
        };
        // Layouts per query: dimension → ordered non-promoted attr names.
        let mut layouts: Vec<std::collections::BTreeMap<String, Vec<String>>> = Vec::new();
        let mut score_sum = 0.0;
        let mut score_n = 0usize;
        for q in SESSION {
            let request = QueryRequest::new(Verb::Explore, *q).with_options(options.clone());
            let ex = match kdap.run(&request) {
                Ok(response) => response.exploration.expect("explore explores"),
                Err(KdapError::NoInterpretation { .. }) => continue,
                Err(e) => panic!("star net evaluates: {e}"),
            };
            let mut layout = std::collections::BTreeMap::new();
            for panel in &ex.panels {
                let attrs: Vec<String> = panel
                    .attrs
                    .iter()
                    .filter(|a| !a.promoted)
                    .map(|a| a.name.clone())
                    .collect();
                for a in panel.attrs.iter().filter(|a| !a.promoted) {
                    score_sum += a.score;
                    score_n += 1;
                }
                layout.insert(panel.dimension.clone(), attrs);
            }
            layouts.push(layout);
        }
        // Churn: positional disagreement between consecutive layouts.
        let mut churn_sum = 0.0;
        let mut churn_n = 0usize;
        for w in layouts.windows(2) {
            for (dim, attrs_a) in &w[0] {
                let Some(attrs_b) = w[1].get(dim) else {
                    continue;
                };
                let len = attrs_a.len().max(attrs_b.len());
                if len == 0 {
                    continue;
                }
                let same = attrs_a.iter().zip(attrs_b).filter(|(x, y)| x == y).count();
                churn_sum += 1.0 - same as f64 / len as f64;
                churn_n += 1;
            }
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.1}%", 100.0 * churn_sum / churn_n.max(1) as f64),
            format!("{:+.3}", score_sum / score_n.max(1) as f64),
        ]);
    }
    print_table(
        &[
            "ordering policy",
            "layout churn per step",
            "mean facet interestingness",
        ],
        &rows,
    );
    println!(
        "\nDynamic maximizes surfaced interestingness but reshuffles the panel on \
         every query; Consistent is perfectly stable but surfaces whatever the \
         schema declared first; Hybrid trades between them — the §7 hypothesis."
    );
}
