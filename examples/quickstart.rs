//! Quickstart: the KDAP two-phase loop in a dozen lines.
//!
//! Builds the paper's EBiz e-commerce warehouse (Figure 2), asks the
//! ambiguous keyword query **"Columbus LCD"**, shows the ranked
//! interpretations (Columbus the city — reached via store, buyer or
//! seller — vs. Columbus Day the holiday), then explores the top one.
//!
//! Run: `cargo run --release --example quickstart`

use kdap_suite::core::{Kdap, QueryRequest, Verb};
use kdap_suite::datagen::{build_ebiz, EbizScale};

fn main() {
    println!("building the EBiz warehouse (paper Figure 2)...");
    let wh = build_ebiz(EbizScale::full(), 42).expect("generator is valid");
    let kdap = Kdap::builder(wh).build().expect("warehouse has a measure");

    // ---- Phase 1: differentiate ------------------------------------
    let query = "Columbus LCD";
    println!("\nkeyword query: \"{query}\"\n");
    let ranked = kdap
        .run(&QueryRequest::new(Verb::Differentiate, query))
        .expect("usable keywords")
        .ranked;
    println!("candidate interpretations (star nets): {}\n", ranked.len());
    for (i, r) in ranked.iter().take(5).enumerate() {
        println!(
            "  #{} [score {:.4}] {}",
            i + 1,
            r.score,
            r.net.display(kdap.warehouse())
        );
    }

    // ---- The user picks one; Phase 2: explore ----------------------
    let chosen = &ranked[0].net;
    println!("\nexploring interpretation #1 ...\n");
    let ex = kdap.explore(chosen).expect("star net evaluates");
    println!(
        "subspace: {} fact points, total revenue {:.2}",
        ex.subspace_size, ex.total_aggregate
    );
    for panel in &ex.panels {
        println!("\n[{} dimension]", panel.dimension);
        for attr in &panel.attrs {
            println!(
                "  {} (score {:+.3}{})",
                attr.name,
                attr.score,
                if attr.promoted { ", hit attribute" } else { "" }
            );
            for e in attr.entries.iter().take(4) {
                println!(
                    "      {:<28} {:>12.2}{}",
                    e.label,
                    e.aggregate,
                    if e.is_hit { "  ← your keyword" } else { "" }
                );
            }
        }
    }
}
