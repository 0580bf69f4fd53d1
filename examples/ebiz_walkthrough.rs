//! A guided tour of every ambiguity the paper's running example (EBiz,
//! Figure 2) was designed to exhibit:
//!
//! 1. attribute-instance ambiguity — "Columbus" as city vs. holiday;
//! 2. join-path ambiguity — the shared Location table reached via the
//!    store, the buyer account, or the seller account;
//! 3. role disambiguation — "Seattle Portland TV": customers from one
//!    city buying in stores of another;
//! 4. phrase queries — "San" + "Jose" merging into the single city
//!    instance "San Jose" (§4.3);
//! 5. fact-table hits — keywords matching the transaction-item comment
//!    select fact points directly (§4.2).
//!
//! Run: `cargo run --release --example ebiz_walkthrough`

use kdap_suite::core::{Kdap, QueryRequest, Verb};
use kdap_suite::datagen::{build_ebiz, EbizScale};

fn main() {
    println!("building EBiz...");
    let wh = build_ebiz(EbizScale::full(), 42).expect("generator is valid");
    let kdap = Kdap::builder(wh).build().expect("warehouse has a measure");
    let wh = kdap.warehouse();

    // 1 + 2: "Columbus" alone.
    println!("\n=== 1/2. \"Columbus\": instance + join-path ambiguity ===");
    let ranked = kdap
        .run(&QueryRequest::new(Verb::Differentiate, "Columbus"))
        .expect("usable keywords")
        .ranked;
    for (i, r) in ranked.iter().enumerate() {
        println!("  #{} [{:.4}] {}", i + 1, r.score, r.net.display(wh));
    }
    println!(
        "  → {} interpretations: city via store / buyer / seller, plus the holiday",
        ranked.len()
    );

    // 3: role disambiguation across two cities.
    println!("\n=== 3. \"Seattle Portland TV\": buyer city × store city ===");
    let ranked = kdap
        .run(&QueryRequest::new(
            Verb::Differentiate,
            "Seattle Portland TV",
        ))
        .expect("usable keywords")
        .ranked;
    for r in ranked.iter().take(4) {
        println!("  [{:.4}] {}", r.score, r.net.display(wh));
    }
    let cross = ranked.iter().find(|r| {
        let d = r.net.display(wh);
        // One city through the store path, the other through an account
        // path: the aliased-location interpretation from §4.2.
        d.contains("Seattle")
            && d.contains("Portland")
            && d.contains("STORE → LOCATION")
            && (d.contains("(Buyer)") || d.contains("(Seller)"))
    });
    println!(
        "  cross-role interpretation (customers of one city, stores of the other): {}",
        if cross.is_some() { "present" } else { "absent" }
    );

    // 4: phrase merging.
    println!("\n=== 4. phrase queries: \"San Jose\" ===");
    let split = kdap
        .run(&QueryRequest::new(Verb::Differentiate, "San Jose"))
        .expect("usable keywords")
        .ranked;
    println!("  top interpretation for `San Jose` (two keywords):");
    if let Some(r) = split.first() {
        println!("    [{:.4}] {}", r.score, r.net.display(wh));
        let merged_to_phrase = r.net.n_groups() == 1
            && r.net.constraints[0]
                .group
                .hits
                .iter()
                .any(|h| h.value.contains("San Jose"));
        println!(
            "    keywords merged into the single city instance: {}",
            if merged_to_phrase { "YES" } else { "NO" }
        );
    }

    // 5: fact-table hit groups.
    println!("\n=== 5. fact-table hits: \"holiday sale purchase\" comments ===");
    let ranked = kdap
        .run(&QueryRequest::new(Verb::Differentiate, "\"holiday sale\""))
        .expect("usable keywords")
        .ranked;
    match ranked.first() {
        Some(r) => {
            println!("  [{:.4}] {}", r.score, r.net.display(wh));
            let on_fact = r.net.constraints.iter().any(|c| c.path.is_empty());
            println!(
                "  constraint sits directly on the fact table (empty join path): {}",
                if on_fact { "YES" } else { "NO" }
            );
            let ex = kdap.explore(&r.net).expect("star net evaluates");
            println!(
                "  fact points selected: {} (revenue {:.2})",
                ex.subspace_size, ex.total_aggregate
            );
        }
        None => println!("  no interpretation found"),
    }
}
