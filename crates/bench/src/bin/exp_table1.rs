//! Experiment E1 — reproduces **Table 1**: the top-3 star nets returned
//! for the keyword query "California Mountain Bikes" on AW_ONLINE.
//!
//! The paper's expected shape: the intended interpretation (StateProvince
//! = California ⋈ ProductSubcategory = Mountain Bikes) ranks first; the
//! "California Street" address interpretation and looser product matches
//! follow with visibly lower scores.
//!
//! Run: `cargo run --release -p kdap-bench --bin exp_table1 [-- --scale small]`

use kdap_bench::{differentiate, print_table};
use kdap_core::Kdap;
use kdap_datagen::{build_aw_online, Scale};

fn main() {
    let scale = if std::env::args().any(|a| a == "--scale=small" || a == "small") {
        Scale::small()
    } else {
        Scale::full()
    };
    eprintln!("building AW_ONLINE ({} facts)...", scale.facts);
    let wh = build_aw_online(scale, 42).expect("generator is valid");
    let kdap = Kdap::builder(wh).build().expect("measure defined");

    let query = "California Mountain Bikes";
    println!("## Table 1 — star nets for \"{query}\" (AW_ONLINE)\n");
    let ranked = differentiate(&kdap, query);
    println!("candidate interpretations generated: {}\n", ranked.len());

    let rows: Vec<Vec<String>> = ranked
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, r)| {
            vec![
                format!("{}", i + 1),
                r.net.display(kdap.warehouse()),
                format!("{:.6}", r.score),
            ]
        })
        .collect();
    print_table(
        &["rank", "star net (hit groups via join paths)", "score"],
        &rows,
    );

    // Sanity line for EXPERIMENTS.md: is the intended interpretation #1?
    let top = ranked.first().map(|r| r.net.display(kdap.warehouse()));
    if let Some(top) = top {
        let intended_first =
            top.contains("StateProvinceName/{California}") && top.contains("Mountain Bikes");
        println!(
            "\nintended interpretation ranked first: {}",
            if intended_first { "YES" } else { "NO" }
        );
    }
}
