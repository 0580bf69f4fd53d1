//! Ablation A1 — attribute-level vs. tuple-level text indexing (§3).
//!
//! The paper rejects tuple-level indexing (the DBExplorer/DISCOVER/BANKS
//! convention) because a tuple hit cannot say *which attribute* matched,
//! and "query disambiguation is crucial for keyword-driven analytical
//! processing". This experiment quantifies the loss on the AW_ONLINE
//! workload keywords:
//!
//! * **conflation rate** — fraction of keywords for which at least one
//!   tuple hit matches in ≥2 different attribute domains, or for which
//!   two tuple hits of the same table match in different domains (the §3
//!   `ABC` scenario: the hits look identical but denote different
//!   subspaces);
//! * **index sizes** — tuple documents vs. attribute-instance documents.
//!
//! Run: `cargo run --release -p kdap-bench --bin exp_ablation_index`

use std::collections::HashSet;

use kdap_bench::print_table;
use kdap_bench::tuple_index::TupleIndex;
use kdap_datagen::{build_aw_online, generate_workload, Scale, WorkloadConfig};
use kdap_textindex::{SearchOptions, TextIndex};

fn main() {
    let scale = if std::env::args().any(|a| a.contains("small")) {
        Scale::small()
    } else {
        Scale::full()
    };
    eprintln!("building AW_ONLINE ({} facts)...", scale.facts);
    let wh = build_aw_online(scale, 42).expect("generator is valid");
    let attr_index = TextIndex::build(&wh);
    let tuple_index = TupleIndex::build(&wh);
    let queries = generate_workload(&wh, &WorkloadConfig::default());

    let keywords: Vec<String> = {
        let mut ks: Vec<String> = queries
            .iter()
            .flat_map(|q| q.keywords.iter().cloned())
            .collect();
        ks.sort();
        ks.dedup();
        ks
    };

    let opts = SearchOptions::default();
    let mut conflated = 0usize;
    let mut with_hits = 0usize;
    let mut total_tuple_hits = 0usize;
    let mut total_attr_groups = 0usize;
    for kw in &keywords {
        let tuple_hits = tuple_index.search_keyword(kw, 5_000);
        if tuple_hits.is_empty() {
            continue;
        }
        with_hits += 1;
        total_tuple_hits += tuple_hits.len();

        let attr_hits = attr_index.search_keyword(kw, &opts);
        let groups: HashSet<_> = attr_hits
            .iter()
            .map(|h| attr_index.doc(h.doc).attr)
            .collect();
        total_attr_groups += groups.len();

        // Conflation: within one table, did the keyword match different
        // attribute domains across (or within) tuples? A tuple-level
        // system presents those hits identically.
        let mut domains_per_table: std::collections::HashMap<_, HashSet<_>> =
            std::collections::HashMap::new();
        let mut intra_tuple = false;
        for h in &tuple_hits {
            let matched = tuple_index.matched_attrs(kw, h.doc);
            if matched.len() > 1 {
                intra_tuple = true;
            }
            domains_per_table
                .entry(tuple_index.doc(h.doc).table)
                .or_default()
                .extend(matched);
        }
        if intra_tuple || domains_per_table.values().any(|d| d.len() > 1) {
            conflated += 1;
        }
    }

    println!("## Ablation — attribute-level vs tuple-level indexing (AW_ONLINE)\n");
    print_table(
        &[
            "metric",
            "attribute-level (paper §3)",
            "tuple-level (prior work)",
        ],
        &[
            vec![
                "virtual documents".into(),
                format!("{}", attr_index.n_docs()),
                format!("{}", tuple_index.n_docs()),
            ],
            vec![
                "index size".into(),
                format!("{:.2} MB", attr_index.approx_bytes() as f64 / 1e6),
                "n/a (no positions kept)".into(),
            ],
            vec![
                "avg interpretations per keyword".into(),
                format!(
                    "{:.1} hit groups (one per attribute domain)",
                    total_attr_groups as f64 / with_hits.max(1) as f64
                ),
                format!(
                    "{:.0} raw tuple hits (domain unknown)",
                    total_tuple_hits as f64 / with_hits.max(1) as f64
                ),
            ],
            vec![
                "keywords with conflated domains".into(),
                "0 (structurally impossible)".into(),
                format!(
                    "{} / {} ({:.0}%)",
                    conflated,
                    with_hits,
                    100.0 * conflated as f64 / with_hits.max(1) as f64
                ),
            ],
        ],
    );
    println!(
        "\nA conflated keyword is one whose tuple hits span ≥2 attribute domains \
         within a table — the §3 \"ABC\" case where tuple-level indexing cannot \
         distinguish semantically different subspaces."
    );
}
