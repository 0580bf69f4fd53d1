//! Extension E8 — numeric/measure attributes as hit candidates, the
//! paper's first future-work item (§7).
//!
//! With the extension enabled, numeric keywords generate additional
//! interpretations over numerical attribute domains (prices, incomes,
//! measure columns). This experiment shows (a) the interpretation space
//! before/after, (b) that textual interpretations still outrank numeric
//! ones when both exist ("2001" as a calendar-year label vs. a price
//! point), and (c) end-to-end subspace selection through a numeric
//! constraint.
//!
//! Run: `cargo run --release -p kdap-bench --bin exp_numeric`

use kdap_bench::{differentiate, print_table};
use kdap_core::{GenConfig, Kdap, NumericConfig};
use kdap_datagen::{build_aw_online, Scale};

fn main() {
    let scale = if std::env::args().any(|a| a.contains("small")) {
        Scale::small()
    } else {
        Scale::full()
    };
    // Two sessions over the same (seed-42) warehouse: text hits only, and
    // text plus numeric hits.
    eprintln!("building AW_ONLINE ({} facts) twice...", scale.facts);
    let text_only = Kdap::builder(build_aw_online(scale, 42).expect("generator is valid"))
        .build()
        .expect("measure defined");
    let numeric = GenConfig {
        numeric: NumericConfig {
            enabled: true,
            ..NumericConfig::default()
        },
        ..GenConfig::default()
    };
    let kdap = Kdap::builder(build_aw_online(scale, 42).expect("generator is valid"))
        .gen_config(numeric)
        .build()
        .expect("measure defined");

    println!("## Numeric hit candidates (§7 future work)\n");

    // Pick a price point that actually exists in the data.
    let price_attr = kdap
        .warehouse()
        .col_ref("DimProduct", "DealerPrice")
        .unwrap();
    let some_price = kdap
        .warehouse()
        .column(price_attr)
        .get_float(0)
        .expect("product 1 has a dealer price");
    let price_kw = format!("{some_price}");

    let queries = ["2001", price_kw.as_str(), "80000 California"];
    let mut rows = Vec::new();
    for q in queries {
        let baseline = differentiate(&text_only, q).len();
        let ranked = differentiate(&kdap, q);
        let numeric_count = ranked
            .iter()
            .filter(|r| r.net.constraints.iter().any(|c| c.group.numeric.is_some()))
            .count();
        let top = ranked
            .first()
            .map(|r| {
                let d = r.net.display(kdap.warehouse());
                if d.len() > 70 {
                    format!("{}…", &d[..d.char_indices().take(70).last().unwrap().0])
                } else {
                    d
                }
            })
            .unwrap_or_else(|| "(none)".into());
        rows.push(vec![
            q.to_string(),
            format!("{baseline}"),
            format!("{}", ranked.len()),
            format!("{numeric_count}"),
            top,
        ]);
    }
    print_table(
        &[
            "query",
            "interpretations (text only)",
            "with numeric hits",
            "numeric nets",
            "top interpretation",
        ],
        &rows,
    );

    // End-to-end: explore a numeric interpretation.
    let ranked = differentiate(&kdap, &price_kw);
    if let Some(r) = ranked
        .iter()
        .find(|r| r.net.constraints.iter().any(|c| c.group.numeric.is_some()))
    {
        let ex = kdap.explore(&r.net).expect("star net evaluates");
        println!(
            "\nexploring numeric interpretation of \"{price_kw}\": {} fact points, revenue {:.2}, {} facet panels",
            ex.subspace_size,
            ex.total_aggregate,
            ex.panels.len()
        );
    }
}
