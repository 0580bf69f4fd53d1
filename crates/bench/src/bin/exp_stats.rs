//! Experiment E7 — system statistics and performance claims (§6.1/§6.5):
//! offline text-index size (paper: ~5 MB for both databases), and the
//! latency of the 500-iteration interval merge (paper: < 5 ms, no DBMS
//! access) plus end-to-end differentiate/explore timings.
//!
//! Run: `cargo run --release -p kdap-bench --bin exp_stats`

use std::time::Instant;

use kdap_bench::{differentiate, print_table};
use kdap_core::facet::{merge_intervals, AnnealConfig};
use kdap_core::Kdap;
use kdap_datagen::{build_aw_online, build_aw_reseller, Scale};

fn main() {
    let scale = if std::env::args().any(|a| a.contains("small")) {
        Scale::small()
    } else {
        Scale::full()
    };
    println!("## System statistics (E7)\n");

    let mut rows = Vec::new();
    for (name, wh) in [
        ("AW_ONLINE", build_aw_online(scale, 42).expect("valid")),
        ("AW_RESELLER", build_aw_reseller(scale, 42).expect("valid")),
    ] {
        let t0 = Instant::now();
        let kdap = Kdap::builder(wh).build().expect("measure");
        let build_ms = t0.elapsed().as_millis();
        rows.push(vec![
            name.to_string(),
            format!("{}", kdap.warehouse().fact_rows()),
            format!("{}", kdap.warehouse().tables().len()),
            format!("{}", kdap.warehouse().searchable_columns().count()),
            format!("{}", kdap.text_index().n_docs()),
            format!("{:.2} MB", kdap.text_index().approx_bytes() as f64 / 1e6),
            format!("{:.2} MB", kdap.warehouse().approx_bytes() as f64 / 1e6),
            format!("{build_ms} ms"),
        ]);
        if name == "AW_ONLINE" {
            // Differentiate-phase latency on a representative query.
            let t = Instant::now();
            let ranked = differentiate(&kdap, "California Mountain Bikes");
            let interpret_ms = t.elapsed().as_secs_f64() * 1000.0;
            let t = Instant::now();
            let _ex = kdap.explore(&ranked[0].net).expect("star net evaluates");
            let explore_ms = t.elapsed().as_secs_f64() * 1000.0;
            println!(
                "differentiate(\"California Mountain Bikes\"): {:.1} ms for {} candidates; \
                 explore(top net): {:.1} ms\n",
                interpret_ms,
                ranked.len(),
                explore_ms
            );
        }
    }
    print_table(
        &[
            "database",
            "facts",
            "tables",
            "searchable domains",
            "virtual docs",
            "text index",
            "warehouse",
            "index build",
        ],
        &rows,
    );

    // §6.5: "a 500 iterations interval merge operation takes less than
    // 5 milliseconds" — pure in-memory array manipulation.
    let x: Vec<f64> = (0..40).map(|i| ((i * 37) % 23) as f64).collect();
    let y: Vec<f64> = (0..40).map(|i| ((i * 17) % 19) as f64).collect();
    let cfg = AnnealConfig {
        iterations: 500,
        ..AnnealConfig::default()
    };
    // Warm up, then time a batch.
    let _ = merge_intervals(&x, &y, &cfg);
    let t = Instant::now();
    const RUNS: usize = 100;
    for _ in 0..RUNS {
        let _ = std::hint::black_box(merge_intervals(&x, &y, &cfg));
    }
    let per_run_ms = t.elapsed().as_secs_f64() * 1000.0 / RUNS as f64;
    println!(
        "\n500-iteration interval merge (40 basic intervals): {per_run_ms:.3} ms \
         (paper claims < 5 ms) → {}",
        if per_run_ms < 5.0 {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}
