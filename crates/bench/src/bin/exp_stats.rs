//! Experiment E7 — system statistics and performance claims (§6.1/§6.5):
//! offline text-index size (paper: ~5 MB for both databases), the
//! latency of the interval merge (paper: < 5 ms for 500 annealing
//! iterations, no DBMS access) — the engine's exact merge and the
//! paper's annealing — plus end-to-end differentiate/explore timings.
//!
//! Run: `cargo run --release -p kdap-bench --bin exp_stats`

use std::time::Instant;

use kdap_bench::anneal::{anneal, AnnealConfig};
use kdap_bench::{differentiate, print_table};
use kdap_core::facet::optimal_splits;
use kdap_core::{FacetConfig, Kdap};
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
    // 5 milliseconds" — pure in-memory array manipulation. The engine's
    // exact merge is timed at the default 3 of 40 and at the largest
    // configuration a 40-interval session admits (5 of 40), beside the
    // paper's own 500-iteration annealing.
    let defaults = FacetConfig::default();
    let m = defaults.n_basic_intervals;
    let x: Vec<f64> = (0..m).map(|i| ((i * 37) % 23) as f64).collect();
    let y: Vec<f64> = (0..m).map(|i| ((i * 17) % 19) as f64).collect();
    let k = defaults.display_intervals;
    let annealing = AnnealConfig::default();
    println!();
    for (label, per_run_ms) in [
        (
            format!("exact interval merge, {k} of {m} (default)"),
            time_ms(|| optimal_splits(&x, &y, k)),
        ),
        (
            format!("exact interval merge, 5 of {m} (largest admitted)"),
            time_ms(|| optimal_splits(&x, &y, 5)),
        ),
        (
            format!(
                "500-iteration annealing, {} of {m} (the paper's merge)",
                annealing.target_intervals
            ),
            time_ms(|| anneal(&x, &y, &annealing)),
        ),
    ] {
        println!(
            "{label}: {per_run_ms:.3} ms (paper claims < 5 ms) → {}",
            if per_run_ms < 5.0 {
                "HOLDS"
            } else {
                "VIOLATED"
            }
        );
    }
}

/// Mean wall time of one call of `f` over a batch of 100, after a
/// warm-up call.
fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    const RUNS: usize = 100;
    std::hint::black_box(f());
    let t = Instant::now();
    for _ in 0..RUNS {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() * 1000.0 / RUNS as f64
}
