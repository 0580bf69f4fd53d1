//! Experiment E14 — scaling: can the engine survive 10M rows?
//!
//! The compressed columnar storage (bit-packed dictionary chunks) and
//! hybrid row sets (array/bitmap/run containers per 64Ki-row block) exist
//! so the engine's working set and query latency grow *sub-linearly*
//! while the fact table grows linearly. This binary measures that claim
//! directly: it builds AW_ONLINE at a ladder of scale factors (facts ×f,
//! dimensions ×√f — see `Scale::scaled`), runs a fixed keyword workload
//! through the full interpret→explore pipeline under a 2 GiB memory
//! budget, and records the p50 explore latency per thread count.
//!
//! Methodology: per rung, the session is warmed once over every net
//! (plans, the measure vector), then each net is explored
//! `repeats` times per thread count — rounds interleaved over the nets,
//! keeping each net's best round (the same best-of-N discipline as
//! `exp_obs`, so frequency drift cancels instead of inflating a rung) —
//! and the p50 over the per-net minima kept. Warm state is the honest
//! comparison across rungs — every rung amortizes the same one-time
//! costs, so the curve isolates the per-query work that actually scales
//! with the data.
//!
//! With `--check`, the run exits nonzero unless p50 latency grew by a
//! smaller factor than the fact count between the smallest and largest
//! rung (the sub-linearity gate CI enforces at `--scale 10`).
//!
//! Run:
//!   cargo run --release -p kdap-bench --bin exp_scale -- --scale 10 --check
//!   cargo run --release -p kdap-bench --bin exp_scale -- --scale 200   # ~12.1M facts

use std::time::Instant;

use kdap_bench::print_table;
use kdap_core::{Kdap, StarNet};
use kdap_datagen::{build_aw_online, generate_workload, Scale, WorkloadConfig};

/// The scale-factor ladder, filtered by `--scale`.
const LADDER: [usize; 8] = [1, 2, 5, 10, 20, 50, 100, 200];

/// One rung of the ladder.
struct Rung {
    scale: usize,
    facts: usize,
    warehouse_bytes: usize,
    build_ms: f64,
    nets: usize,
    /// `(threads, p50_ms)` in the order measured.
    p50_ms: Vec<(usize, f64)>,
}

fn p50(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn run_rung(
    scale: usize,
    threads: &[usize],
    repeats: usize,
    max_nets: usize,
    budget_bytes: u64,
) -> Rung {
    eprintln!("scale {scale}: building AW_ONLINE…");
    let t0 = Instant::now();
    let wh = build_aw_online(Scale::full().scaled(scale), 42).expect("generator is valid");
    let facts = wh.fact_rows();
    let warehouse_bytes = wh.approx_bytes();
    let queries = generate_workload(&wh, &WorkloadConfig::default());
    // Sessions are immutable, so each thread count gets its own over a
    // clone of the warehouse, each dropped before the next is built.
    let session = |t: usize| {
        Kdap::builder(wh.clone())
            .threads(t)
            .memory_budget(budget_bytes)
            .build()
            .expect("measure")
    };
    let first = session(threads[0]);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "scale {scale}: {facts} facts · {:.1} MB compressed · built in {:.0} ms",
        warehouse_bytes as f64 / 1048576.0,
        build_ms
    );

    let nets: Vec<StarNet> = queries
        .iter()
        .filter_map(|q| first.interpret(&q.text()).into_iter().next())
        .map(|r| r.net)
        .take(max_nets)
        .collect();
    assert!(!nets.is_empty(), "workload produced no interpretations");

    let mut p50_ms = Vec::new();
    let mut first = Some(first);
    for &t in threads {
        let kdap = first.take().unwrap_or_else(|| session(t));
        // Warm once: plans, semi-join bitmaps, measure
        // vector. Every explore runs governed by the memory budget — a
        // breach aborts the whole experiment, which is exactly the point.
        for net in &nets {
            kdap.explore(net).expect("warm explore within budget");
        }
        // Interleave rounds over the nets and keep each net's best, so
        // CPU-frequency drift across the run cancels; the rung's number
        // is the p50 over per-net minima.
        let mut best = vec![f64::MAX; nets.len()];
        for _ in 0..repeats {
            for (i, net) in nets.iter().enumerate() {
                let t0 = Instant::now();
                let ex = kdap.explore(net).expect("explore within budget");
                best[i] = best[i].min(t0.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(ex);
            }
        }
        p50_ms.push((t, p50(&mut best)));
    }
    Rung {
        scale,
        facts,
        warehouse_bytes,
        build_ms,
        nets: nets.len(),
        p50_ms,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
            .or_else(|| {
                let pfx = format!("{name}=");
                args.iter()
                    .find_map(|a| a.strip_prefix(&pfx).map(String::from))
            })
    };
    let max_scale: usize = arg("--scale").and_then(|v| v.parse().ok()).unwrap_or(10);
    let repeats: usize = arg("--repeats").and_then(|v| v.parse().ok()).unwrap_or(2);
    let max_nets: usize = arg("--nets").and_then(|v| v.parse().ok()).unwrap_or(8);
    let budget_mb: u64 = arg("--budget-mb")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2048);
    let threads: Vec<usize> = arg("--threads")
        .map(|v| v.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 4, 8]);
    let check = args.iter().any(|a| a == "--check");
    let budget_bytes = budget_mb * 1024 * 1024;

    let ladder: Vec<usize> = LADDER.iter().copied().filter(|&s| s <= max_scale).collect();
    assert!(
        ladder.len() >= 2,
        "--scale must admit at least two ladder rungs (≥ 2)"
    );

    let rungs: Vec<Rung> = ladder
        .iter()
        .map(|&s| run_rung(s, &threads, repeats, max_nets, budget_bytes))
        .collect();

    println!(
        "## E14 — scaling, AW_ONLINE ×{{{}}} under a {budget_mb} MiB budget (repeats={repeats})\n",
        ladder
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut headers = vec!["scale".to_string(), "facts".to_string(), "MB".to_string()];
    headers.extend(threads.iter().map(|t| format!("p50 ms (t={t})")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = rungs
        .iter()
        .map(|r| {
            let mut row = vec![
                format!("{}", r.scale),
                format!("{}", r.facts),
                format!("{:.1}", r.warehouse_bytes as f64 / 1048576.0),
            ];
            row.extend(r.p50_ms.iter().map(|(_, ms)| format!("{ms:.2}")));
            row
        })
        .collect();
    print_table(&headers_ref, &rows);

    let (first, last) = (&rungs[0], &rungs[rungs.len() - 1]);
    let facts_growth = last.facts as f64 / first.facts as f64;
    let p50_growth = last.p50_ms[0].1 / first.p50_ms[0].1;
    println!(
        "\nfacts grew {facts_growth:.1}× · p50 (t={}) grew {p50_growth:.1}× → {}",
        threads[0],
        if p50_growth < facts_growth {
            "sub-linear"
        } else {
            "NOT sub-linear"
        }
    );

    let json = render_json(
        &rungs,
        &threads,
        repeats,
        budget_bytes,
        facts_growth,
        p50_growth,
    );
    let path = "results/BENCH_scaling.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if check {
        assert!(
            p50_growth < facts_growth,
            "p50 latency grew {p50_growth:.2}× while facts grew {facts_growth:.2}× — \
             scaling is not sub-linear"
        );
        println!(
            "\ncheck passed: p50 growth {p50_growth:.2}× < facts growth {facts_growth:.2}× \
             and every explore ran inside the {budget_mb} MiB budget"
        );
    }
}

fn render_json(
    rungs: &[Rung],
    threads: &[usize],
    repeats: usize,
    budget_bytes: u64,
    facts_growth: f64,
    p50_growth: f64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"E14\",\n");
    out.push_str("  \"generator\": \"aw_online\",\n");
    out.push_str(&format!("  \"budget_bytes\": {budget_bytes},\n"));
    out.push_str(&format!("  \"repeats\": {repeats},\n"));
    out.push_str(&format!(
        "  \"threads\": [{}],\n",
        threads
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"scales\": [\n");
    for (i, r) in rungs.iter().enumerate() {
        let p50s = r
            .p50_ms
            .iter()
            .map(|(t, ms)| format!("{{\"threads\": {t}, \"p50_ms\": {ms:.3}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"scale\": {}, \"facts\": {}, \"warehouse_bytes\": {}, \
             \"build_ms\": {:.1}, \"nets\": {}, \"p50\": [{}]}}{}\n",
            r.scale,
            r.facts,
            r.warehouse_bytes,
            r.build_ms,
            r.nets,
            p50s,
            if i + 1 < rungs.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"sublinear\": {{\"facts_growth\": {facts_growth:.3}, \"p50_growth\": {p50_growth:.3}, \
         \"ok\": {}}}\n",
        p50_growth < facts_growth
    ));
    out.push_str("}\n");
    out
}
