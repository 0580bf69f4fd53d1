//! Experiment E14 — scaling: can the engine survive 10M rows?
//!
//! The compressed columnar storage (bit-packed dictionary chunks) and
//! hybrid row sets (array/bitmap/run containers per 64Ki-row block) keep
//! an explore's cost proportional to the rows it scans. This binary
//! measures how that cost grows with the data: it builds AW_ONLINE at a
//! ladder of scale factors (facts ×f, dimensions ×√f — see
//! `Scale::scaled`), runs a fixed keyword workload through the full
//! interpret→explore pipeline under a 2 GiB memory budget, and records
//! the p50 explore latency per thread count.
//!
//! Methodology: every rung interprets the same keyword queries — the
//! default workload drawn from the smallest rung's data — and explores
//! each query's top net. Per rung, the session is warmed once over every
//! net (plans, the measure vector, the whole-dataspace group memo), then
//! each net is explored `repeats` times per thread count — rounds
//! interleaved over the nets, keeping each net's best round (the same
//! best-of-N discipline as `exp_obs`, so frequency drift cancels instead
//! of inflating a rung) — and the p50 over the per-net minima kept. Warm
//! state is the honest comparison across rungs — every rung amortizes the
//! same one-time costs, so the curve isolates the per-query work that
//! actually scales with the data.
//!
//! A keyword can hit other values in a larger rung, so the rungs' top
//! nets need not agree. Growth is therefore taken per net: a net of the
//! smallest rung is matched to the largest rung's net that selects the
//! same attribute values along the same join paths (`net_key`), and its
//! growth is the ratio of the two best times (first thread count). The
//! ratio of two rungs' p50s is not a growth rate: each p50 may come from
//! a different net (EXPERIMENTS.md E22).
//!
//! A net over ×f facts selects ≈ ×f rows and rolls up over ×f facts, so
//! its explore time is expected to grow linearly (EXPERIMENTS.md E22
//! measured medians of 6.1–11.6× for 10× facts). With `--check`, the run
//! exits nonzero unless some net matched and the median per-net growth
//! is below `LINEAR_SLACK` × the fact growth between the smallest and
//! largest rung — the gate CI enforces at `--scale 10`, which fails a
//! change that makes an explore super-linear in the data.
//!
//! A run up to the top rung (`--scale 200`) is a full run and writes
//! `results/BENCH_scaling.json` (the committed copy); a shorter ladder is
//! a smoke run and writes `target/BENCH_scaling.json`.
//!
//! Run:
//!   cargo run --release -p kdap-bench --bin exp_scale -- --scale 10 --check
//!   cargo run --release -p kdap-bench --bin exp_scale -- --scale 200   # ~12.1M facts

use std::time::Instant;

use kdap_bench::{bench_json, print_table, write_bench_json};
use kdap_core::{Kdap, StarNet};
use kdap_datagen::{build_aw_online, generate_workload, Scale, WorkloadConfig};
use kdap_obs::Layout;
use kdap_warehouse::Warehouse;

/// The scale-factor ladder, filtered by `--scale`.
const LADDER: [usize; 8] = [1, 2, 5, 10, 20, 50, 100, 200];

/// `--check` allows the median per-net growth up to this multiple of the
/// fact growth: the smallest rung's explores take about a millisecond, so
/// one slow best-of-`repeats` round moves a ratio by tens of percent.
const LINEAR_SLACK: f64 = 1.5;

/// One rung of the ladder.
struct Rung {
    scale: usize,
    facts: usize,
    warehouse_bytes: usize,
    build_ms: f64,
    /// `(net_key, best ms at the first thread count)` per explored net.
    nets: Vec<(String, f64)>,
    /// `(threads, p50_ms)` in the order measured.
    p50_ms: Vec<(usize, f64)>,
}

fn p50(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn warehouse(scale: usize) -> Warehouse {
    build_aw_online(Scale::full().scaled(scale), 42).expect("generator is valid")
}

/// A net's identity across rungs: the attribute values it selects and the
/// join paths it selects them along, by name — dictionary codes differ
/// between two rungs' warehouses.
fn net_key(wh: &Warehouse, net: &StarNet) -> String {
    let fact = wh.schema().fact_table();
    net.constraints
        .iter()
        .map(|c| {
            let values: Vec<&str> = c.group.hits.iter().map(|h| &*h.value).collect();
            format!(
                "{}/{{{}}}{:?} via {}",
                wh.col_name(c.group.attr),
                values.join(" OR "),
                c.group.numeric,
                c.path.display(wh, fact)
            )
        })
        .collect::<Vec<_>>()
        .join("  ⋈  ")
}

fn run_rung(
    scale: usize,
    keywords: &[String],
    threads: &[usize],
    repeats: usize,
    max_nets: usize,
    budget_bytes: u64,
) -> Rung {
    eprintln!("scale {scale}: building AW_ONLINE…");
    let t0 = Instant::now();
    let wh = warehouse(scale);
    let facts = wh.fact_rows();
    let warehouse_bytes = wh.approx_bytes();
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

    let nets: Vec<StarNet> = keywords
        .iter()
        .filter_map(|q| first.interpret(q).into_iter().next())
        .map(|r| r.net)
        .take(max_nets)
        .collect();
    assert!(!nets.is_empty(), "workload produced no interpretations");

    let mut p50_ms = Vec::new();
    let mut first_best = Vec::new();
    let mut first = Some(first);
    for &t in threads {
        let kdap = first.take().unwrap_or_else(|| session(t));
        // Warm once: plans, semi-join bitmaps, measure vector, the
        // whole-dataspace groups. Every explore runs governed by the
        // memory budget — a breach aborts the whole experiment, which is
        // exactly the point.
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
        if first_best.is_empty() {
            first_best = best.clone();
        }
        p50_ms.push((t, p50(&mut best)));
    }
    Rung {
        scale,
        facts,
        warehouse_bytes,
        build_ms,
        nets: nets
            .iter()
            .map(|n| net_key(&wh, n))
            .zip(first_best)
            .collect(),
        p50_ms,
    }
}

/// Per-net growth from `first` to `last`: the best-time ratio of every
/// net both rungs explored.
fn net_growths(first: &Rung, last: &Rung) -> Vec<f64> {
    first
        .nets
        .iter()
        .filter_map(|(key, ms)| {
            let (_, last_ms) = last.nets.iter().find(|(k, _)| k == key)?;
            Some(last_ms / ms)
        })
        .collect()
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

    let keywords: Vec<String> =
        generate_workload(&warehouse(ladder[0]), &WorkloadConfig::default())
            .iter()
            .map(|q| q.text())
            .collect();
    let rungs: Vec<Rung> = ladder
        .iter()
        .map(|&s| run_rung(s, &keywords, &threads, repeats, max_nets, budget_bytes))
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
    let mut growths = net_growths(first, last);
    let matched = growths.len();
    let growth = if growths.is_empty() {
        f64::NAN
    } else {
        p50(&mut growths)
    };
    let bound = LINEAR_SLACK * facts_growth;
    let ok = growth < bound;
    println!(
        "\nfacts grew {facts_growth:.1}× · {matched} of {} nets matched ×{} ↔ ×{}, \
         explore time (t={}) grew [{}]× per net, median {growth:.1}× (bound {bound:.1}×)",
        first.nets.len(),
        first.scale,
        last.scale,
        threads[0],
        growths
            .iter()
            .map(|g| format!("{g:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Only a ladder up to the top rung is a full run.
    let smoke = ladder.last() != LADDER.last();
    let json = render_json(
        &rungs,
        &threads,
        repeats,
        budget_bytes,
        matched,
        growth,
        smoke,
    );
    write_bench_json("BENCH_scaling.json", smoke, &json);

    if check {
        assert!(
            ok,
            "median per-net explore time grew {growth:.2}× over {matched} matched nets \
             while facts grew {facts_growth:.2}× — above the {bound:.2}× linear bound"
        );
        println!(
            "\ncheck passed: median per-net growth {growth:.2}× < {bound:.2}× \
             ({LINEAR_SLACK}× the facts growth) and every explore ran inside the \
             {budget_mb} MiB budget"
        );
    }
}

fn render_json(
    rungs: &[Rung],
    threads: &[usize],
    repeats: usize,
    budget_bytes: u64,
    matched: usize,
    growth: f64,
    smoke: bool,
) -> String {
    let facts_growth = rungs[rungs.len() - 1].facts as f64 / rungs[0].facts as f64;
    let bound = LINEAR_SLACK * facts_growth;
    bench_json("E14", smoke, |w| {
        w.key("generator").str("aw_online");
        w.key("budget_bytes").int(budget_bytes);
        w.key("repeats").int(repeats);
        w.key("threads").array(Layout::Inline, |w| {
            for &t in threads {
                w.int(t);
            }
        });
        w.key("scales").array(Layout::Block, |w| {
            for r in rungs {
                w.object(Layout::Inline, |w| {
                    w.key("scale").int(r.scale).key("facts").int(r.facts);
                    w.key("warehouse_bytes").int(r.warehouse_bytes);
                    w.key("build_ms").fixed(r.build_ms, 1);
                    w.key("nets").int(r.nets.len());
                    w.key("p50").array(Layout::Inline, |w| {
                        for &(t, ms) in &r.p50_ms {
                            w.object(Layout::Inline, |w| {
                                w.key("threads").int(t).key("p50_ms").fixed(ms, 3);
                            });
                        }
                    });
                });
            }
        });
        // A NaN growth (no net matched) is written as null.
        w.key("net_growth").object(Layout::Inline, |w| {
            w.key("facts_growth").fixed(facts_growth, 3);
            w.key("nets_matched").int(matched);
            w.key("median").fixed(growth, 3);
            w.key("bound").fixed(bound, 3);
            w.key("ok").bool(growth < bound);
        });
    })
}
