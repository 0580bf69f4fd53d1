//! `kdap_bench` — the one end-to-end + per-layer benchmark of KDAP.
//!
//! ```text
//! kdap_bench [--seed N] [--seconds S | --smoke] [--runs R] [--trace 0]
//!     the suite: every workload in a child process of this binary,
//!     untraced (end-to-end metrics) and then, unless `--trace 0`, traced
//!     (per-layer metrics); writes
//!     target/kdap_bench/result_<profile>_seed<N>.json
//! kdap_bench --workload W --seed N --seconds S --trace 0|1 [--out F]
//!     one run of one workload in this process; the last line of its
//!     standard output is the JSON object BENCHMARK.json's driver reads
//! kdap_bench compare A.json B.json
//!     one row per (metric, workload); exits nonzero on a regression
//! ```
//!
//! See README.md next to this file for the workloads, the metric ↔ layer
//! table and the noise study.

mod compare;
mod http;
mod layers;
mod record;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use record::{
    Host, Metric, Metrics, RunRecord, SuiteFile, END_TO_END, FULL_SECONDS, PER_LAYER, WORKLOADS,
};
use stats::{has_tail, median, percentile, GAUGE_REFERENCE_NS};
use workloads::{Outcome, RunConfig};

/// Where results, traces and scratch data go — never `results/`.
const OUT_DIR: &str = "target/kdap_bench";
/// Spans written to a trace file (≈ 8 MB); a traced
/// `differentiate_ambiguous` run records six times as many.
const TRACE_FILE_SPANS: usize = 50_000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    smoke: bool,
    trace: Option<bool>,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: FULL_SECONDS,
        smoke: false,
        trace: None,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("`{flag}` needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?.max(1),
            "--runs" => parsed.runs = number(value()?)?.max(1) as usize,
            "--trace" => parsed.trace = Some(number(value()?)? != 0),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            other => {
                return Err(format!(
                    "unknown argument `{other}` (see the head of main.rs)"
                ))
            }
        }
    }
    if parsed.smoke {
        parsed.seconds = 1;
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err("usage: kdap_bench compare A.json B.json".to_string()),
        },
        _ => parse_args(&args).and_then(|parsed| match &parsed.workload {
            Some(workload) => run_one(workload, &parsed),
            None => run_suite(&parsed),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("kdap_bench: {message}");
            ExitCode::from(2)
        }
    }
}

// ------------------------------------------------------------ one run

/// Runs one workload in this process and prints its metrics; the last
/// line is the driver's JSON object. `Ok(false)` when a check failed.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.unwrap_or(false),
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let outcome = workloads::run(workload, &cfg).ok_or_else(|| {
        format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        )
    })?;
    if cfg.trace {
        // Metrics use every span; the file keeps the first TRACE_FILE_SPANS.
        let path = format!("{OUT_DIR}/trace_{workload}.json");
        std::fs::write(&path, trace::chrome_trace(&outcome.spans, TRACE_FILE_SPANS))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "trace: first {} of {} spans -> {path}",
            outcome.spans.len().min(TRACE_FILE_SPANS),
            outcome.spans.len()
        );
    }
    let record = to_record(workload, &cfg, outcome);
    let host = Host::detect(profile_name(args), args.seed);
    println!("host: {}", host.to_json());
    print_run(&record);
    if let Some(out) = &args.out {
        std::fs::write(out, record.to_json(""))
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }
    println!("{}", record.contract_line());
    Ok(record.correct())
}

fn profile_name(args: &Args) -> String {
    if args.smoke {
        "smoke".to_string()
    } else if args.seconds == FULL_SECONDS {
        "full".to_string()
    } else {
        format!("custom-{}s", args.seconds)
    }
}

/// Turns a workload's raw outcome into named metrics.
fn to_record(workload: &str, cfg: &RunConfig, outcome: Outcome) -> RunRecord {
    let metrics = if cfg.trace {
        let mut metrics = layers::metrics_from(&outcome.spans, &outcome.counts);
        metrics.extend(outcome.layer);
        for (name, unit, _) in PER_LAYER {
            metrics.entry(name.to_string()).or_insert(Metric {
                value: None,
                unit: unit.to_string(),
                n: None,
            });
        }
        metrics
    } else {
        end_to_end_metrics(&outcome)
    };
    RunRecord {
        workload: workload.to_string(),
        trace: cfg.trace,
        seed: cfg.seed,
        seconds: cfg.seconds,
        attempted: outcome.attempted,
        failed: outcome.failed,
        host_factor: outcome.host_factor,
        checks: outcome.checks,
        metrics,
    }
}

/// The twelve end-to-end metrics of an untraced run, in table order.
/// Where the run has a host factor, the outcome's timings are already at
/// the reference host speed (see `stats::Gauge`).
fn end_to_end_metrics(outcome: &Outcome) -> Metrics {
    // Median, p95 and count of the samples of one kind (`None`: all).
    let timing = |kind: Option<&str>| {
        let mut v: Vec<f64> = outcome
            .samples
            .iter()
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .map(|s| s.latency_ms)
            .collect();
        v.sort_by(f64::total_cmp);
        let of = |p| (!v.is_empty()).then(|| percentile(&v, p));
        (of(0.50), of(0.95), Some(v.len() as u64))
    };
    let (p50, p95, n) = timing(None);
    let (explore_p50, explore_p95, explore_n) = timing(Some("explore"));
    let (differentiate_p50, differentiate_p95, differentiate_n) = timing(Some("differentiate"));
    let values: [(Option<f64>, Option<u64>); 12] = [
        (median(&outcome.setup_s), Some(outcome.setup_s.len() as u64)),
        (Some(outcome.samples.len() as f64 / outcome.wall_s), n),
        (p50, n),
        (p95, n),
        (explore_p50, explore_n),
        (explore_p95, explore_n),
        (differentiate_p50, differentiate_n),
        (differentiate_p95, differentiate_n),
        (
            Some(outcome.failed as f64 / outcome.attempted.max(1) as f64),
            Some(outcome.attempted),
        ),
        (Some(outcome.peak_rss_mb), None),
        (
            Some(outcome.approx_bytes as f64 / outcome.fact_rows as f64),
            None,
        ),
        (outcome.intended_top5_ratio, None),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, (value, n))| {
            let metric = Metric {
                value,
                unit: spec.unit.to_string(),
                n,
            };
            (spec.name.to_string(), metric)
        })
        .collect()
}

/// A p95 over fewer than 200 samples has fewer than ten samples beyond it.
/// It is still reported, because the driver's line needs a number, but
/// `print_run` and the suite table mark it.
fn thin_tail(name: &str, metric: &Metric) -> bool {
    name.ends_with("_p95_ms")
        && metric.value.is_some()
        && !metric.n.is_some_and(|n| has_tail(n as usize, 0.95))
}

fn print_run(record: &RunRecord) {
    println!(
        "workload {} · {} · seed {} · {} s · {} ops attempted, {} failed",
        record.workload,
        if record.trace { "traced" } else { "untraced" },
        record.seed,
        record.seconds,
        record.attempted,
        record.failed
    );
    match record.host_factor {
        Some(factor) => println!(
            "  host factor {factor:.3}: the gauge took {:.3} ms against a reference of {:.1} ms{}",
            factor * GAUGE_REFERENCE_NS / 1e6,
            GAUGE_REFERENCE_NS / 1e6,
            if record.trace {
                "; per-layer timings below are plain wall-clock"
            } else {
                "; timings below are at the reference host speed"
            }
        ),
        None => println!("  host factor: not applied, timings below are plain wall-clock"),
    }
    for check in &record.checks {
        println!(
            "  check {:<34} {}  ({})",
            check.name,
            if check.ok { "ok" } else { "FAILED" },
            check.detail
        );
    }
    let names: Vec<&str> = if record.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in names {
        let metric = &record.metrics[name];
        let value = metric
            .value
            .map_or("null".to_string(), |v| format!("{v:.4}"));
        let n = metric.n.map_or(String::new(), |n| format!("  n={n}"));
        let flag = if thin_tail(name, metric) {
            "  (fewer than 10 samples beyond)"
        } else {
            ""
        };
        println!("  {name:<40} {value:>14} {:<8}{n}{flag}", metric.unit);
    }
}

// -------------------------------------------------------------- suite

/// Runs every workload in child processes of this binary — so each has
/// its own `setup_s` and `peak_rss_mb` — untraced `--runs` times with
/// consecutive seeds, then traced once, and writes the result file.
fn run_suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let profile = profile_name(args);
    let host = Host::detect(profile.clone(), args.seed);
    let scratch = PathBuf::from(format!("{OUT_DIR}/suite_{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    println!(
        "kdap_bench suite · profile {profile} · host {}",
        host.to_json()
    );

    let mut runs: Vec<RunRecord> = Vec::new();
    let mut all_ok = true;
    let traces: &[bool] = if args.trace == Some(false) {
        &[false]
    } else {
        &[false, true]
    };
    for &traced in traces {
        for workload in WORKLOADS {
            for run in 0..if traced { 1 } else { args.runs } {
                let seed = args.seed + run as u64;
                let out = scratch.join(format!("{workload}_{}_{run}.json", u8::from(traced)));
                eprintln!(
                    "[suite] {workload} trace={} seed={seed} …",
                    u8::from(traced)
                );
                let output = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }, "--out"])
                    .arg(&out)
                    .output()
                    .map_err(|e| format!("cannot start child: {e}"))?;
                let text = std::fs::read_to_string(&out).map_err(|_| {
                    format!(
                        "{workload} (trace={traced}) wrote no record; exit {:?}\n{}",
                        output.status.code(),
                        String::from_utf8_lossy(&output.stderr)
                    )
                })?;
                let doc = kdap_core::api::json::parse(&text).map_err(|e| e.to_string())?;
                let record = RunRecord::from_json(&doc)?;
                all_ok &= record.correct() && output.status.success();
                print_run(&record);
                runs.push(record);
            }
        }
    }
    std::fs::remove_dir_all(&scratch).ok();

    print_suite_table(&runs);
    let path = format!("{OUT_DIR}/result_{profile}_seed{}.json", args.seed);
    std::fs::write(&path, SuiteFile::to_json(&host, &runs))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("\nresult file: {path}");
    println!(
        "correctness: {}",
        if all_ok {
            "all checks green, no failed operation"
        } else {
            "FAILED (see the checks above)"
        }
    );
    Ok(all_ok)
}

/// One row per metric, one column per workload: the median over the
/// suite's runs, `null` where the workload has no such operation.
fn print_suite_table(runs: &[RunRecord]) {
    for traced in [false, true] {
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        if !runs.iter().any(|r| r.trace == traced) {
            continue;
        }
        println!(
            "\n{} (median over runs; n = samples of the last run)",
            if traced {
                "per-layer, traced run"
            } else {
                "end-to-end, untraced runs"
            }
        );
        println!(
            "{:<38} {:<8} {}",
            "metric",
            "unit",
            WORKLOADS.map(|w| format!("{w:>26}")).join("")
        );
        for (name, unit) in names {
            let cells = WORKLOADS.map(|workload| {
                let of: Vec<&Metric> = runs
                    .iter()
                    .filter(|r| r.trace == traced && r.workload == workload)
                    .filter_map(|r| r.metrics.get(name))
                    .collect();
                let values: Vec<f64> = of.iter().filter_map(|m| m.value).collect();
                match (median(&values), of.last()) {
                    (Some(v), Some(last)) => {
                        let n = last.n.map_or(String::new(), |n| format!(" n={n}"));
                        let flag = if thin_tail(name, last) { "!" } else { "" };
                        format!("{:>26}", format!("{v:.4}{flag}{n}"))
                    }
                    _ => format!("{:>26}", "null"),
                }
            });
            println!("{name:<38} {unit:<8} {}", cells.join(""));
        }
    }
}
