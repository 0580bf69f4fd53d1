//! What a run reports: the fixed metric tables (names, units, direction,
//! regression bounds), the per-run record, the host fingerprint every
//! result file carries, and their JSON forms.

use std::collections::BTreeMap;

use kdap_core::api::json::{self, Json};
use kdap_obs::json_string;

/// The four workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = [
    "serve_mixed_small",
    "explore_scan_large",
    "differentiate_ambiguous",
    "cold_start",
];

/// `--seconds` of a `full` run; must equal `run_seconds` in BENCHMARK.json.
pub const FULL_SECONDS: u64 = 20;

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression.
    pub bound: f64,
    /// Defined (and never zero) on every workload, so it is part of the
    /// `end_to_end` list of BENCHMARK.json; the others are `null` where
    /// the workload has no such operation.
    pub everywhere: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    everywhere: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        everywhere,
    }
}

pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", false, 0.25, true),
    e2e("throughput_rps", "ops/s", true, 0.25, true),
    e2e("latency_p50_ms", "ms", false, 0.25, true),
    e2e("latency_p95_ms", "ms", false, 0.25, true),
    e2e("explore_p50_ms", "ms", false, 0.25, false),
    e2e("explore_p95_ms", "ms", false, 0.25, false),
    e2e("differentiate_p50_ms", "ms", false, 0.25, false),
    e2e("differentiate_p95_ms", "ms", false, 0.25, false),
    e2e("failed_ratio", "ratio", false, 0.0, false),
    e2e("peak_rss_mb", "MB", false, 0.15, true),
    e2e("bytes_per_fact", "B/fact", false, 0.01, true),
    e2e("intended_top5_ratio", "ratio", true, 0.0, false),
];

/// Per-layer metrics of the traced run: `(name, unit, higher_is_better)`.
/// A layer is a module; the name's prefix is the module path.
pub const PER_LAYER: [(&str, &str, bool); 42] = [
    ("server.healthz_rtt_us", "us", false),
    ("server.edge_ms", "ms", false),
    ("server.connects", "count", false),
    ("server.status_4xx", "count", false),
    ("server.status_5xx", "count", false),
    ("server.response_bytes_mean", "B", false),
    ("server.stats_rtt_us", "us", false),
    ("core.api.decode_us", "us", false),
    ("core.api.encode_us", "us", false),
    ("textindex.search_us", "us", false),
    ("textindex.hits_per_keyword", "count", false),
    ("textindex.build_ms", "ms", false),
    ("textindex.bytes", "B", false),
    ("core.interpret.generate_us", "us", false),
    ("core.interpret.candidates_per_query", "count", false),
    ("core.rank.rank_us", "us", false),
    ("core.plan.plan_us", "us", false),
    ("core.plan.semijoin_hit_ratio", "ratio", true),
    ("query.semijoin.materialize_ms", "ms", false),
    ("query.semijoin.rows_out_mean", "count", false),
    ("core.cache.subspace_hit_ratio", "ratio", true),
    ("core.cache.subspace_evictions", "count", false),
    ("query.joinindex.mapper_hit_ratio", "ratio", true),
    ("core.cache.zipf_hit_ratio", "ratio", true),
    ("core.cache.zipf_p50_ms", "ms", false),
    ("core.facet.rest_ms", "ms", false),
    ("profile.multi_group_by_ms", "ms", false),
    ("profile.semijoin_ms", "ms", false),
    ("profile.rollups_ms", "ms", false),
    ("profile.score_ms", "ms", false),
    ("profile.rows_scanned_per_explore", "count", false),
    ("profile.unattributed_ratio", "ratio", false),
    ("warehouse.chunk.decode_mrows_s", "Mrows/s", true),
    ("warehouse.load_ms", "ms", false),
    ("warehouse.save_ms", "ms", false),
    ("datagen.build_ms", "ms", false),
    ("core.session.build_ms", "ms", false),
    ("query.joinindex.build_ms", "ms", false),
    ("core.session.first_explore_ms", "ms", false),
    ("core.session.first_explore_over_warm", "ratio", false),
    ("query.exec.speedup_t2", "ratio", true),
    ("obs.trace_overhead_ratio", "ratio", false),
];

/// One reported number. `value` is `None` when the workload has no such
/// operation or the layer is not on its path; `n` is the sample count
/// behind a timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: Option<f64>,
    pub unit: String,
    pub n: Option<u64>,
}

pub type Metrics = BTreeMap<String, Metric>;

/// One named correctness check and what it saw.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub seconds: u64,
    pub attempted: u64,
    pub failed: u64,
    /// How much slower than the reference host the measured loop ran
    /// (`stats::Gauge`); `None` where the workload is not corrected. An
    /// untraced run's timings are already divided by it; a traced run's
    /// per-layer numbers are plain wall-clock.
    pub host_factor: Option<f64>,
    pub checks: Vec<Check>,
    pub metrics: Metrics,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The last line of a single-workload run, in the shape the
    /// acceptance driver reads: every always-defined end-to-end metric of
    /// an untraced run, every per-layer metric of a traced one. A layer
    /// the workload never enters did no work there and reads 0.
    pub fn contract_line(&self) -> String {
        let names: Vec<(&str, &str)> = if self.trace {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.everywhere)
                .map(|m| (m.name, m.unit))
                .collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).and_then(|m| m.value);
                let value = match value {
                    Some(v) => v,
                    None if self.trace => 0.0,
                    None => panic!("end-to-end metric `{name}` was not measured"),
                };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(Some(value))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn to_json(&self, pad: &str) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{pad}    {{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    json_string(&c.name),
                    c.ok,
                    json_string(&c.detail)
                )
            })
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "{pad}    {}: {{\"value\": {}, \"unit\": {}, \"n\": {}}}",
                    json_string(name),
                    num(m.value),
                    json_string(&m.unit),
                    m.n.map_or("null".to_string(), |n| n.to_string())
                )
            })
            .collect();
        format!(
            "{pad}{{\n{pad}  \"workload\": {},\n{pad}  \"trace\": {},\n{pad}  \"seed\": {},\n\
             {pad}  \"seconds\": {},\n{pad}  \"correct\": {},\n{pad}  \"attempted\": {},\n\
             {pad}  \"failed\": {},\n{pad}  \"host_factor\": {},\n{pad}  \"checks\": [\n{}\n{pad}  ],\n\
             {pad}  \"metrics\": {{\n{}\n{pad}  }}\n{pad}}}",
            json_string(&self.workload),
            self.trace,
            self.seed,
            self.seconds,
            self.correct(),
            self.attempted,
            self.failed,
            num(self.host_factor),
            checks.join(",\n"),
            metrics.join(",\n"),
        )
    }

    pub fn from_json(doc: &Json) -> Result<RunRecord, String> {
        let text = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or(format!("run record lacks string `{key}`"))
        };
        let int = |key: &str| {
            doc.get(key)
                .and_then(Json::as_num)
                .map(|n| n as u64)
                .ok_or(format!("run record lacks number `{key}`"))
        };
        let checks = doc
            .get("checks")
            .and_then(Json::as_arr)
            .ok_or("run record lacks `checks`")?
            .iter()
            .map(|c| Check {
                name: c
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                ok: c.get("ok").and_then(Json::as_bool).unwrap_or(false),
                detail: c
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            })
            .collect();
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run record lacks `metrics`")?
            .iter()
            .map(|(name, m)| {
                let metric = Metric {
                    value: m.get("value").and_then(Json::as_num),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    n: m.get("n").and_then(Json::as_num).map(|n| n as u64),
                };
                (name.clone(), metric)
            })
            .collect();
        Ok(RunRecord {
            workload: text("workload")?,
            trace: doc
                .get("trace")
                .and_then(Json::as_bool)
                .ok_or("run record lacks `trace`")?,
            seed: int("seed")?,
            seconds: int("seconds")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            host_factor: doc.get("host_factor").and_then(Json::as_num),
            checks,
            metrics,
        })
    }
}

/// A number with all its digits, `null` when absent or not finite.
fn num(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

/// Where and how a result was taken. Two results compare only when the
/// `profile` matches; the rest explains differences.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub available_parallelism: usize,
    pub cpu_features: Vec<String>,
    pub kernel_tier: String,
    pub git_sha: String,
    /// `full` (the frozen run length), `smoke`, or `custom-<n>s`.
    pub profile: String,
    pub seed: u64,
    pub client_threads: usize,
    pub engine_threads: String,
    pub utc_date: String,
}

impl Host {
    pub fn detect(profile: String, seed: u64) -> Host {
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or("unknown".to_string(), |s| s.trim().to_string());
        Host {
            available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_features: kdap_core::kernel::detected_features()
                .iter()
                .map(|f| f.to_string())
                .collect(),
            kernel_tier: kdap_core::kernel::active_tier().name().to_string(),
            git_sha,
            profile,
            seed,
            client_threads: crate::workloads::SERVE_CLIENTS,
            engine_threads: format!(
                "1; explore_scan_large {}; server workers 2",
                crate::workloads::explore_threads()
            ),
            utc_date: utc_date(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs()),
            ),
        }
    }

    pub fn to_json(&self) -> String {
        let features: Vec<String> = self.cpu_features.iter().map(|f| json_string(f)).collect();
        format!(
            "{{\"available_parallelism\": {}, \"cpu_features\": [{}], \"kernel_tier\": {}, \
             \"git_sha\": {}, \"profile\": {}, \"seed\": {}, \"client_threads\": {}, \
             \"engine_threads\": {}, \"utc_date\": {}}}",
            self.available_parallelism,
            features.join(", "),
            json_string(&self.kernel_tier),
            json_string(&self.git_sha),
            json_string(&self.profile),
            self.seed,
            self.client_threads,
            json_string(&self.engine_threads),
            json_string(&self.utc_date),
        )
    }
}

/// `YYYY-MM-DD` of a Unix timestamp (proleptic Gregorian, UTC).
fn utc_date(unix_secs: u64) -> String {
    // Howard Hinnant's civil-from-days.
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// A result file: the host fingerprint plus every run of the suite.
pub struct SuiteFile {
    pub profile: String,
    pub host_summary: String,
    pub runs: Vec<RunRecord>,
}

impl SuiteFile {
    pub fn to_json(host: &Host, runs: &[RunRecord]) -> String {
        let runs: Vec<String> = runs.iter().map(|r| r.to_json("    ")).collect();
        format!(
            "{{\n  \"host\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
            host.to_json(),
            runs.join(",\n")
        )
    }

    pub fn parse(text: &str) -> Result<SuiteFile, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let host = doc.get("host").ok_or("result file lacks `host`")?;
        let profile = host
            .get("profile")
            .and_then(Json::as_str)
            .ok_or("host lacks `profile`")?
            .to_string();
        let describe = |key: &str| match host.get(key) {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(n)) => n.to_string(),
            _ => "?".to_string(),
        };
        let host_summary = format!(
            "sha {} · {} · {} cores · {} · seed {}",
            describe("git_sha"),
            describe("utc_date"),
            describe("available_parallelism"),
            describe("kernel_tier"),
            describe("seed"),
        );
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("result file lacks `runs`")?
            .iter()
            .map(RunRecord::from_json)
            .collect::<Result<_, _>>()?;
        Ok(SuiteFile {
            profile,
            host_summary,
            runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(trace: bool) -> RunRecord {
        let mut metrics = Metrics::new();
        let names: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (i, (name, unit)) in names.into_iter().enumerate() {
            let absent = name == "explore_p50_ms" || name == "server.edge_ms";
            metrics.insert(
                name.to_string(),
                Metric {
                    value: (!absent).then_some(1.5 + i as f64),
                    unit: unit.to_string(),
                    n: (i % 2 == 0).then_some(200),
                },
            );
        }
        RunRecord {
            workload: "cold_start".into(),
            trace,
            seed: 42,
            seconds: 15,
            attempted: 300,
            failed: 0,
            host_factor: Some(1.25),
            checks: vec![Check {
                name: "fact_rows".into(),
                ok: true,
                detail: "20160 \"rows\"".into(),
            }],
            metrics,
        }
    }

    #[test]
    fn run_record_round_trips_through_json() {
        for trace in [false, true] {
            let rec = sample(trace);
            let doc = json::parse(&rec.to_json("")).expect("valid JSON");
            assert_eq!(RunRecord::from_json(&doc).unwrap(), rec);
        }
    }

    #[test]
    fn contract_line_has_exactly_the_driver_keys() {
        let doc = json::parse(&sample(false).contract_line()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "throughput_rps",
                "latency_p50_ms",
                "latency_p95_ms",
                "peak_rss_mb",
                "bytes_per_fact"
            ]
        );
        // A traced run lists every per-layer metric; a layer off the path reads 0.
        let doc = json::parse(&sample(true).contract_line()).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.as_obj().unwrap().len(), PER_LAYER.len());
        let edge = metrics.get("server.edge_ms").unwrap();
        assert_eq!(edge.get("value").and_then(Json::as_num), Some(0.0));
    }

    #[test]
    fn failed_checks_and_failed_ops_make_a_run_incorrect() {
        let mut rec = sample(false);
        assert!(rec.correct());
        rec.failed = 1;
        assert!(!rec.correct());
        rec.failed = 0;
        rec.checks[0].ok = false;
        assert!(!rec.correct());
    }

    #[test]
    fn utc_date_handles_epoch_leap_day_and_year_end() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_798_761_599), "2026-12-31");
    }

    /// BENCHMARK.json is the contract the acceptance driver reads; the
    /// tables above are what the binary prints. They must not drift.
    #[test]
    fn benchmark_json_agrees_with_the_metric_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_num),
            Some(FULL_SECONDS as f64)
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let declared = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        let ours: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.everywhere).collect();
        assert_eq!(declared.len(), ours.len());
        for (d, m) in declared.iter().zip(ours) {
            assert_eq!(d.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(d.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                d.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                m.name
            );
            assert_eq!(
                d.get("bound").and_then(Json::as_num),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let declared = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(declared.len(), PER_LAYER.len());
        for (d, &(name, unit, higher)) in declared.iter().zip(PER_LAYER.iter()) {
            assert_eq!(d.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(d.get("unit").and_then(Json::as_str), Some(unit));
            let better = if higher { "higher" } else { "lower" };
            assert_eq!(
                d.get("better").and_then(Json::as_str),
                Some(better),
                "{name}"
            );
        }
    }
}
