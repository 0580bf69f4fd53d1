//! Telemetry exporters: Prometheus text exposition for metrics, Chrome
//! trace-event JSON (Perfetto-loadable) for [`QueryProfile`] trees, and
//! the JSON snapshot encoding the server's `/stats` endpoint and
//! `kdap stats --json` both use.
//!
//! Everything here renders from live instruments — the exposition builder
//! reads raw histogram buckets (not the summary percentiles), so the
//! log2 buckets export as native Prometheus histogram series with
//! cumulative `le` bounds.

use std::collections::BTreeMap;

use crate::json::{JsonWriter, Layout};
use crate::metrics::MetricsSnapshot;
use crate::profile::{ProfileNode, QueryProfile};
use crate::recorder::Obs;

/// The `Content-Type` of the Prometheus text exposition format.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One histogram's raw export state: non-cumulative log2 buckets plus
/// exact sum and count.
#[derive(Debug, Clone)]
struct HistSample {
    buckets: Vec<(u64, u64)>,
    sum: u64,
    count: u64,
}

/// One metric family's samples, keyed by tenant label.
#[derive(Debug)]
enum Family {
    Counter(Vec<(String, u64)>),
    Gauge(Vec<(String, i64)>),
    Histogram(Vec<(String, HistSample)>),
}

impl Family {
    fn kind(&self) -> &'static str {
        match self {
            Family::Counter(_) => "counter",
            Family::Gauge(_) => "gauge",
            Family::Histogram(_) => "histogram",
        }
    }
}

/// Builds a Prometheus text exposition (format version 0.0.4) across any
/// number of tenants. Every sample carries a `tenant` label; counters,
/// gauges and log2 histograms render as their native Prometheus types.
///
/// ```
/// use kdap_obs::{Obs, PrometheusExport};
///
/// let obs = Obs::enabled();
/// obs.inc("http.requests", 3);
/// obs.record_ns("http.explore.latency_ns", 1500);
/// let mut exp = PrometheusExport::new();
/// exp.add_obs("sales", &obs);
/// let text = exp.render();
/// assert!(text.contains("kdap_http_requests{tenant=\"sales\"} 3"));
/// assert!(kdap_obs::lint_exposition(&text).is_ok());
/// ```
#[derive(Debug, Default)]
pub struct PrometheusExport {
    /// Sanitized family name → (original instrument name, samples).
    families: BTreeMap<String, (String, Family)>,
}

impl PrometheusExport {
    /// An empty exposition.
    pub fn new() -> Self {
        PrometheusExport::default()
    }

    /// Adds every instrument of `obs` under the given tenant label.
    /// Call repeatedly to merge several recorders (e.g. a tenant's HTTP
    /// metrics and its engine metrics) into one exposition; instrument
    /// names are expected to be disjoint across recorders of one tenant.
    pub fn add_obs(&mut self, tenant: &str, obs: &Obs) {
        let snap = obs.metrics_snapshot();
        for (name, v) in &snap.counters {
            if let Family::Counter(samples) = self.family(name, || Family::Counter(Vec::new())) {
                samples.push((tenant.to_string(), *v));
            }
        }
        for (name, v) in &snap.gauges {
            if let Family::Gauge(samples) = self.family(name, || Family::Gauge(Vec::new())) {
                samples.push((tenant.to_string(), *v));
            }
        }
        for (name, h) in obs.histogram_entries() {
            let sample = HistSample {
                buckets: h.nonzero_buckets(),
                sum: h.sum(),
                count: h.count(),
            };
            if let Family::Histogram(samples) = self.family(&name, || Family::Histogram(Vec::new()))
            {
                samples.push((tenant.to_string(), sample));
            }
        }
    }

    /// The family for `raw` name, created with `make` on first use. A
    /// kind collision (the same name used as two instrument types by
    /// different recorders) keeps the first kind; the mismatched sample
    /// is dropped rather than corrupting the exposition.
    fn family(&mut self, raw: &str, make: impl FnOnce() -> Family) -> &mut Family {
        let key = metric_name(raw);
        &mut self
            .families
            .entry(key)
            .or_insert_with(|| (raw.to_string(), make()))
            .1
    }

    /// Renders the exposition: `# HELP` and `# TYPE` lines per family,
    /// then one sample line per tenant (histograms expand to cumulative
    /// `_bucket` series plus `_sum` and `_count`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, (raw, family)) in &self.families {
            out.push_str(&format!(
                "# HELP {name} KDAP {} `{}`\n",
                family.kind(),
                help_escape(raw)
            ));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind()));
            match family {
                Family::Counter(samples) => {
                    for (tenant, v) in samples {
                        out.push_str(&format!(
                            "{name}{{tenant=\"{}\"}} {v}\n",
                            label_escape(tenant)
                        ));
                    }
                }
                Family::Gauge(samples) => {
                    for (tenant, v) in samples {
                        out.push_str(&format!(
                            "{name}{{tenant=\"{}\"}} {v}\n",
                            label_escape(tenant)
                        ));
                    }
                }
                Family::Histogram(samples) => {
                    for (tenant, h) in samples {
                        let t = label_escape(tenant);
                        let mut cum = 0u64;
                        for &(upper, count) in &h.buckets {
                            cum += count;
                            // The top log2 bucket's bound is u64::MAX;
                            // that is what `+Inf` is for.
                            if upper == u64::MAX {
                                continue;
                            }
                            out.push_str(&format!(
                                "{name}_bucket{{tenant=\"{t}\",le=\"{upper}\"}} {cum}\n"
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{{tenant=\"{t}\",le=\"+Inf\"}} {}\n",
                            h.count
                        ));
                        out.push_str(&format!("{name}_sum{{tenant=\"{t}\"}} {}\n", h.sum));
                        out.push_str(&format!("{name}_count{{tenant=\"{t}\"}} {}\n", h.count));
                    }
                }
            }
        }
        out
    }
}

/// Maps an instrument name onto a valid Prometheus metric name:
/// `kdap_` prefix, every character outside `[A-Za-z0-9_:]` becomes `_`.
fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 5);
    out.push_str("kdap_");
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format: `\`, `"`, newline.
fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text: `\` and newline.
fn help_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Lints a Prometheus text exposition: every sample's family must have
/// `# HELP` and `# TYPE` lines (HELP first), metric names and label
/// syntax must be well-formed, label values must close their quotes, and
/// sample values must parse as numbers. Returns the number of sample
/// lines on success; the first violation (with its line number) on
/// failure. This is the checker CI runs against a live `/metrics`
/// scrape.
pub fn lint_exposition(text: &str) -> Result<usize, String> {
    let mut helped: BTreeMap<String, ()> = BTreeMap::new();
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("HELP"), Some(name), Some(_)) => {
                    if !valid_metric_name(name) {
                        return Err(format!("line {lineno}: bad metric name in HELP: `{name}`"));
                    }
                    helped.insert(name.to_string(), ());
                }
                (Some("TYPE"), Some(name), Some(kind)) => {
                    if !valid_metric_name(name) {
                        return Err(format!("line {lineno}: bad metric name in TYPE: `{name}`"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {lineno}: unknown TYPE kind `{kind}`"));
                    }
                    if !helped.contains_key(name) {
                        return Err(format!("line {lineno}: TYPE for `{name}` without HELP"));
                    }
                    if typed.insert(name.to_string(), kind.to_string()).is_some() {
                        return Err(format!("line {lineno}: duplicate TYPE for `{name}`"));
                    }
                }
                _ => return Err(format!("line {lineno}: malformed comment line `{line}`")),
            }
            continue;
        }
        // A sample line: name[{labels}] value.
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample has no value: `{line}`"))?;
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(format!("line {lineno}: bad sample value `{value}`"));
        }
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels, None),
            Some((n, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                (n, Some(body))
            }
        };
        if !valid_metric_name(name) {
            return Err(format!("line {lineno}: bad metric name `{name}`"));
        }
        let labels = match labels {
            Some(body) => {
                parse_labels(body).map_err(|e| format!("line {lineno}: {e}: `{line}`"))?
            }
            None => Vec::new(),
        };
        // Resolve the family: histogram series carry suffixes.
        let family = [
            name,
            name.strip_suffix("_bucket").unwrap_or(name),
            name.strip_suffix("_sum").unwrap_or(name),
            name.strip_suffix("_count").unwrap_or(name),
        ]
        .into_iter()
        .find(|candidate| typed.contains_key(*candidate))
        .ok_or_else(|| format!("line {lineno}: sample `{name}` has no TYPE declaration"))?;
        if typed.get(family).map(String::as_str) == Some("histogram")
            && name.ends_with("_bucket")
            && !labels.iter().any(|(k, _)| k == "le")
        {
            return Err(format!(
                "line {lineno}: histogram bucket without `le` label"
            ));
        }
        samples += 1;
    }
    Ok(samples)
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*`
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses `key="value",key="value"` with exposition-format escapes.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let bytes = body.as_bytes();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let key_start = pos;
        while pos < bytes.len() && bytes[pos] != b'=' {
            pos += 1;
        }
        let key = &body[key_start..pos];
        if key.is_empty() || !valid_metric_name(key) {
            return Err(format!("bad label name `{key}`"));
        }
        if pos >= bytes.len() || bytes[pos] != b'=' {
            return Err("label without `=`".to_string());
        }
        pos += 1;
        if pos >= bytes.len() || bytes[pos] != b'"' {
            return Err("label value must be quoted".to_string());
        }
        pos += 1;
        let mut value = String::new();
        loop {
            match bytes.get(pos) {
                None => return Err("unterminated label value".to_string()),
                Some(b'"') => {
                    pos += 1;
                    break;
                }
                Some(b'\\') => {
                    match bytes.get(pos + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err("bad escape in label value".to_string()),
                    }
                    pos += 2;
                }
                Some(_) => {
                    // Step one UTF-8 scalar.
                    let start = pos;
                    pos += 1;
                    while bytes.get(pos).is_some_and(|b| (*b & 0xC0) == 0x80) {
                        pos += 1;
                    }
                    value.push_str(&body[start..pos]);
                }
            }
        }
        out.push((key.to_string(), value));
        match bytes.get(pos) {
            None => break,
            Some(b',') => pos += 1,
            Some(_) => return Err("expected `,` between labels".to_string()),
        }
    }
    Ok(out)
}

impl MetricsSnapshot {
    /// Writes the snapshot as `{"counters": …, "gauges": …,
    /// "histograms": …}` — the one encoding behind
    /// `GET /v1/{tenant}/stats` and `kdap stats --json`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(Layout::Block, |w| {
            w.key("counters").object(Layout::Block, |w| {
                for (name, v) in &self.counters {
                    w.key(name).int(*v);
                }
            });
            w.key("gauges").object(Layout::Block, |w| {
                for (name, v) in &self.gauges {
                    w.key(name).int(*v);
                }
            });
            w.key("histograms").object(Layout::Block, |w| {
                for (name, h) in &self.histograms {
                    w.key(name).object(Layout::Inline, |w| {
                        w.key("count").int(h.count).key("sum").int(h.sum);
                        w.key("min").int(h.min).key("max").int(h.max);
                        w.key("p50").int(h.p50).key("p95").int(h.p95);
                        w.key("p99").int(h.p99);
                    });
                }
            });
        });
    }
}

/// Serializes a [`QueryProfile`] tree as Chrome trace-event JSON — the
/// format Perfetto and `chrome://tracing` load directly. Every stage
/// becomes one complete (`"ph": "X"`) event; children are laid out
/// inside their parent's interval in execution order, so the flame chart
/// mirrors the profile tree. Timestamps are microseconds.
pub fn chrome_trace(profile: &QueryProfile) -> String {
    let mut out = String::new();
    JsonWriter::new(&mut out).object(Layout::Block, |w| {
        w.key("displayTimeUnit").str("ms");
        w.key("otherData").object(Layout::Inline, |w| {
            w.key("label").str(&profile.label).key("trace_id");
            match &profile.trace_id {
                Some(id) => w.str(id),
                None => w.null(),
            };
            w.key("total_ns").int(profile.total_ns());
        });
        w.key("traceEvents").array(Layout::Block, |w| {
            let mut cursor = 0u64;
            for root in &profile.roots {
                trace_events(w, root, cursor);
                cursor += root.wall_ns;
            }
        });
    });
    out.push('\n');
    out
}

fn trace_events(w: &mut JsonWriter, node: &ProfileNode, start_ns: u64) {
    w.object(Layout::Inline, |w| {
        w.key("name")
            .str(&node.name)
            .key("cat")
            .str("kdap")
            .key("ph")
            .str("X");
        w.key("ts").fixed(start_ns as f64 / 1e3, 3);
        w.key("dur").fixed(node.wall_ns as f64 / 1e3, 3);
        w.key("pid").int(1u64).key("tid").int(1u64);
        w.key("args").object(Layout::Inline, |w| {
            w.key("wall_ns").int(node.wall_ns);
            if let Some(r) = node.rows_in {
                w.key("rows_in").int(r);
            }
            if let Some(r) = node.rows_out {
                w.key("rows_out").int(r);
            }
            if let Some(c) = node.cache {
                w.key("cache").str(c.as_str());
            }
            for (k, v) in &node.notes {
                w.key(k).str(v);
            }
        });
    });
    let mut cursor = start_ns;
    for child in &node.children {
        trace_events(w, child, cursor);
        cursor += child.wall_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CacheOutcome;

    fn two_tenant_exposition() -> String {
        let a = Obs::enabled();
        a.inc("http.requests", 3);
        a.inc("governor.timeouts", 1);
        a.gauge("inflight", 2);
        a.record_ns("http.explore.latency_ns", 900);
        a.record_ns("http.explore.latency_ns", 1500);
        let b = Obs::enabled();
        b.inc("http.requests", 7);
        let mut exp = PrometheusExport::new();
        exp.add_obs("aw \"prod\"", &a);
        exp.add_obs("ebiz", &b);
        exp.render()
    }

    #[test]
    fn render_carries_native_types_and_tenant_labels() {
        let text = two_tenant_exposition();
        assert!(text.contains("# TYPE kdap_http_requests counter"), "{text}");
        assert!(text.contains("# TYPE kdap_inflight gauge"), "{text}");
        assert!(
            text.contains("# TYPE kdap_http_explore_latency_ns histogram"),
            "{text}"
        );
        assert!(
            text.contains("kdap_http_requests{tenant=\"aw \\\"prod\\\"\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("kdap_http_requests{tenant=\"ebiz\"} 7"),
            "{text}"
        );
        // 900 ns lands in the 512..1023 bucket, 1500 in 1024..2047;
        // cumulative counts are 1 then 2.
        assert!(
            text.contains(
                "kdap_http_explore_latency_ns_bucket{tenant=\"aw \\\"prod\\\"\",le=\"1023\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "kdap_http_explore_latency_ns_bucket{tenant=\"aw \\\"prod\\\"\",le=\"2047\"} 2"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "kdap_http_explore_latency_ns_bucket{tenant=\"aw \\\"prod\\\"\",le=\"+Inf\"} 2"
            ),
            "{text}"
        );
        assert!(
            text.contains("kdap_http_explore_latency_ns_sum{tenant=\"aw \\\"prod\\\"\"} 2400"),
            "{text}"
        );
        assert!(
            text.contains("kdap_http_explore_latency_ns_count{tenant=\"aw \\\"prod\\\"\"} 2"),
            "{text}"
        );
        // Every sample line carries a tenant label.
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            assert!(line.contains("tenant=\""), "unlabelled sample: {line}");
        }
    }

    #[test]
    fn render_passes_the_linter() {
        let text = two_tenant_exposition();
        let n = lint_exposition(&text).expect("lint-clean exposition");
        assert!(n >= 8, "expected at least 8 samples, got {n}");
    }

    #[test]
    fn linter_rejects_violations() {
        for (bad, needle) in [
            ("kdap_x 1\n", "no TYPE"),
            ("# TYPE kdap_x counter\nkdap_x 1\n", "without HELP"),
            (
                "# HELP kdap_x h\n# TYPE kdap_x widget\n",
                "unknown TYPE kind",
            ),
            (
                "# HELP kdap_x h\n# TYPE kdap_x counter\nkdap_x{tenant=ebiz} 1\n",
                "quoted",
            ),
            (
                "# HELP kdap_x h\n# TYPE kdap_x counter\nkdap_x{tenant=\"e} 1\n",
                "unterminated",
            ),
            (
                "# HELP kdap_x h\n# TYPE kdap_x counter\nkdap_x notanumber\n",
                "bad sample value",
            ),
            (
                "# HELP kdap_x h\n# TYPE kdap_x histogram\nkdap_x_bucket{tenant=\"e\"} 1\n",
                "`le`",
            ),
            ("# HELP 9bad h\n", "bad metric name"),
        ] {
            let err = lint_exposition(bad).expect_err(bad);
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(
            metric_name("http.explore.latency_ns"),
            "kdap_http_explore_latency_ns"
        );
        assert_eq!(metric_name("weird name!"), "kdap_weird_name_");
    }

    #[test]
    fn disabled_obs_contributes_nothing() {
        let mut exp = PrometheusExport::new();
        exp.add_obs("t", &Obs::disabled());
        assert!(exp.render().is_empty());
    }

    #[test]
    fn snapshot_json_is_balanced() {
        let obs = Obs::enabled();
        obs.inc("c", 2);
        obs.gauge("g", -1);
        obs.record_ns("h", 100);
        let mut out = String::new();
        obs.metrics_snapshot()
            .write_json(&mut JsonWriter::new(&mut out));
        assert!(out.contains("\"c\": 2"), "{out}");
        assert!(out.contains("\"g\": -1"), "{out}");
        assert!(out.contains("\"count\": 1"), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count(), "{out}");
    }

    fn sample_profile() -> QueryProfile {
        let mut root = ProfileNode::new("differentiate");
        root.wall_ns = 3_000;
        let mut child = ProfileNode::new("textindex.search");
        child.wall_ns = 1_000;
        child.rows_out = Some(12);
        child.cache = Some(CacheOutcome::Miss);
        child.notes.push(("terms".into(), "2".into()));
        root.children.push(child);
        let mut explore = ProfileNode::new("explore");
        explore.wall_ns = 7_000;
        QueryProfile {
            label: "columbus lcd".into(),
            trace_id: Some("deadbeef".into()),
            roots: vec![root, explore],
        }
    }

    #[test]
    fn chrome_trace_has_complete_events_with_nested_layout() {
        let out = chrome_trace(&sample_profile());
        assert!(out.contains("\"traceEvents\": ["), "{out}");
        assert!(out.contains("\"ph\": \"X\""), "{out}");
        assert!(out.contains("\"trace_id\": \"deadbeef\""), "{out}");
        // Root at ts 0 lasting 3 µs; its child starts inside it; the
        // second root starts where the first ended.
        assert!(
            out.contains("\"name\": \"differentiate\", \"cat\": \"kdap\", \"ph\": \"X\", \"ts\": 0.000, \"dur\": 3.000"),
            "{out}"
        );
        assert!(
            out.contains("\"name\": \"textindex.search\", \"cat\": \"kdap\", \"ph\": \"X\", \"ts\": 0.000, \"dur\": 1.000"),
            "{out}"
        );
        assert!(
            out.contains("\"name\": \"explore\", \"cat\": \"kdap\", \"ph\": \"X\", \"ts\": 3.000, \"dur\": 7.000"),
            "{out}"
        );
        assert!(out.contains("\"rows_out\": 12"), "{out}");
        assert!(out.contains("\"cache\": \"miss\""), "{out}");
        assert!(out.contains("\"terms\": \"2\""), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count(), "{out}");
        assert_eq!(out.matches('[').count(), out.matches(']').count(), "{out}");
    }

    #[test]
    fn chrome_trace_of_empty_profile_is_well_formed() {
        let out = chrome_trace(&QueryProfile::empty("nothing"));
        assert!(out.contains("\"trace_id\": null"), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count(), "{out}");
    }
}
