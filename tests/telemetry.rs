//! End-to-end telemetry tests over a real socket: trace-id propagation
//! (header → response echo → profile body → access log → slow ledger),
//! the Prometheus `/metrics` exposition, Chrome-trace profile export,
//! the slow-query ledger endpoint, and the enriched health check.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use kdap_suite::core::api::json;
use kdap_suite::core::Kdap;
use kdap_suite::datagen::{build_ebiz, EbizScale};
use kdap_suite::obs::lint_exposition;
use kdap_suite::server::{EngineRegistry, KdapServer, ServerConfig};

fn engine(seed: u64) -> Kdap {
    Kdap::builder(build_ebiz(EbizScale::small(), seed).unwrap())
        .cache_capacity(16)
        .observability(true)
        .build()
        .unwrap()
}

/// Two-tenant server on an ephemeral port, optionally with a JSONL
/// access log.
fn start(log: Option<String>) -> KdapServer {
    let registry = EngineRegistry::new()
        .with("ebiz", Arc::new(engine(7)))
        .with("ebiz-alt", Arc::new(engine(11)));
    let config = ServerConfig {
        port: 0,
        workers: 4,
        log,
        ..ServerConfig::default()
    };
    KdapServer::start(registry, &config).expect("ephemeral bind")
}

/// Minimal HTTP/1.1 client returning `(status, raw head, body)` — the
/// raw head so tests can assert response headers like the trace echo.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: kdap\r\nConnection: close\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(req.as_bytes()).expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("recv");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

/// The value of a response header, case-insensitive on the name.
fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|l| {
        let (n, v) = l.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
    })
}

#[test]
fn client_trace_id_flows_through_response_profile_log_and_ledger() {
    let log_path = std::env::temp_dir().join(format!(
        "kdap-telemetry-access-{}.jsonl",
        std::process::id()
    ));
    let server = start(Some(log_path.to_string_lossy().into_owned()));
    let addr = server.addr();
    let trace = "deadbeefcafe0042";

    // A profiled query with a client-supplied trace id: the id must come
    // back in the response header AND inside the profile JSON.
    let (status, head, body) = http(
        addr,
        "POST",
        "/v1/ebiz/profile",
        &[("x-kdap-trace-id", trace)],
        "{\"keywords\": \"columbus\"}",
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        header_value(&head, "x-kdap-trace-id").as_deref(),
        Some(trace),
        "{head}"
    );
    assert!(
        body.contains(&format!("\"trace_id\": \"{trace}\"")),
        "profile must carry the trace id: {body}"
    );

    // A breached query (instant deadline) with the same trace id: the
    // 408 error body echoes the id and the slow ledger retains it.
    let (status, head, body) = http(
        addr,
        "POST",
        "/v1/ebiz/explore",
        &[("x-kdap-trace-id", trace)],
        "{\"keywords\": \"columbus\", \"timeout_ms\": 0}",
    );
    assert_eq!(status, 408, "{body}");
    assert_eq!(
        header_value(&head, "x-kdap-trace-id").as_deref(),
        Some(trace),
        "{head}"
    );
    assert!(
        body.contains(&format!("\"trace_id\": \"{trace}\"")),
        "error body must carry the trace id: {body}"
    );

    let (status, _, ledger) = http(addr, "GET", "/v1/ebiz/slow", &[], "");
    assert_eq!(status, 200);
    assert!(
        ledger.contains(&format!("\"trace_id\": \"{trace}\"")),
        "slow ledger must retain the breached query: {ledger}"
    );
    assert!(ledger.contains("\"breach\": \"timeout\""), "{ledger}");
    let doc = json::parse(&ledger).expect("ledger body is valid JSON");
    assert!(doc.get("capacity").is_some(), "{ledger}");
    assert!(!doc.get("entries").unwrap().as_arr().unwrap().is_empty());

    server.shutdown();

    // Both requests must have produced access-log lines carrying the
    // trace id; the breached one also names the breach.
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    std::fs::remove_file(&log_path).ok();
    let hits: Vec<&str> = log.lines().filter(|l| l.contains(trace)).collect();
    assert!(
        hits.len() >= 2,
        "expected 2+ access lines with trace: {log}"
    );
    for line in &hits {
        json::parse(line).expect("access-log lines are valid JSON");
        assert!(line.contains("\"event\": \"access\""), "{line}");
    }
    assert!(
        hits.iter()
            .any(|l| l.contains("\"status\": 408") && l.contains("\"breach\": \"timeout\"")),
        "breached request must log its breach: {log}"
    );
}

#[test]
fn trace_ids_are_minted_when_absent_and_rejected_when_invalid() {
    let server = start(None);
    let addr = server.addr();

    let (status, head, _) = http(
        addr,
        "POST",
        "/v1/ebiz/explore",
        &[],
        "{\"keywords\": \"columbus\"}",
    );
    assert_eq!(status, 200);
    let minted = header_value(&head, "x-kdap-trace-id").expect("minted id echoed");
    assert_eq!(minted.len(), 32, "{minted}");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()), "{minted}");

    // A second request gets a different id.
    let (_, head2, _) = http(
        addr,
        "POST",
        "/v1/ebiz/explore",
        &[],
        "{\"keywords\": \"columbus\"}",
    );
    assert_ne!(
        header_value(&head2, "x-kdap-trace-id").as_deref(),
        Some(minted.as_str())
    );

    // Non-hex ids are a 400, not silently replaced.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/ebiz/explore",
        &[("x-kdap-trace-id", "not-hex!")],
        "{\"keywords\": \"columbus\"}",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("x-kdap-trace-id"), "{body}");

    server.shutdown();
}

#[test]
fn metrics_exposition_is_lintable_and_labels_every_tenant() {
    let server = start(None);
    let addr = server.addr();

    // Touch both tenants so counters and latency histograms exist, and
    // breach one governor so breach counters appear.
    for tenant in ["ebiz", "ebiz-alt"] {
        let (status, _, _) = http(
            addr,
            "POST",
            &format!("/v1/{tenant}/explore"),
            &[],
            "{\"keywords\": \"columbus\"}",
        );
        assert_eq!(status, 200);
    }
    let (status, _, _) = http(
        addr,
        "POST",
        "/v1/ebiz/explore",
        &[],
        "{\"keywords\": \"columbus\", \"timeout_ms\": 0}",
    );
    assert_eq!(status, 408);

    let (status, head, exposition) = http(addr, "GET", "/metrics", &[], "");
    assert_eq!(status, 200);
    assert!(
        header_value(&head, "content-type")
            .unwrap_or_default()
            .starts_with("text/plain"),
        "{head}"
    );
    let samples = lint_exposition(&exposition).expect("exposition lints clean");
    assert!(samples > 0);
    for needle in [
        "tenant=\"ebiz\"",
        "tenant=\"ebiz-alt\"",
        "# TYPE kdap_http_requests counter",
        "kdap_http_explore_latency_ns_bucket{",
        "le=\"+Inf\"",
        "kdap_governor_timeouts",
    ] {
        assert!(
            exposition.contains(needle),
            "missing {needle}:\n{exposition}"
        );
    }
    // Every sample line is tenant-labeled.
    for line in exposition.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        assert!(line.contains("tenant=\""), "unlabeled sample: {line}");
    }

    // POST is not allowed on the exporter.
    let (status, _, _) = http(addr, "POST", "/metrics", &[], "");
    assert_eq!(status, 405);

    server.shutdown();
}

#[test]
fn profile_format_trace_returns_chrome_trace_json() {
    let server = start(None);
    let addr = server.addr();

    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/ebiz/profile?format=trace",
        &[],
        "{\"keywords\": \"columbus\"}",
    );
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "{body}");
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|p| p.as_str()), Some("X"));
        assert!(ev.get("ts").and_then(|t| t.as_num()).is_some());
        assert!(ev.get("dur").and_then(|d| d.as_num()).is_some());
        assert_eq!(ev.get("cat").and_then(|c| c.as_str()), Some("kdap"));
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("differentiate")),
        "{body}"
    );

    // `format=trace` is profile-only: other verbs cannot be trees.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/ebiz/explore?format=trace",
        &[],
        "{\"keywords\": \"columbus\"}",
    );
    assert_eq!(status, 406, "{body}");

    server.shutdown();
}

#[test]
fn slow_ledger_ranks_breaches_above_plain_slowness() {
    let server = start(None);
    let addr = server.addr();

    // Two normal queries then one breached query.
    for _ in 0..2 {
        let (status, _, _) = http(
            addr,
            "POST",
            "/v1/ebiz/explore",
            &[],
            "{\"keywords\": \"columbus\"}",
        );
        assert_eq!(status, 200);
    }
    let (status, _, _) = http(
        addr,
        "POST",
        "/v1/ebiz/explore",
        &[],
        "{\"keywords\": \"columbus\", \"timeout_ms\": 0}",
    );
    assert_eq!(status, 408);

    let (status, _, ledger) = http(addr, "GET", "/v1/ebiz/slow", &[], "");
    assert_eq!(status, 200);
    let doc = json::parse(&ledger).expect("valid ledger JSON");
    let entries = doc
        .get("entries")
        .and_then(|e| e.as_arr())
        .expect("entries");
    assert_eq!(entries.len(), 3, "{ledger}");
    // Most interesting first: the breach outranks faster 200s.
    assert_eq!(
        entries[0].get("breach").and_then(|b| b.as_str()),
        Some("timeout"),
        "{ledger}"
    );
    assert_eq!(
        entries[0].get("status").and_then(|s| s.as_num()),
        Some(408.0)
    );

    // The other tenant's ledger is isolated and empty.
    let (_, _, other) = http(addr, "GET", "/v1/ebiz-alt/slow", &[], "");
    let doc = json::parse(&other).expect("valid ledger JSON");
    assert!(doc
        .get("entries")
        .and_then(|e| e.as_arr())
        .expect("entries")
        .is_empty());

    server.shutdown();
}

#[test]
fn healthz_reports_version_uptime_and_tenants() {
    let server = start(None);
    let addr = server.addr();

    let (status, _, body) = http(addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200);
    // The shape older clients substring-match on must survive.
    assert!(body.contains("\"status\": \"ok\""), "{body}");
    let doc = json::parse(&body).expect("healthz is valid JSON");
    assert_eq!(
        doc.get("version").and_then(|v| v.as_str()),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(doc.get("uptime_s").and_then(|u| u.as_num()).is_some());
    assert_eq!(doc.get("tenants").and_then(|t| t.as_num()), Some(2.0));
    // Totals since start, this connection and this request included.
    assert_eq!(doc.get("connections").and_then(|c| c.as_num()), Some(1.0));
    assert_eq!(doc.get("requests").and_then(|r| r.as_num()), Some(1.0));

    server.shutdown();
}
