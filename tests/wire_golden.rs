//! Golden wire corpus: request → response byte pairs, so `cargo test`
//! alone can referee a change that must not move the wire format.
//!
//! The files under `tests/golden/wire/` were written at commit 74bb8ad
//! (the parent of the PR that added `refine` to the request) by running
//! this same case table with `std::fs::write` in place of the comparison
//! in [`check`]. A request that carries no `refine` must still encode to
//! exactly these bytes; extend the table and regenerate the same way
//! when the wire format changes on purpose. Two such changes since: the
//! one JSON writer indents a nested `profile` like every other nested
//! object and writes an empty container as `[]` (`*_profile.json`).
//!
//! Every case runs in a fresh serial session (subspace cache on,
//! observability off), so the cache counters inside `explain` reports
//! and the empty `profile` tree are deterministic. Two typed errors are
//! not byte-stable from a request body and stay with `server_api.rs`:
//! the 408's message carries the measured elapsed milliseconds, and a
//! 499 needs a client that hangs up.
//!
//! [`SHAPES`] adds the response shapes the first table holds none of (a
//! refined explore, an empty ranking, a `null` aggregate), and
//! [`documents`] the non-query documents — metrics snapshots, profiles,
//! Perfetto traces, the slow-query ledger, an access-log line, an error
//! and `/healthz` — each built from fixed inputs, with its clock-derived
//! numbers masked. Those live under `tests/golden/docs/`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use kdap_suite::core::{ApiError, Kdap, QueryRequest, Verb, WireFormat};
use kdap_suite::datagen::{build_aw_online, build_ebiz, EbizScale, Scale};
use kdap_suite::obs::{
    chrome_trace, CacheOutcome, HistogramSummary, JsonLogger, JsonWriter, LedgerEntry, LogLevel,
    MetricsSnapshot, ProfileNode, QueryProfile, SlowQueryLedger,
};
use kdap_suite::server::{EngineRegistry, KdapServer, ServerConfig};
use kdap_suite::warehouse::Warehouse;

#[derive(Clone, Copy)]
enum Fixture {
    /// EBiz small, seed 7.
    Ebiz,
    /// AW_ONLINE small, seed 42.
    Aw,
}

fn warehouse(fixture: Fixture) -> Warehouse {
    static EBIZ: OnceLock<Warehouse> = OnceLock::new();
    static AW: OnceLock<Warehouse> = OnceLock::new();
    match fixture {
        Fixture::Ebiz => EBIZ.get_or_init(|| build_ebiz(EbizScale::small(), 7).unwrap()),
        Fixture::Aw => AW.get_or_init(|| build_aw_online(Scale::small(), 42).unwrap()),
    }
    .clone()
}

use Fixture::{Aw, Ebiz};
use WireFormat::{Csv, Json};

/// (golden file, fixture, verb, response format, request body).
const CASES: &[(&str, Fixture, Verb, WireFormat, &str)] = &[
    (
        "ebiz_differentiate.json",
        Ebiz,
        Verb::Differentiate,
        Json,
        r#"{"keywords": "columbus lcd"}"#,
    ),
    (
        "ebiz_explore.json",
        Ebiz,
        Verb::Explore,
        Json,
        r#"{"keywords": "seattle lcd"}"#,
    ),
    (
        "ebiz_profile.json",
        Ebiz,
        Verb::Profile,
        Json,
        r#"{"keywords": "seattle lcd"}"#,
    ),
    (
        "ebiz_explain.json",
        Ebiz,
        Verb::Explain,
        Json,
        r#"{"keywords": "seattle lcd"}"#,
    ),
    (
        "aw_differentiate.json",
        Aw,
        Verb::Differentiate,
        Json,
        r#"{"keywords": "mountain bikes", "limit": 0}"#,
    ),
    (
        "aw_explore.json",
        Aw,
        Verb::Explore,
        Json,
        r#"{"keywords": "mountain"}"#,
    ),
    (
        "aw_profile.json",
        Aw,
        Verb::Profile,
        Json,
        r#"{"keywords": "mountain"}"#,
    ),
    (
        "aw_explain.json",
        Aw,
        Verb::Explain,
        Json,
        r#"{"keywords": "mountain bikes", "pick": 2}"#,
    ),
    (
        "ebiz_explore_options.json",
        Ebiz,
        Verb::Explore,
        Json,
        r#"{"keywords": "seattle", "pick": 3, "limit": 2, "rank": "baseline",
            "mode": "bellwether", "order": "consistent", "agg": "avg",
            "top_k_attrs": 2, "top_k_instances": 3}"#,
    ),
    (
        "ebiz_differentiate.csv",
        Ebiz,
        Verb::Differentiate,
        Csv,
        r#"{"keywords": "columbus lcd"}"#,
    ),
    (
        "aw_explore.csv",
        Aw,
        Verb::Explore,
        Csv,
        r#"{"keywords": "mountain"}"#,
    ),
    (
        "err_bad_request.json",
        Ebiz,
        Verb::Explore,
        Json,
        r#"{"keywords": "columbus", "pick": 0}"#,
    ),
    (
        "err_empty_query.json",
        Ebiz,
        Verb::Differentiate,
        Json,
        r#"{"keywords": "the and of"}"#,
    ),
    (
        "err_no_interpretation.json",
        Ebiz,
        Verb::Explore,
        Json,
        r#"{"keywords": "columbus", "pick": 99}"#,
    ),
    (
        "err_budget_exceeded.json",
        Aw,
        Verb::Explore,
        Json,
        r#"{"keywords": "mountain", "budget_bytes": 1}"#,
    ),
    (
        "err_not_acceptable.json",
        Ebiz,
        Verb::Explain,
        Csv,
        r#"{"keywords": "columbus"}"#,
    ),
];

/// What the HTTP edge answers for `body`: the encoded response, or the
/// JSON body of the typed error.
fn answer(fixture: Fixture, verb: Verb, format: WireFormat, body: &str) -> String {
    let kdap = Kdap::builder(warehouse(fixture))
        .cache_capacity(16)
        .build()
        .unwrap();
    QueryRequest::from_json(verb, body)
        .and_then(|request| kdap.run(&request).map_err(|e| ApiError::from_kdap(&e)))
        .and_then(|response| response.encode(format))
        .unwrap_or_else(|e| e.to_json())
}

fn check(name: &str, actual: &str) {
    check_in("tests/golden/wire", name, actual);
}

fn check_in(dir: &str, name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(dir)
        .join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(actual, expected, "{name} moved on the wire");
}

#[test]
fn requests_without_refine_encode_to_the_parent_commits_bytes() {
    for &(name, fixture, verb, format, body) in CASES {
        check(name, &answer(fixture, verb, format, body));
    }
}

/// Response shapes no case of [`CASES`] produces.
const SHAPES: &[(&str, Fixture, Verb, WireFormat, &str)] = &[
    (
        // Echoes a non-empty `constraints` list.
        "ebiz_explore_refined.json",
        Ebiz,
        Verb::Explore,
        Json,
        r#"{"keywords": "seattle lcd", "refine": [{"up": 1}],
            "top_k_attrs": 2, "top_k_instances": 3}"#,
    ),
    (
        // No keyword hits anything: an empty `interpretations` list.
        "ebiz_differentiate_empty.json",
        Ebiz,
        Verb::Differentiate,
        Json,
        r#"{"keywords": "zzyzx"}"#,
    ),
    (
        // The average over an empty subspace is NaN, written `null`.
        "ebiz_explore_avg_null.json",
        Ebiz,
        Verb::Explore,
        Json,
        r#"{"keywords": "columbus lcd", "agg": "avg", "top_k_attrs": 2,
            "top_k_instances": 3}"#,
    ),
];

#[test]
fn refined_empty_and_null_responses_hold_their_bytes() {
    for &(name, fixture, verb, format, body) in SHAPES {
        check(name, &answer(fixture, verb, format, body));
    }
}

/// Replaces the number after every `"key": ` with `0`, for values read
/// off a clock.
fn mask(doc: &str, key: &str) -> String {
    let needle = format!("\"{key}\": ");
    let mut out = String::with_capacity(doc.len());
    let mut rest = doc;
    while let Some(at) = rest.find(&needle) {
        let start = at + needle.len();
        out.push_str(&rest[..start]);
        out.push('0');
        rest = rest[start..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// A profile with every field set: notes, a cache outcome, row counts
/// and two levels of children.
fn full_profile() -> QueryProfile {
    let mut leaf = ProfileNode::new("multi_group_by");
    leaf.wall_ns = 1_250;
    leaf.rows_in = Some(4_096);
    leaf.rows_out = Some(17);
    leaf.notes.push(("specs".into(), "3".into()));
    let mut scan = ProfileNode::new("explore.scan_a");
    scan.wall_ns = 2_000;
    scan.notes.push(("memo_specs".into(), "1".into()));
    scan.notes
        .push(("path".into(), "TRANS \"→\" STORE\n".into()));
    scan.children.push(leaf);
    let mut explore = ProfileNode::new("explore");
    explore.wall_ns = 5_500;
    explore.rows_out = Some(53);
    explore.cache = Some(CacheOutcome::Miss);
    explore.children.push(scan);
    explore.children.push(ProfileNode::new("facet.rank"));
    let mut search = ProfileNode::new("textindex.search");
    search.wall_ns = 750;
    search.cache = Some(CacheOutcome::Hit);
    QueryProfile {
        label: "seattle lcd".into(),
        trace_id: Some("00c0ffee".into()),
        roots: vec![search, explore],
    }
}

fn snapshot(full: bool) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    if full {
        snap.counters.insert("http.requests".into(), 12);
        snap.counters.insert("governor.\"timeouts\"".into(), 0);
        snap.gauges.insert("inflight".into(), -1);
        snap.histograms.insert(
            "http.explore.latency_ns".into(),
            HistogramSummary {
                count: 3,
                sum: 4_500,
                min: 900,
                max: 2_100,
                p50: 1_024,
                p95: 2_048,
                p99: 2_048,
            },
        );
    }
    snap
}

/// A document formed by `body` alone.
fn written(body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut out = String::new();
    body(&mut JsonWriter::new(&mut out));
    out
}

fn ledger_json() -> String {
    let ledger = SlowQueryLedger::new(4);
    ledger.record(LedgerEntry {
        trace_id: None,
        verb: "differentiate".into(),
        keywords: "columbus lcd".into(),
        latency_ns: 81_000,
        status: 200,
        breach: None,
        profile: None,
    });
    ledger.record(LedgerEntry {
        trace_id: Some("1f4".into()),
        verb: "explore".into(),
        keywords: "seattle \"lcd\"".into(),
        latency_ns: 500,
        status: 408,
        breach: Some("timeout".into()),
        profile: Some(full_profile()),
    });
    mask(&ledger.to_json(), "ts_ms")
}

fn access_line() -> String {
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);
    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buf = Buf::default();
    JsonLogger::to_writer(Box::new(buf.clone())).log(LogLevel::Warn, "access", |w| {
        w.key("trace_id").str("0123abcd").key("method").str("POST");
        w.key("path")
            .str("/v1/ebiz/explore")
            .key("status")
            .int(408u16);
        w.key("latency_ns").int(1_234_567u64);
        w.key("breach").str("timeout");
    });
    let line = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    mask(&line, "ts_ms")
}

fn healthz() -> String {
    let config = ServerConfig {
        port: 0,
        workers: 1,
        ..ServerConfig::default()
    };
    let server = KdapServer::start(EngineRegistry::new(), &config).expect("ephemeral bind");
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    server.shutdown();
    let (_, body) = reply.split_once("\r\n\r\n").expect("a header block");
    ["uptime_s", "connections", "requests"]
        .iter()
        .fold(body.to_string(), |doc, key| mask(&doc, key))
}

/// (golden file, document) for every document the system emits besides
/// a query response.
fn documents() -> Vec<(&'static str, String)> {
    vec![
        (
            "snapshot_empty.json",
            written(|w| snapshot(false).write_json(w)),
        ),
        (
            "snapshot_full.json",
            written(|w| snapshot(true).write_json(w)),
        ),
        (
            "profile_full.json",
            written(|w| full_profile().write_json(w)),
        ),
        ("profile_full_trace.json", chrome_trace(&full_profile())),
        (
            "profile_empty.json",
            written(|w| QueryProfile::empty("nothing").write_json(w)),
        ),
        (
            "profile_empty_trace.json",
            chrome_trace(&QueryProfile::empty("nothing")),
        ),
        ("slow_ledger.json", ledger_json()),
        ("access_line.jsonl", access_line()),
        (
            "error_with_trace.json",
            ApiError::bad_request("`pick` must be \"≥ 1\"").to_json_with_trace(Some("00c0ffee")),
        ),
        ("healthz.json", healthz()),
    ]
}

#[test]
fn non_query_documents_hold_their_bytes() {
    for (name, doc) in documents() {
        check_in("tests/golden/docs", name, &doc);
    }
}
