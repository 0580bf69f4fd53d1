//! End-to-end tests of the HTTP query API over a real socket: tenant
//! isolation, bit-identity with direct library calls, typed error
//! mapping, governance (408/429) without cache poisoning, wire format
//! negotiation, a repeated explore answered from the session cache,
//! persistent connections (sequential, pipelined, closed
//! on request and on parse errors, fair to waiting clients, no obstacle
//! to shutdown), a drill / roll-up / drop session replayed as `refine`
//! lists over one socket, and cancellation of queries whose client left.

mod support;

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use kdap_suite::core::api::json::{self, Json};
use kdap_suite::core::{Kdap, QueryRequest, Refine, Verb, WireFormat};
use kdap_suite::datagen::{build_aw_online, build_ebiz, EbizScale, Scale};
use kdap_suite::server::{EngineRegistry, KdapServer, ServerConfig};

fn engine(seed: u64) -> Kdap {
    Kdap::builder(build_ebiz(EbizScale::small(), seed).unwrap())
        .cache_capacity(16)
        .observability(true)
        .build()
        .unwrap()
}

/// Two-tenant server on an ephemeral port. Tenants are the same schema
/// at different seeds, so identical requests must produce different,
/// per-tenant data.
fn start_with(workers: usize, max_inflight: usize) -> KdapServer {
    let registry = EngineRegistry::new()
        .with("ebiz", Arc::new(engine(7)))
        .with("ebiz-alt", Arc::new(engine(11)));
    let config = ServerConfig {
        port: 0,
        workers,
        max_inflight,
        ..ServerConfig::default()
    };
    KdapServer::start(registry, &config).expect("ephemeral bind")
}

fn start(max_inflight: usize) -> KdapServer {
    start_with(4, max_inflight)
}

/// A server whose cold explores outlive many ticks of the disconnect
/// monitor (5 ms): AW_ONLINE at the smallest scale that makes
/// [`SLOW_QUERIES`] take over 70 ms each in the build under test, as
/// tenant `aw` and again, same data, as tenant `aw-control`. The caches
/// are on, so a slow query is slow only the first time a tenant sees it.
fn start_slow() -> KdapServer {
    let factor = if cfg!(debug_assertions) { 4 } else { 20 };
    let wh = build_aw_online(Scale::full().scaled(factor), 42).unwrap();
    let engine = |wh| {
        Kdap::builder(wh)
            .cache_capacity(16)
            .observability(true)
            .build()
            .unwrap()
    };
    let registry = EngineRegistry::new()
        .with("aw", Arc::new(engine(wh.clone())))
        .with("aw-control", Arc::new(engine(wh)));
    let config = ServerConfig {
        port: 0,
        workers: 2,
        ..ServerConfig::default()
    };
    let server = KdapServer::start(registry, &config).expect("ephemeral bind");
    // A session's first explore pays its lazy set-up.
    let (status, _, body) = post(server.addr(), "/v1/aw/explore", WARM_QUERY);
    assert_eq!(status, 200, "{body}");
    server
}

const WARM_QUERY: &str = "{\"keywords\": \"road\"}";
/// Explore bodies that are cache misses, and slow, on [`start_slow`].
const SLOW_QUERIES: [&str; 2] = ["{\"keywords\": \"bikes\"}", "{\"keywords\": \"mountain\"}"];

/// The text of one request. No `Connection` header unless `headers`
/// carries one, so by default the connection stays open.
fn request(method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> String {
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: kdap\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    req
}

/// One response: status, raw head, body.
struct Reply {
    status: u16,
    head: String,
    body: String,
}

impl Reply {
    /// The value of a response header, case-insensitive on the name.
    fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

/// A client connection that can outlive one request: responses are
/// delimited by `Content-Length`, bytes read past one are kept for the
/// next.
struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        // A server that stops answering fails the test, not hangs it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Conn {
            stream,
            carry: Vec::new(),
        }
    }

    fn send(&mut self, raw: &str) {
        self.stream.write_all(raw.as_bytes()).expect("send");
    }

    /// Reads until `carry` holds at least `want` bytes.
    fn fill(&mut self, want: usize) {
        let mut chunk = [0u8; 4096];
        while self.carry.len() < want {
            let n = self.stream.read(&mut chunk).expect("recv");
            assert!(n > 0, "connection closed inside a response");
            self.carry.extend_from_slice(&chunk[..n]);
        }
    }

    /// Reads exactly one response.
    fn recv(&mut self) -> Reply {
        let head_end = loop {
            if let Some(at) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break at;
            }
            self.fill(self.carry.len() + 1);
        };
        let head = String::from_utf8(self.carry[..head_end].to_vec()).expect("utf-8 head");
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let mut reply = Reply {
            status,
            head,
            body: String::new(),
        };
        let len: usize = reply
            .header("content-length")
            .and_then(|v| v.parse().ok())
            .expect("Content-Length");
        let body_end = head_end + 4 + len;
        self.fill(body_end);
        let rest = self.carry.split_off(body_end);
        reply.body = String::from_utf8(self.carry.split_off(head_end + 4)).expect("utf-8 body");
        self.carry = rest;
        reply
    }

    /// True when the server has closed the connection having sent
    /// nothing past the responses already read. A close that discards
    /// bytes the client sent and the server never read arrives as a
    /// reset.
    fn at_eof(&mut self) -> bool {
        self.carry.is_empty()
            && match self.stream.read(&mut [0u8; 1]) {
                Ok(n) => n == 0,
                Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
            }
    }
}

/// One request on a connection of its own, `Connection: close`; the
/// server must answer in kind and close. Returns `(status,
/// content_type, body)`.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut conn = Conn::open(addr);
    let mut all = vec![("Connection", "close")];
    all.extend_from_slice(headers);
    conn.send(&request(method, path, &all, body));
    let reply = conn.recv();
    assert_eq!(reply.header("connection"), Some("close"), "{}", reply.head);
    assert!(conn.at_eof(), "server must close after `Connection: close`");
    let content_type = reply.header("content-type").unwrap_or_default().to_string();
    (reply.status, content_type, reply.body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    http(addr, "POST", path, &[], body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    http(addr, "GET", path, &[], "")
}

/// Polls `/v1/{tenant}/stats` until `done` accepts the body (a failed
/// test after ten seconds), and returns that body.
fn poll_stats(addr: SocketAddr, tenant: &str, done: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, stats) = get(addr, &format!("/v1/{tenant}/stats"));
        assert_eq!(status, 200);
        if done(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "stats never got there: {stats}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// Entry counts of the two plan caches, parsed out of a `/stats` body.
fn cache_lens(stats: &str) -> (u64, u64) {
    fn len_of(stats: &str, cache: &str) -> u64 {
        let marker = format!("\"{cache}\": {{\"len\": ");
        let at = stats.find(&marker).expect("cache entry in stats") + marker.len();
        stats[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("len value")
    }
    (len_of(stats, "subspace"), len_of(stats, "semijoin"))
}

#[test]
fn concurrent_tenants_are_bit_identical_to_direct_library_calls() {
    let server = start(16);
    let addr = server.addr();

    // Expected bodies come from freshly built engines with the same
    // seeds — the server must add nothing and lose nothing.
    let cases: Vec<(&str, u64, &str)> = vec![("ebiz", 7, "columbus"), ("ebiz-alt", 11, "seattle")];
    let expected: Vec<(String, String, String)> = cases
        .iter()
        .map(|(tenant, seed, keywords)| {
            let direct = engine(*seed)
                .run(&QueryRequest::new(Verb::Explore, *keywords))
                .expect("direct explore succeeds");
            (
                format!("/v1/{tenant}/explore"),
                format!("{{\"keywords\": \"{keywords}\"}}"),
                direct.encode(WireFormat::Json).expect("encodes"),
            )
        })
        .collect();

    // Hammer both tenants concurrently; every response must match its
    // tenant's direct result byte for byte.
    let handles: Vec<_> = (0..3)
        .flat_map(|_| expected.clone())
        .map(|(path, body, want)| {
            thread::spawn(move || {
                let (status, content_type, got) = post(addr, &path, &body);
                assert_eq!(status, 200, "{path}: {got}");
                assert_eq!(content_type, "application/json");
                assert_eq!(got, want, "{path} drifted from the library result");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // The two tenants really are different data sets.
    let (_, _, a) = post(addr, "/v1/ebiz/explore", "{\"keywords\": \"seattle\"}");
    let (_, _, b) = post(addr, "/v1/ebiz-alt/explore", "{\"keywords\": \"seattle\"}");
    assert_ne!(a, b, "tenants must not share state");

    server.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors() {
    let server = start(16);
    let addr = server.addr();

    for (body, want) in [
        ("{", "invalid JSON"),
        ("{\"keywords\": 42}", "`keywords` must be a string"),
        (
            "{\"keywords\": \"x\", \"bogus\": 1}",
            "unknown field `bogus`",
        ),
        ("{\"keywords\": \"x\", \"rank\": \"nope\"}", "unknown rank"),
    ] {
        let (status, content_type, resp) = post(addr, "/v1/ebiz/differentiate", body);
        assert_eq!(status, 400, "{body} -> {resp}");
        assert_eq!(content_type, "application/json");
        assert!(resp.contains("\"code\": \"bad_request\""), "{resp}");
        assert!(resp.contains(want), "{resp}");
    }

    let (status, _, resp) = post(addr, "/v1/nope/explore", "{\"keywords\": \"x\"}");
    assert_eq!(status, 404);
    assert!(resp.contains("ebiz, ebiz-alt"), "lists tenants: {resp}");

    let (status, _, resp) = post(addr, "/v1/ebiz/frobnicate", "{}");
    assert_eq!(status, 404);
    assert!(resp.contains("unknown action"), "{resp}");

    let (status, _, resp) = get(addr, "/v1/ebiz/explore");
    assert_eq!(status, 405);
    assert!(resp.contains("method_not_allowed"), "{resp}");

    // A pick beyond the interpretation list is a 404, not a 500.
    let (status, _, resp) = post(
        addr,
        "/v1/ebiz/explore",
        "{\"keywords\": \"columbus\", \"pick\": 999}",
    );
    assert_eq!(status, 404);
    assert!(resp.contains("no_interpretation"), "{resp}");

    server.shutdown();
}

/// The `"caches"` object of a `/stats` body, verbatim.
fn caches_section(stats: &str) -> &str {
    let start = stats.find("\"caches\": {").expect("caches in stats");
    let len = stats[start..]
        .find("\"rowset_containers\"")
        .expect("caches end");
    &stats[start..start + len]
}

/// The echoed constraint (as parsed JSON) on `attr`.
fn echoed<'a>(doc: &'a Json, attr: &str) -> &'a Json {
    doc.get("constraints")
        .and_then(Json::as_arr)
        .expect("a refined response echoes its constraints")
        .iter()
        .find(|c| c.get("attr").and_then(Json::as_str) == Some(attr))
        .unwrap_or_else(|| panic!("no echoed constraint on {attr}"))
}

#[test]
fn a_drill_roll_up_drop_session_runs_over_one_keep_alive_socket() {
    let server = start(16);
    let mut conn = Conn::open(server.addr());
    let mut exchange = |method: &str, path: &str, body: &str| {
        conn.send(&request(method, path, &[], body));
        let reply = conn.recv();
        assert_eq!(reply.header("connection"), Some("keep-alive"), "{path}");
        reply
    };
    // The in-process twin: the same requests, decoded from the same
    // bodies, against an engine built from the same seed.
    let direct = engine(7);
    let body_with = |refine: &[Refine]| {
        format!(
            "{{\"keywords\": \"seattle\", \"pick\": 3, \"refine\": {}}}",
            support::refine_json(refine)
        )
    };

    // What the analyst sees first: Seattle as a *seller* city.
    let shown = exchange("POST", "/v1/ebiz/explore", &body_with(&[]));
    assert_eq!(shown.status, 200, "{}", shown.body);
    let doc = json::parse(&shown.body).expect("valid JSON");
    assert!(doc.get("constraints").is_none(), "no refine, no echo");
    let picked = &doc.get("interpretations").and_then(Json::as_arr).unwrap()[2];
    let display = picked.get("display").and_then(Json::as_str).unwrap();
    assert!(display.contains("(Seller)"), "{display}");
    let panels = doc.get("exploration").unwrap().get("panels").unwrap();
    let account_type = panels
        .as_arr()
        .unwrap()
        .iter()
        .filter(|p| p.get("dimension").and_then(Json::as_str) == Some("Customer"))
        .flat_map(|p| p.get("attrs").and_then(Json::as_arr).unwrap())
        .find(|a| a.get("name").and_then(Json::as_str) == Some("ACCOUNT.AccountType"))
        .expect("account-type facet shown");
    let entry = &account_type.get("entries").and_then(Json::as_arr).unwrap()[0];
    let label = entry.get("label").and_then(Json::as_str).unwrap();
    let shown_aggregate = entry.get("aggregate").and_then(Json::as_num).unwrap();

    // Drill → roll-up → drop: each request replays the list so far plus
    // one step, and that step's index comes from the previous echo.
    let mut refine = vec![Refine::Drill {
        dimension: "Customer".into(),
        attr: "ACCOUNT.AccountType".into(),
        value: label.into(),
    }];
    let mut sizes = Vec::new();
    for next in ["LOCATION.City", "ACCOUNT.AccountType", ""] {
        let body = body_with(&refine);
        let reply = exchange("POST", "/v1/ebiz/explore", &body);
        assert_eq!(reply.status, 200, "{body}: {}", reply.body);
        let request = QueryRequest::from_json(Verb::Explore, &body).expect("decodes");
        let in_process = direct.run(&request).expect("runs").encode(WireFormat::Json);
        assert_eq!(reply.body, in_process.unwrap(), "{body}");
        let doc = json::parse(&reply.body).expect("valid JSON");
        let ex = doc.get("exploration").unwrap();
        sizes.push(ex.get("subspace_size").and_then(Json::as_num).unwrap());
        match refine.len() {
            1 => {
                // The drill followed the Seller role the entry was
                // aggregated on, so it totals what the entry showed.
                let drilled = echoed(&doc, "ACCOUNT.AccountType");
                let display = drilled.get("display").and_then(Json::as_str).unwrap();
                assert!(display.contains("(Seller)"), "{display}");
                let total = ex.get("total_aggregate").and_then(Json::as_num).unwrap();
                assert!((total - shown_aggregate).abs() <= 1e-9 * shown_aggregate.abs());
                let index = echoed(&doc, next).get("index").and_then(Json::as_num);
                refine.push(Refine::Up(index.unwrap() as usize));
            }
            2 => {
                // City rolled up to State; the drilled constraint is next.
                echoed(&doc, "LOCATION.State");
                let index = echoed(&doc, next).get("index").and_then(Json::as_num);
                refine.push(Refine::Drop(index.unwrap() as usize));
            }
            _ => {
                let left = doc.get("constraints").and_then(Json::as_arr).unwrap();
                assert_eq!(left.len(), 1, "{}", reply.body);
                echoed(&doc, "LOCATION.State");
            }
        }
    }
    assert!(sizes[0] <= sizes[1] && sizes[1] <= sizes[2], "{sizes:?}");

    // A step that does not apply is a typed 400 naming its position, and
    // leaves the caches exactly as they were.
    let before = exchange("GET", "/v1/ebiz/stats", "").body;
    refine.push(Refine::Up(9));
    let reply = exchange("POST", "/v1/ebiz/explore", &body_with(&refine));
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(
        reply.body.contains("\"code\": \"bad_refine\""),
        "{}",
        reply.body
    );
    assert!(
        reply.body.contains("refine step 4: no constraint #9"),
        "{}",
        reply.body
    );
    let bogus = "{\"keywords\": \"seattle\", \"refine\": [{\"drill\": {\"dimension\": \
                 \"Customer\", \"attr\": \"ACCOUNT.Nope\", \"value\": \"x\"}}]}";
    let reply = exchange("POST", "/v1/ebiz/explain", bogus);
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(
        reply.body.contains("\"code\": \"bad_refine\""),
        "{}",
        reply.body
    );
    let reply = exchange("POST", "/v1/ebiz/differentiate", &body_with(&refine[..1]));
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(
        reply.body.contains("\"code\": \"bad_refine\""),
        "{}",
        reply.body
    );
    let after = exchange("GET", "/v1/ebiz/stats", "").body;
    assert_eq!(caches_section(&before), caches_section(&after));
    assert!(after.contains("\"http.status.400\": 3"), "{after}");

    // An unknown key inside a step is the body's fault, not the net's.
    let stray = "{\"keywords\": \"seattle\", \"refine\": [{\"up\": 1, \"down\": 1}]}";
    let reply = exchange("POST", "/v1/ebiz/explore", stray);
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(
        reply.body.contains("\"code\": \"bad_request\""),
        "{}",
        reply.body
    );
    assert!(reply.body.contains("`refine` step 1"), "{}", reply.body);

    server.shutdown();
}

/// `(len, hits)` of the session cache, parsed out of a `/stats` body.
fn subspace_len_and_hits(stats: &str) -> (u64, u64) {
    let doc = json::parse(stats).expect("valid JSON");
    let subspace = doc.get("caches").and_then(|c| c.get("subspace"));
    let field = |name| subspace.and_then(|s| s.get(name)).and_then(Json::as_num);
    (
        field("len").expect("len") as u64,
        field("hits").expect("hits") as u64,
    )
}

#[test]
fn a_repeated_explore_is_answered_from_the_session_cache() {
    let server = start(16);
    let mut conn = Conn::open(server.addr());
    let mut exchange = |method: &str, path: &str, body: &str| {
        conn.send(&request(method, path, &[], body));
        let reply = conn.recv();
        assert_eq!(reply.status, 200, "{path} {body}: {}", reply.body);
        reply.body
    };
    let body = "{\"keywords\": \"seattle lcd\"}";
    let first = exchange("POST", "/v1/ebiz/explore", body);
    let (len, hits) = subspace_len_and_hits(&exchange("GET", "/v1/ebiz/stats", ""));
    assert_eq!((len, hits), (1, 0));

    // The same request again: the same bytes, one more hit, no new entry.
    let again = exchange("POST", "/v1/ebiz/explore", body);
    assert_eq!(first, again);
    let request = QueryRequest::from_json(Verb::Explore, body).expect("decodes");
    let in_process = engine(7).run(&request).expect("runs");
    assert_eq!(again, in_process.encode(WireFormat::Json).unwrap());
    let after = subspace_len_and_hits(&exchange("GET", "/v1/ebiz/stats", ""));
    assert_eq!(after, (len, hits + 1));

    // The same net under another option: a different answer, computed
    // (no hit), that replaces the net's entry instead of adding one.
    let flipped = "{\"keywords\": \"seattle lcd\", \"mode\": \"bellwether\"}";
    let other = exchange("POST", "/v1/ebiz/explore", flipped);
    assert_ne!(other, first);
    let after = subspace_len_and_hits(&exchange("GET", "/v1/ebiz/stats", ""));
    assert_eq!(after, (len, hits + 1));
    server.shutdown();
}

#[test]
fn governed_timeout_is_a_typed_408_and_poisons_no_cache() {
    let server = start(16);
    let addr = server.addr();

    // Warm the caches with one healthy query.
    let (status, _, _) = post(addr, "/v1/ebiz/explore", "{\"keywords\": \"columbus\"}");
    assert_eq!(status, 200);
    let (_, _, before) = get(addr, "/v1/ebiz/stats");
    let lens_before = cache_lens(&before);
    assert!(lens_before.0 > 0, "warm-up populated the subspace cache");

    // `timeout_ms: 0` is an already-expired deadline: the query aborts
    // at its first governance check, deterministically.
    let (status, content_type, resp) = post(
        addr,
        "/v1/ebiz/explore",
        "{\"keywords\": \"seattle\", \"timeout_ms\": 0}",
    );
    assert_eq!(status, 408, "{resp}");
    assert_eq!(content_type, "application/json");
    assert!(resp.contains("\"code\": \"timeout\""), "{resp}");

    // The abort left the caches byte-identical and was counted.
    let (_, _, after) = get(addr, "/v1/ebiz/stats");
    assert_eq!(
        cache_lens(&after),
        lens_before,
        "aborted query must not commit"
    );
    assert!(after.contains("\"governor.timeouts\": 1"), "{after}");
    assert!(after.contains("\"http.status.408\": 1"), "{after}");

    // The governance header works too, and the tenant stays healthy.
    let (status, _, _) = http(
        addr,
        "POST",
        "/v1/ebiz/explore",
        &[("x-kdap-timeout-ms", "0")],
        "{\"keywords\": \"seattle\"}",
    );
    assert_eq!(status, 408);
    let (status, _, _) = post(addr, "/v1/ebiz/explore", "{\"keywords\": \"seattle\"}");
    assert_eq!(status, 200, "tenant recovered after governed aborts");

    server.shutdown();
}

#[test]
fn saturated_tenant_rejects_with_429_but_stays_routable() {
    // `max_inflight: 0` admits nothing — every query is a deterministic
    // 429 while liveness and stats stay up.
    let server = start(0);
    let addr = server.addr();

    let (status, _, resp) = post(addr, "/v1/ebiz/explore", "{\"keywords\": \"columbus\"}");
    assert_eq!(status, 429, "{resp}");
    assert!(resp.contains("\"code\": \"too_many_requests\""), "{resp}");

    let (status, _, resp) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(resp.contains("\"status\": \"ok\""), "{resp}");

    let (status, _, stats) = get(addr, "/v1/ebiz/stats");
    assert_eq!(status, 200);
    assert!(stats.contains("\"http.rejected\": 1"), "{stats}");
    assert!(stats.contains("\"http.status.429\": 1"), "{stats}");

    server.shutdown();
}

#[test]
fn wire_format_negotiation_round_trips() {
    let server = start(16);
    let addr = server.addr();
    let body = "{\"keywords\": \"columbus\"}";

    // Default: JSON.
    let (status, content_type, json) = post(addr, "/v1/ebiz/differentiate", body);
    assert_eq!(status, 200);
    assert_eq!(content_type, "application/json");
    assert!(json.contains("\"verb\": \"differentiate\""), "{json}");
    assert!(json.contains("\"interpretations\""), "{json}");

    // `?format=csv` wins over everything.
    let (status, content_type, csv) = post(addr, "/v1/ebiz/differentiate?format=csv", body);
    assert_eq!(status, 200);
    assert_eq!(content_type, "text/csv");
    assert!(
        csv.starts_with("rank,score,interpretation,fingerprint"),
        "{csv}"
    );

    // `Accept: text/csv` negotiates the same thing.
    let (status, content_type, accept_csv) = http(
        addr,
        "POST",
        "/v1/ebiz/differentiate",
        &[("Accept", "text/csv")],
        body,
    );
    assert_eq!(status, 200);
    assert_eq!(content_type, "text/csv");
    assert_eq!(accept_csv, csv, "header and query negotiation agree");

    // Unknown explicit formats are refused, not silently defaulted.
    let (status, _, resp) = post(addr, "/v1/ebiz/differentiate?format=xml", body);
    assert_eq!(status, 406, "{resp}");
    assert!(resp.contains("not_acceptable"), "{resp}");

    server.shutdown();
}

#[test]
fn one_connection_answers_sequential_and_pipelined_requests() {
    let server = start(16);
    let addr = server.addr();
    let explore = "{\"keywords\": \"columbus\"}";
    let traced = [("x-kdap-trace-id", "abc123")];

    // Three requests, one after the other, one socket.
    let mut conn = Conn::open(addr);
    for (method, path, body) in [
        ("GET", "/healthz", ""),
        ("POST", "/v1/ebiz/explore", explore),
        ("GET", "/v1/ebiz/stats", ""),
    ] {
        conn.send(&request(method, path, &[], body));
        let reply = conn.recv();
        assert_eq!(reply.status, 200, "{path}: {}", reply.body);
        assert_eq!(reply.header("connection"), Some("keep-alive"), "{path}");
    }
    // A routed error is still a framed exchange: the connection lives.
    conn.send(&request("POST", "/v1/ebiz/explore", &[], "{"));
    let reply = conn.recv();
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert_eq!(reply.header("connection"), Some("keep-alive"));

    // Two requests in one write: two responses, in order, each equal to
    // what the same request gets on a connection of its own — down to
    // the head, but for the `Connection` header.
    let pipelined = [
        ("/v1/ebiz/explore", explore),
        ("/v1/ebiz-alt/differentiate", "{\"keywords\": \"seattle\"}"),
    ];
    conn.send(
        &pipelined
            .map(|(path, body)| request("POST", path, &traced, body))
            .concat(),
    );
    for (path, body) in pipelined {
        let kept = conn.recv();
        let mut alone = Conn::open(addr);
        let mut headers = vec![("Connection", "close")];
        headers.extend_from_slice(&traced);
        alone.send(&request("POST", path, &headers, body));
        let closed = alone.recv();
        assert_eq!(kept.status, 200, "{path}: {}", kept.body);
        assert_eq!(kept.body, closed.body, "{path}");
        assert_eq!(
            kept.head,
            closed
                .head
                .replace("Connection: close", "Connection: keep-alive"),
            "{path}"
        );
    }

    // The server counted what happened: this connection and the two
    // one-request ones; seven requests and this one.
    conn.send(&request("GET", "/healthz", &[], ""));
    let health = conn.recv().body;
    assert!(
        health.contains("\"connections\": 3, \"requests\": 9"),
        "{health}"
    );

    server.shutdown();
}

#[test]
fn close_requests_and_unframed_input_end_the_connection() {
    let server = start(16);
    let addr = server.addr();
    let big_header = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "x".repeat(20_000)
    );
    let cases: [(&str, u16); 6] = [
        ("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 200),
        ("GET /healthz HTTP/1.0\r\n\r\n", 200),
        ("NONSENSE\r\n\r\n", 400),
        (
            "POST /v1/ebiz/explore HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            400,
        ),
        (
            "POST /v1/ebiz/explore HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            413,
        ),
        (&big_header, 431),
    ];
    for (raw, want) in cases {
        let mut conn = Conn::open(addr);
        // A second request rides along; it must never be answered.
        conn.send(raw);
        conn.send("GET /healthz HTTP/1.1\r\n\r\n");
        let reply = conn.recv();
        let line = raw.lines().next().unwrap_or_default();
        assert_eq!(reply.status, want, "{line}: {}", reply.body);
        assert_eq!(reply.header("connection"), Some("close"), "{line}");
        assert!(
            conn.at_eof(),
            "{line}: connection must end after the response"
        );
    }
    server.shutdown();
}

#[test]
fn idle_connection_gives_its_worker_to_a_waiting_client() {
    // One worker: while `idle` holds its connection open, `waiting` can
    // only be served by the worker that connection occupies.
    let server = start_with(1, 16);
    let addr = server.addr();
    let mut idle = Conn::open(addr);
    idle.send(&request("GET", "/healthz", &[], ""));
    assert_eq!(idle.recv().header("connection"), Some("keep-alive"));

    let asked = Instant::now();
    let mut waiting = Conn::open(addr);
    waiting.send(&request("GET", "/healthz", &[], ""));
    let reply = waiting.recv();
    let waited = asked.elapsed();
    assert_eq!(reply.status, 200);
    assert!(
        waited < Duration::from_secs(1),
        "second client waited {waited:?}"
    );
    // The price: the idle connection was closed, not left half-served.
    assert!(idle.at_eof());

    server.shutdown();
}

#[test]
fn shutdown_does_not_wait_for_an_idle_connection() {
    let server = start(16);
    let mut idle = Conn::open(server.addr());
    idle.send(&request("GET", "/healthz", &[], ""));
    assert_eq!(idle.recv().header("connection"), Some("keep-alive"));

    // `read_timeout` is 10 s; an idle client must not cost that.
    let asked = Instant::now();
    server.shutdown();
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert!(idle.at_eof());
}

#[test]
fn hung_up_client_cancels_its_query_and_poisons_no_cache() {
    let server = start_slow();
    let addr = server.addr();
    let (_, _, before) = get(addr, "/v1/aw/stats");
    assert!(!before.contains("http.status.499"), "{before}");

    // Ask, then leave without waiting for the answer.
    let mut conn = Conn::open(addr);
    conn.send(&request("POST", "/v1/aw/explore", &[], SLOW_QUERIES[0]));
    drop(conn);

    // The monitor notices, the engine unwinds, the worker counts a 499
    // nobody reads.
    let after = poll_stats(addr, "aw", |s| s.contains("\"http.status.499\": 1"));
    assert!(after.contains("\"governor.cancellations\": 1"), "{after}");
    assert!(after.contains("\"http.disconnect_cancels\": 1"), "{after}");

    // Nothing the cancelled run left behind changes an answer or adds a
    // cache entry of its own: asked the same things, the tenant and its
    // control, which never saw the hang-up, answer byte for byte alike
    // and end with caches of the same size. (Stages the run completed
    // before the cancel landed do stay cached, so the entry counts right
    // after the 499 are not those from before it.)
    for body in [WARM_QUERY, SLOW_QUERIES[0], WARM_QUERY] {
        let (status, _, answer) = post(addr, "/v1/aw/explore", body);
        assert_eq!(status, 200, "{body}: {answer}");
        let (_, _, control) = post(addr, "/v1/aw-control/explore", body);
        assert_eq!(answer, control, "{body}");
    }
    let (_, _, stats) = get(addr, "/v1/aw/stats");
    let (_, _, control) = get(addr, "/v1/aw-control/stats");
    assert_eq!(cache_lens(&stats), cache_lens(&control));

    server.shutdown();
}

#[test]
fn half_close_counts_as_leaving_but_pipelined_bytes_do_not() {
    let server = start_slow();
    let addr = server.addr();

    // A slow explore with the next request already on the wire — long
    // enough (past the server's 4 KiB read) that part of it sits in the
    // socket while the explore runs. Bytes are not a hang-up.
    let mut conn = Conn::open(addr);
    let pad = "x".repeat(6000);
    conn.send(&format!(
        "{}{}",
        request("POST", "/v1/aw/explore", &[], SLOW_QUERIES[0]),
        request("GET", "/v1/aw/stats", &[("X-Pad", &pad)], "")
    ));
    let explored = conn.recv();
    assert_eq!(explored.status, 200, "{}", explored.body);
    let stats = conn.recv();
    assert_eq!(stats.status, 200);
    assert!(!stats.body.contains("http.status.499"), "{}", stats.body);
    assert!(
        !stats.body.contains("http.disconnect_cancels"),
        "{}",
        stats.body
    );

    // A client that shuts down its sending side after the request looks
    // exactly like one that left: its query is cancelled. It can still
    // read, so it sees the 499.
    conn.send(&request("POST", "/v1/aw/explore", &[], SLOW_QUERIES[1]));
    conn.stream.shutdown(Shutdown::Write).expect("half-close");
    let reply = conn.recv();
    assert_eq!(reply.status, 499, "{}", reply.body);
    assert!(
        reply.body.contains("\"code\": \"cancelled\""),
        "{}",
        reply.body
    );
    assert!(conn.at_eof());
    let (_, _, after) = get(addr, "/v1/aw/stats");
    assert!(after.contains("\"http.disconnect_cancels\": 1"), "{after}");

    server.shutdown();
}
