//! Experiment E16 — multi-tenant server load test.
//!
//! Drives an in-process [`KdapServer`] (the same engine `kdap serve`
//! runs) with N concurrent client connections over a mixed request
//! stream — keyword explorations, differentiations, and stats reads —
//! split across two tenants, and reports per-tenant throughput and
//! latency percentiles. Each client thread holds one persistent
//! connection, as an HTTP client library would, and reconnects only when
//! the server answers `Connection: close`; the server runs one worker
//! per client, so it never has to.
//!
//! With `--check`, the run exits nonzero when any request fails (a
//! non-2xx status) — the CI smoke gate. Admission-control 429s count as
//! failures here because the drive rate is sized under `max_inflight`.
//!
//! A full run writes `results/BENCH_serve.json` (the committed copy);
//! `--small` is a smoke run and writes `target/BENCH_serve.json`.
//!
//! Run:
//!   cargo run --release -p kdap-bench --bin exp_serve
//!   cargo run --release -p kdap-bench --bin exp_serve -- --small --clients=4 --check

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use kdap_bench::{bench_json, print_table, write_bench_json};
use kdap_core::Kdap;
use kdap_datagen::{
    build_aw_online, build_ebiz, generate_workload, EbizScale, Scale, WorkloadConfig,
};
use kdap_obs::{lint_exposition, JsonWriter, Layout};
use kdap_server::{EngineRegistry, KdapServer, ServerConfig};

/// One completed request: tenant index, action, latency, HTTP status.
struct Sample {
    tenant: usize,
    action: &'static str,
    micros: u64,
    status: u16,
}

const TENANTS: [&str; 2] = ["aw", "ebiz"];

/// Minimal HTTP/1.1 client: one connection, reused until the server
/// says `Connection: close`; responses are delimited by
/// `Content-Length`.
struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    /// Bytes read past the previous response on `conn`.
    carry: Vec<u8>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            carry: Vec::new(),
        }
    }

    /// Sends one request; returns the status code (0 on transport
    /// error) and the response body. A request that dies on a reused
    /// connection (the server closed it while idle) is sent once more
    /// on a fresh one; every KDAP endpoint is idempotent.
    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let reused = self.conn.is_some();
        match self.exchange(method, path, body) {
            Err(_) if reused => self.exchange(method, path, body),
            other => other,
        }
        .unwrap_or_default()
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let mut stream = match self.conn.take() {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                self.carry.clear();
                stream
            }
        };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: kdap\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes())?;

        let mut buf = std::mem::take(&mut self.carry);
        let mut chunk = [0u8; 8192];
        let mut read_more = |buf: &mut Vec<u8>| -> io::Result<()> {
            match stream.read(&mut chunk)? {
                0 => Err(io::ErrorKind::UnexpectedEof.into()),
                n => {
                    buf.extend_from_slice(&chunk[..n]);
                    Ok(())
                }
            }
        };
        let head_end = loop {
            if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at;
            }
            read_more(&mut buf)?;
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_ascii_lowercase();
        let header = |name: &str| {
            head.lines()
                .filter_map(|l| l.split_once(':'))
                .find(|(n, _)| n.trim() == name)
                .map(|(_, v)| v.trim())
        };
        let malformed = || io::Error::from(io::ErrorKind::InvalidData);
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(malformed)?;
        let length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(malformed)?;
        let close = header("connection") == Some("close");
        let body_end = head_end + 4 + length;
        while buf.len() < body_end {
            read_more(&mut buf)?;
        }
        self.carry = buf.split_off(body_end);
        let body = String::from_utf8_lossy(&buf[head_end + 4..]).into_owned();
        if !close {
            self.conn = Some(stream);
        }
        Ok((status, body))
    }
}

/// The request mix one client thread walks, round-robin: index `i`
/// picks the tenant, the keyword, and the action; `offset` staggers each
/// client into the cycle so tenants and actions interleave across the
/// fleet.
fn drive(
    addr: SocketAddr,
    keywords: &[Vec<String>],
    requests: usize,
    offset: usize,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(requests);
    let mut client = Client::new(addr);
    for i in (offset..).take(requests) {
        // Shift the tenant by the mix cycle so every action lands on
        // every tenant (plain `i % 2` would pin odd actions to one).
        let tenant = (i + i / 6) % TENANTS.len();
        let t = TENANTS[tenant];
        let (action, method, path, body): (&'static str, _, String, String) = match i % 6 {
            5 => ("stats", "GET", format!("/v1/{t}/stats"), String::new()),
            3 => {
                let kw = &keywords[tenant][i / 2 % keywords[tenant].len()];
                (
                    "differentiate",
                    "POST",
                    format!("/v1/{t}/differentiate"),
                    request_body(kw, None),
                )
            }
            _ => {
                let kw = &keywords[tenant][i / 2 % keywords[tenant].len()];
                (
                    "explore",
                    "POST",
                    format!("/v1/{t}/explore"),
                    request_body(kw, None),
                )
            }
        };
        let t0 = Instant::now();
        let (status, _) = client.request(method, &path, &body);
        out.push(Sample {
            tenant,
            action,
            micros: t0.elapsed().as_micros() as u64,
            status,
        });
    }
    out
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `{"keywords": …}`, with a `timeout_ms` when one is given.
fn request_body(keywords: &str, timeout_ms: Option<u64>) -> String {
    let mut out = String::new();
    JsonWriter::new(&mut out).object(Layout::Inline, |w| {
        w.key("keywords").str(keywords);
        if let Some(ms) = timeout_ms {
            w.key("timeout_ms").int(ms);
        }
    });
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a.contains("small"));
    let check = args.iter().any(|a| a == "--check");
    let clients: usize = args
        .iter()
        .find_map(|a| a.strip_prefix("--clients="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let per_client: usize = args
        .iter()
        .find_map(|a| a.strip_prefix("--requests="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if small { 30 } else { 120 });

    eprintln!("building tenants...");
    let aw = build_aw_online(Scale::small(), 42).expect("generator is valid");
    let ebiz = build_ebiz(EbizScale::small(), 7).expect("generator is valid");
    let kw_aw: Vec<String> = generate_workload(&aw, &WorkloadConfig::default())
        .iter()
        .take(16)
        .map(|q| q.text())
        .collect();
    let kw_ebiz: Vec<String> = generate_workload(&ebiz, &WorkloadConfig::default())
        .iter()
        .take(16)
        .map(|q| q.text())
        .collect();
    let keywords = vec![kw_aw, kw_ebiz];
    let registry = EngineRegistry::new()
        .with(
            TENANTS[0],
            Arc::new(
                Kdap::builder(aw)
                    .cache_capacity(64)
                    .observability(true)
                    .build()
                    .expect("measure defined"),
            ),
        )
        .with(
            TENANTS[1],
            Arc::new(
                Kdap::builder(ebiz)
                    .cache_capacity(64)
                    .observability(true)
                    .build()
                    .expect("measure defined"),
            ),
        );
    let config = ServerConfig {
        port: 0,
        workers: clients.max(4),
        ..ServerConfig::default()
    };
    let server = KdapServer::start(registry, &config).expect("ephemeral bind");
    let addr = server.addr();
    eprintln!("server on {addr}, {clients} clients x {per_client} requests");

    let t0 = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let keywords = &keywords;
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || drive(addr, keywords, per_client, c)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    // Telemetry sweep: provoke one governor breach per tenant (instant
    // deadline → typed 408), then scrape the cross-tenant Prometheus
    // exposition and lint it with the in-repo checker.
    let mut client = Client::new(addr);
    for (tenant, kws) in TENANTS.iter().zip(&keywords) {
        let kw = kws.first().map(String::as_str).unwrap_or("sales");
        let (status, _) = client.request(
            "POST",
            &format!("/v1/{tenant}/explore"),
            &request_body(kw, Some(0)),
        );
        assert_eq!(status, 408, "instant deadline on `{tenant}` must breach");
    }
    let (status, exposition) = client.request("GET", "/metrics", "");
    assert_eq!(status, 200, "/metrics must serve under load");
    let prom_samples = match lint_exposition(&exposition) {
        Ok(n) => n,
        Err(e) => panic!("/metrics exposition failed lint: {e}"),
    };
    for t in TENANTS {
        assert!(
            exposition.contains(&format!("tenant=\"{t}\"")),
            "exposition must label tenant `{t}`"
        );
    }
    for needle in [
        "kdap_http_requests",
        "kdap_http_explore_latency_ns_bucket{",
        "kdap_governor_timeouts",
    ] {
        assert!(
            exposition.contains(needle),
            "exposition must carry {needle}"
        );
    }
    eprintln!("metrics: {prom_samples} prometheus samples, lint clean, both tenants labeled");

    server.shutdown();

    // Aggregate per (tenant, action) and per tenant.
    let mut by_key: BTreeMap<(usize, &'static str), Vec<u64>> = BTreeMap::new();
    let mut failures = 0usize;
    for sm in &samples {
        if !(200..300).contains(&sm.status) {
            failures += 1;
        }
        by_key
            .entry((sm.tenant, sm.action))
            .or_default()
            .push(sm.micros);
    }
    let total = samples.len();
    println!(
        "## E16 — server load ({clients} clients, {total} requests, {:.2}s wall, \
         {:.0} req/s, {failures} failures)\n",
        wall_s,
        total as f64 / wall_s
    );
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for ((tenant, action), mut lat) in by_key {
        lat.sort_unstable();
        let (p50, p95, p99) = (
            percentile(&lat, 0.50),
            percentile(&lat, 0.95),
            percentile(&lat, 0.99),
        );
        rows.push(vec![
            TENANTS[tenant].to_string(),
            action.to_string(),
            format!("{}", lat.len()),
            format!("{:.2}", p50 as f64 / 1e3),
            format!("{:.2}", p95 as f64 / 1e3),
            format!("{:.2}", p99 as f64 / 1e3),
        ]);
        json_rows.push((TENANTS[tenant], action, lat.len(), [p50, p95, p99]));
    }
    print_table(
        &["tenant", "action", "requests", "p50 ms", "p95 ms", "p99 ms"],
        &rows,
    );

    let json = bench_json("E16", small, |w| {
        w.key("clients").int(clients).key("requests").int(total);
        w.key("wall_s").fixed(wall_s, 3);
        w.key("throughput_rps").fixed(total as f64 / wall_s, 1);
        w.key("failures").int(failures);
        w.key("latencies").array(Layout::Block, |w| {
            for (tenant, action, requests, micros) in &json_rows {
                w.object(Layout::Inline, |w| {
                    w.key("tenant").str(tenant).key("action").str(action);
                    w.key("requests").int(*requests);
                    for (key, us) in ["p50_ms", "p95_ms", "p99_ms"].into_iter().zip(micros) {
                        w.key(key).fixed(*us as f64 / 1e3, 3);
                    }
                });
            }
        });
    });
    write_bench_json("BENCH_serve.json", small, &json);

    if check {
        assert!(
            failures == 0,
            "{failures} of {total} requests failed under load"
        );
        println!("\ncheck passed: {total} requests, zero failures");
    }
}
