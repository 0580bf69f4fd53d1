//! The `kdap` binary: open a warehouse (demo or spec-defined) and run
//! the interactive analytical console, a one-shot subcommand, or the
//! HTTP server. Every query path goes through the unified request API
//! ([`QueryRequest`] → [`Kdap::run`]).

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

use kdap_cli::render::render_interpretations;
use kdap_cli::stats::{stats_json, stats_text};
use kdap_cli::{parse_args, CliArgs, CliMode, Command, DataSource, Repl};
use kdap_core::{ApiError, CancelToken, Kdap, KdapError, QueryRequest, Verb, WireFormat};
use kdap_obs::{chrome_trace, LedgerEntry, QueryProfile, SlowQueryLedger, TraceId};
use kdap_server::{EngineRegistry, KdapServer, ServerConfig};

/// Ctrl-C cancels the in-flight query, not the process. The handler does
/// nothing but a relaxed atomic store through a pre-registered
/// [`CancelToken`] — the only async-signal-safe thing it could do.
///
/// The token is created by the console and scoped to its session via
/// [`kdap_core::KdapBuilder::cancel_token`]; one-shot subcommands and
/// `kdap serve` never install the handler, so SIGINT kills them normally
/// and server tenants are only ever cancelled by their own clients.
#[cfg(unix)]
mod sigint {
    use kdap_core::CancelToken;
    use std::sync::OnceLock;

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();

    extern "C" fn on_sigint(_sig: i32) {
        if let Some(token) = TOKEN.get() {
            token.cancel();
        }
    }

    /// Registers `token` and installs the SIGINT handler.
    pub fn install(token: CancelToken) {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        let _ = TOKEN.set(token);
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }
}
use kdap_datagen::{
    build_aw_online, build_aw_reseller, build_ebiz, build_trends, EbizScale, Scale, TrendsScale,
};
use kdap_warehouse::{load_spec, Warehouse};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let wh = build_warehouse(&args);

    let observability = args.profile
        || matches!(args.mode, CliMode::Profile(_))
        || matches!(args.mode, CliMode::Serve)
        || matches!(args.mode, CliMode::Slow);
    let mut builder = Kdap::builder(wh)
        .cache_capacity(64)
        .threads(args.threads)
        .observability(observability);
    if let Some(ms) = args.timeout_ms {
        builder = builder.deadline(Duration::from_millis(ms));
    }

    // Ctrl-C cancels the console's in-flight query. The token is owned
    // here and wired into this session only; non-console modes leave the
    // default SIGINT disposition alone.
    let cancel: Option<CancelToken> = {
        #[cfg(unix)]
        if args.mode == CliMode::Repl {
            let token = CancelToken::new();
            builder = builder.cancel_token(token.clone());
            sigint::install(token.clone());
            Some(token)
        } else {
            None
        }
        #[cfg(not(unix))]
        None
    };

    let kdap = match builder.build() {
        Ok(k) => k,
        Err(e) => {
            eprintln!("cannot open warehouse: {e} (a `measure` declaration is required)");
            std::process::exit(1);
        }
    };

    match &args.mode {
        CliMode::Profile(query) => {
            // One-shot profiles get an edge-minted trace id, same as
            // server requests, so CLI traces correlate with logs.
            let trace = TraceId::mint().to_string();
            let request =
                QueryRequest::new(Verb::Profile, query.as_str()).with_trace_id(trace.clone());
            match kdap.run(&request) {
                Ok(resp) => {
                    if let Some(path) = &args.trace_out {
                        let body = match &resp.profile {
                            Some(p) => chrome_trace(p),
                            None => chrome_trace(&QueryProfile::empty(query)),
                        };
                        if let Err(e) = std::fs::write(path, body) {
                            eprintln!("cannot write {path}: {e}");
                            std::process::exit(1);
                        }
                        eprintln!("wrote Chrome trace to {path} (open at https://ui.perfetto.dev)");
                    }
                    if args.json {
                        match resp.encode(WireFormat::Json) {
                            Ok(body) => print!("{body}"),
                            Err(e) => {
                                eprintln!("profile failed: {e}");
                                std::process::exit(1);
                            }
                        }
                    } else {
                        print!(
                            "{}",
                            render_interpretations(kdap.warehouse(), &resp.ranked, 3)
                        );
                        if let Some(p) = &resp.profile {
                            print!("{}", p.render());
                        }
                    }
                }
                Err(KdapError::NoInterpretation { .. } | KdapError::EmptyQuery) => {
                    println!("no interpretation found for \"{query}\"");
                }
                Err(e) => {
                    eprintln!("profile failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        CliMode::Stats => {
            if args.json {
                println!("{}", stats_json(&kdap));
            } else {
                print!("{}", stats_text(&kdap));
            }
        }
        CliMode::Serve => serve(&args, kdap),
        CliMode::Slow => slow(&args, kdap),
        CliMode::Repl => repl(kdap, cancel),
    }
}

/// `kdap slow`: run each stdin line as a profile query through a
/// slow-query ledger and print the most interesting entries — the same
/// retention policy the server applies at `GET /v1/{tenant}/slow`.
fn slow(args: &CliArgs, kdap: Kdap) {
    let ledger = SlowQueryLedger::new(16);
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let keywords = line.trim();
        if keywords.is_empty() {
            continue;
        }
        let trace = TraceId::mint().to_string();
        let mut request = QueryRequest::new(Verb::Profile, keywords).with_trace_id(trace.clone());
        if let Some(ms) = args.timeout_ms {
            request.options.timeout_ms = Some(ms);
        }
        let started = std::time::Instant::now();
        let result = kdap.run(&request);
        let latency_ns = started.elapsed().as_nanos() as u64;
        // The status and breach the server would answer with.
        let (status, breach, profile) = match &result {
            Ok(resp) => (200, None, resp.profile.clone()),
            Err(err) => {
                let api = ApiError::from_kdap(err);
                (api.status, api.breach().map(str::to_string), None)
            }
        };
        ledger.record(LedgerEntry {
            trace_id: Some(trace),
            verb: "profile".to_string(),
            keywords: keywords.to_string(),
            latency_ns,
            status,
            breach,
            profile,
        });
    }
    if args.json {
        println!("{}", ledger.to_json());
    } else if ledger.is_empty() {
        println!("slow-query ledger is empty (no queries read from stdin)");
    } else {
        println!("slow-query ledger — most interesting first:");
        for entry in ledger.snapshot() {
            let breach = entry
                .breach
                .as_deref()
                .map(|b| format!(" breach={b}"))
                .unwrap_or_default();
            println!(
                "  {:>10}  status={}{}  trace={}  {}",
                kdap_obs::fmt_ns(entry.latency_ns),
                entry.status,
                breach,
                entry.trace_id.as_deref().unwrap_or("-"),
                entry.keywords,
            );
        }
    }
}

/// Builds the warehouse the invocation asked for, exiting with a
/// diagnostic when a spec is missing or invalid.
fn build_warehouse(args: &CliArgs) -> Warehouse {
    match &args.source {
        DataSource::DemoEbiz => {
            eprintln!("building the EBiz demo warehouse…");
            let scale = if args.small {
                EbizScale::small()
            } else {
                EbizScale::full()
            }
            .scaled(args.scale);
            build_ebiz(scale, args.seed).expect("demo generator is valid")
        }
        DataSource::DemoAwOnline => {
            eprintln!("building AW_ONLINE…");
            let scale = if args.small {
                Scale::small()
            } else {
                Scale::full()
            }
            .scaled(args.scale);
            build_aw_online(scale, args.seed).expect("demo generator is valid")
        }
        DataSource::DemoAwReseller => {
            eprintln!("building AW_RESELLER…");
            let scale = if args.small {
                Scale::small()
            } else {
                Scale::full()
            }
            .scaled(args.scale);
            build_aw_reseller(scale, args.seed).expect("demo generator is valid")
        }
        DataSource::DemoTrends => {
            eprintln!("building the query-log demo warehouse…");
            let scale = if args.small {
                TrendsScale::small()
            } else {
                TrendsScale::full()
            }
            .scaled(args.scale);
            build_trends(scale, args.seed).expect("demo generator is valid")
        }
        DataSource::Spec(path) => {
            let spec_dir = std::path::Path::new(path)
                .parent()
                .map(|p| p.to_path_buf())
                .unwrap_or_default();
            let spec = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read spec {path}: {e}");
                    std::process::exit(1);
                }
            };
            match load_spec(&spec, |file| {
                std::fs::read_to_string(spec_dir.join(file)).map_err(|e| e.to_string())
            }) {
                Ok(wh) => wh,
                Err(e) => {
                    eprintln!("invalid warehouse spec: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// The tenant name a data source is served under.
fn tenant_name(source: &DataSource) -> String {
    match source {
        DataSource::DemoEbiz => "ebiz".to_string(),
        DataSource::DemoAwOnline => "aw-online".to_string(),
        DataSource::DemoAwReseller => "aw-reseller".to_string(),
        DataSource::DemoTrends => "trends".to_string(),
        DataSource::Spec(path) => std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("warehouse")
            .to_string(),
    }
}

/// `kdap serve`: host the warehouse behind the HTTP query API until the
/// process is killed.
fn serve(args: &CliArgs, kdap: Kdap) {
    let name = tenant_name(&args.source);
    let registry = EngineRegistry::new().with(name.clone(), Arc::new(kdap));
    let config = ServerConfig {
        listen: args.listen.clone(),
        port: args.port,
        workers: args.workers,
        max_inflight: args.max_inflight,
        log: args.log.clone(),
        ..ServerConfig::default()
    };
    let server = match KdapServer::start(registry, &config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}:{}: {e}", config.listen, config.port);
            std::process::exit(1);
        }
    };
    println!(
        "kdap-server listening on http://{} — try: curl -s http://{}/v1/{}/stats",
        server.addr(),
        server.addr(),
        name
    );
    // Serve until killed; the worker pool owns all the work.
    loop {
        std::thread::park();
    }
}

/// The interactive console loop over stdio.
fn repl(kdap: Kdap, cancel: Option<CancelToken>) {
    let mut repl = Repl::new(kdap);
    println!("KDAP console ready — `help` lists commands. Try: q Columbus LCD");

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("kdap> ");
        stdout.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                // Ctrl-C at the prompt: nothing in flight; re-prompt.
                println!();
                continue;
            }
            Err(_) => break,
        }
        // A Ctrl-C that landed between queries must not cancel the next.
        if let Some(token) = &cancel {
            token.reset();
        }
        match Command::parse(&line) {
            Ok(cmd) => match repl.execute(cmd, &mut stdout) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    eprintln!("io error: {e}");
                    break;
                }
            },
            Err(msg) if msg.is_empty() => {}
            Err(msg) => println!("{msg}"),
        }
    }
    println!("bye.");
}
