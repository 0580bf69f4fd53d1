//! # kdap-cli
//!
//! The `kdap` command: an interactive keyword-driven analytical
//! processing console over either the built-in demo warehouses or your
//! own CSV data described by a [`kdap_warehouse::spec`] file.
//!
//! ```text
//! kdap --demo ebiz                 # paper's running example (Figure 2)
//! kdap --demo aw-online --small    # AdventureWorks-style internet sales
//! kdap --spec my_warehouse.spec    # your data
//! ```

#![forbid(unsafe_code)]

pub mod command;
pub mod render;
pub mod repl;
pub mod stats;

pub use command::Command;
pub use repl::Repl;

/// Which warehouse to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataSource {
    DemoEbiz,
    DemoAwOnline,
    DemoAwReseller,
    DemoTrends,
    Spec(String),
}

/// What the invocation does: the interactive console (default) or a
/// one-shot subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliMode {
    /// Interactive console (no subcommand).
    Repl,
    /// `kdap profile <keywords…>` — run the query once and print the
    /// per-stage timing tree.
    Profile(String),
    /// `kdap stats` — print catalog statistics and exit.
    Stats,
    /// `kdap serve` — expose the warehouse over HTTP behind the unified
    /// query API until killed.
    Serve,
    /// `kdap slow` — run queries read from stdin (one per line) through
    /// a slow-query ledger and print the most interesting ones.
    Slow,
}

/// Parsed command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    pub source: DataSource,
    pub small: bool,
    /// `--scale N`: multiply the demo generator's scale (1..=200). Fact
    /// rows grow linearly, dimension tables by `√N`. Ignored with
    /// `--spec`.
    pub scale: usize,
    pub seed: u64,
    /// Worker threads for the parallel execution engine (1 = serial,
    /// 0 = all cores).
    pub threads: usize,
    /// One-shot subcommand, or the console.
    pub mode: CliMode,
    /// `--profile`: enable the observability recorder, so the `profile`
    /// console command works.
    pub profile: bool,
    /// `--json`: machine-readable output for one-shot subcommands.
    pub json: bool,
    /// `--timeout-ms N`: per-query deadline; queries that exceed it abort
    /// with a timeout error instead of running to completion.
    pub timeout_ms: Option<u64>,
    /// `--listen ADDR` (serve): interface to bind.
    pub listen: String,
    /// `--port N` (serve): port to bind; `0` picks an ephemeral port.
    pub port: u16,
    /// `--workers N` (serve): HTTP worker threads.
    pub workers: usize,
    /// `--max-inflight N` (serve): per-tenant admission cap; requests
    /// over it receive a typed 429.
    pub max_inflight: usize,
    /// `--log SPEC` (serve): structured JSONL access-log destination
    /// (`stderr` or a file path); `None` disables logging.
    pub log: Option<String>,
    /// `--trace-out PATH` (profile): also write the profile as a Chrome
    /// trace-event JSON file loadable in Perfetto.
    pub trace_out: Option<String>,
}

/// Parses `kdap` arguments (everything after `argv[0]`).
pub fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut source = None;
    let mut small = false;
    let mut scale = 1usize;
    let mut seed = 42u64;
    let mut threads = 1usize;
    let mut profile = false;
    let mut json = false;
    let mut timeout_ms = None;
    let mut listen = "127.0.0.1".to_string();
    let mut port = 8642u16;
    let mut workers = 4usize;
    let mut max_inflight = 64usize;
    let mut log = None;
    let mut trace_out = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--demo" => {
                let which = it.next().ok_or("--demo needs a name")?;
                source = Some(match which.as_str() {
                    "ebiz" => DataSource::DemoEbiz,
                    "aw-online" => DataSource::DemoAwOnline,
                    "aw-reseller" => DataSource::DemoAwReseller,
                    "trends" => DataSource::DemoTrends,
                    other => {
                        return Err(format!(
                            "unknown demo `{other}` (ebiz|aw-online|aw-reseller|trends)"
                        ))
                    }
                });
            }
            "--spec" => {
                let path = it.next().ok_or("--spec needs a path")?;
                source = Some(DataSource::Spec(path.clone()));
            }
            "--small" => small = true,
            "--scale" => {
                scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|_| "--scale must be an integer".to_string())?;
                if !(1..=200).contains(&scale) {
                    return Err("--scale must be in 1..=200".into());
                }
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--threads" => {
                threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|_| "--threads must be an integer".to_string())?;
            }
            "--profile" => profile = true,
            "--json" => json = true,
            "--timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--timeout-ms needs a value")?
                    .parse()
                    .map_err(|_| "--timeout-ms must be an integer".to_string())?;
                if ms == 0 {
                    return Err("--timeout-ms must be positive".into());
                }
                timeout_ms = Some(ms);
            }
            "--listen" => {
                listen = it.next().ok_or("--listen needs an address")?.clone();
            }
            "--port" => {
                port = it
                    .next()
                    .ok_or("--port needs a value")?
                    .parse()
                    .map_err(|_| "--port must be 0..=65535".to_string())?;
            }
            "--workers" => {
                workers = it
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|_| "--workers must be an integer".to_string())?;
            }
            "--max-inflight" => {
                max_inflight = it
                    .next()
                    .ok_or("--max-inflight needs a value")?
                    .parse()
                    .map_err(|_| "--max-inflight must be an integer".to_string())?;
            }
            "--log" => {
                log = Some(it.next().ok_or("--log needs `stderr` or a path")?.clone());
            }
            "--trace-out" => {
                trace_out = Some(it.next().ok_or("--trace-out needs a path")?.clone());
            }
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let mode = match positional.split_first() {
        None => CliMode::Repl,
        Some((cmd, rest)) => match cmd.as_str() {
            "profile" => {
                if rest.is_empty() {
                    return Err("usage: kdap profile <keywords…>".into());
                }
                CliMode::Profile(rest.join(" "))
            }
            "stats" => {
                if !rest.is_empty() {
                    return Err("`kdap stats` takes no further arguments".into());
                }
                CliMode::Stats
            }
            "serve" => {
                if !rest.is_empty() {
                    return Err("`kdap serve` takes no further arguments".into());
                }
                CliMode::Serve
            }
            "slow" => {
                if !rest.is_empty() {
                    return Err("`kdap slow` takes no further arguments (reads stdin)".into());
                }
                CliMode::Slow
            }
            other => return Err(format!("unknown subcommand `{other}`\n{}", usage())),
        },
    };
    Ok(CliArgs {
        source: source.unwrap_or(DataSource::DemoEbiz),
        small,
        scale,
        seed,
        threads,
        mode,
        profile,
        json,
        timeout_ms,
        listen,
        port,
        workers,
        max_inflight,
        log,
        trace_out,
    })
}

/// The usage banner.
pub fn usage() -> String {
    "usage: kdap [profile <keywords…> | stats | serve | slow] \
     [--demo ebiz|aw-online|aw-reseller|trends] [--spec FILE] \
     [--small] [--scale N] [--seed N] [--threads N] [--profile] [--json] \
     [--timeout-ms N] [--trace-out FILE] \
     [--listen ADDR] [--port N] [--workers N] [--max-inflight N] [--log stderr|FILE]"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_to_ebiz_demo() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(a.source, DataSource::DemoEbiz);
        assert!(!a.small);
        assert_eq!(a.seed, 42);
        assert_eq!(a.threads, 1);
        assert_eq!(a.mode, CliMode::Repl);
        assert!(!a.profile);
        assert!(!a.json);
        assert_eq!(a.timeout_ms, None);
    }

    #[test]
    fn parses_scale() {
        assert_eq!(parse_args(&[]).unwrap().scale, 1);
        let a = parse_args(&args(&["--scale", "20"])).unwrap();
        assert_eq!(a.scale, 20);
        assert!(parse_args(&args(&["--scale"])).is_err());
        assert!(parse_args(&args(&["--scale", "0"])).is_err());
        assert!(parse_args(&args(&["--scale", "201"])).is_err());
        assert!(parse_args(&args(&["--scale", "xyz"])).is_err());
    }

    #[test]
    fn parses_timeout_ms() {
        let a = parse_args(&args(&["--timeout-ms", "250"])).unwrap();
        assert_eq!(a.timeout_ms, Some(250));
        assert!(parse_args(&args(&["--timeout-ms"])).is_err());
        assert!(parse_args(&args(&["--timeout-ms", "abc"])).is_err());
        assert!(parse_args(&args(&["--timeout-ms", "0"])).is_err());
    }

    #[test]
    fn parses_profile_subcommand() {
        let a = parse_args(&args(&["profile", "columbus", "lcd"])).unwrap();
        assert_eq!(a.mode, CliMode::Profile("columbus lcd".into()));
        let a = parse_args(&args(&["--demo", "ebiz", "profile", "tv", "--json"])).unwrap();
        assert_eq!(a.mode, CliMode::Profile("tv".into()));
        assert!(a.json);
        assert!(parse_args(&args(&["profile"])).is_err());
    }

    #[test]
    fn parses_stats_subcommand_and_flags() {
        let a = parse_args(&args(&["stats", "--json"])).unwrap();
        assert_eq!(a.mode, CliMode::Stats);
        assert!(a.json);
        let a = parse_args(&args(&["--profile"])).unwrap();
        assert!(a.profile);
        assert_eq!(a.mode, CliMode::Repl);
        assert!(parse_args(&args(&["stats", "extra"])).is_err());
        assert!(parse_args(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn parses_serve_subcommand_and_flags() {
        let a = parse_args(&args(&["serve"])).unwrap();
        assert_eq!(a.mode, CliMode::Serve);
        assert_eq!(a.listen, "127.0.0.1");
        assert_eq!(a.port, 8642);
        assert_eq!(a.workers, 4);
        assert_eq!(a.max_inflight, 64);
        let a = parse_args(&args(&[
            "serve",
            "--listen",
            "0.0.0.0",
            "--port",
            "9000",
            "--workers",
            "8",
            "--max-inflight",
            "2",
        ]))
        .unwrap();
        assert_eq!(a.listen, "0.0.0.0");
        assert_eq!(a.port, 9000);
        assert_eq!(a.workers, 8);
        assert_eq!(a.max_inflight, 2);
        assert!(parse_args(&args(&["serve", "extra"])).is_err());
        assert!(parse_args(&args(&["--port", "notaport"])).is_err());
        assert!(parse_args(&args(&["--port", "70000"])).is_err());
        assert!(parse_args(&args(&["--workers"])).is_err());
        assert!(parse_args(&args(&["--max-inflight", "x"])).is_err());
    }

    #[test]
    fn parses_telemetry_flags() {
        let a = parse_args(&args(&["serve", "--log", "stderr"])).unwrap();
        assert_eq!(a.log, Some("stderr".into()));
        let a = parse_args(&args(&["serve", "--log", "/tmp/access.jsonl"])).unwrap();
        assert_eq!(a.log, Some("/tmp/access.jsonl".into()));
        assert_eq!(parse_args(&args(&["serve"])).unwrap().log, None);
        assert!(parse_args(&args(&["serve", "--log"])).is_err());

        let a = parse_args(&args(&["profile", "tv", "--trace-out", "t.json"])).unwrap();
        assert_eq!(a.mode, CliMode::Profile("tv".into()));
        assert_eq!(a.trace_out, Some("t.json".into()));
        assert!(parse_args(&args(&["profile", "tv", "--trace-out"])).is_err());
    }

    #[test]
    fn parses_slow_subcommand() {
        let a = parse_args(&args(&["slow"])).unwrap();
        assert_eq!(a.mode, CliMode::Slow);
        let a = parse_args(&args(&["slow", "--json"])).unwrap();
        assert!(a.json);
        assert!(parse_args(&args(&["slow", "extra"])).is_err());
    }

    #[test]
    fn parses_demo_and_flags() {
        let a = parse_args(&args(&[
            "--demo",
            "aw-online",
            "--small",
            "--seed",
            "7",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(a.source, DataSource::DemoAwOnline);
        assert!(a.small);
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, 4);
    }

    #[test]
    fn parses_spec_path() {
        let a = parse_args(&args(&["--spec", "wh.spec"])).unwrap();
        assert_eq!(a.source, DataSource::Spec("wh.spec".into()));
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse_args(&args(&["--demo", "nope"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["--seed", "abc"])).is_err());
        assert!(parse_args(&args(&["--threads", "x"])).is_err());
        assert!(parse_args(&args(&["--demo"])).is_err());
    }
}
