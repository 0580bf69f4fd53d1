//! REPL command grammar, parsed independently of execution so it can be
//! tested without a warehouse.

use kdap_core::{FacetOrder, InterestMode};

/// One console command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `q <keywords>` — differentiate phase.
    Query(String),
    /// `pick <n>` — choose interpretation #n (1-based) and explore.
    Pick(usize),
    /// `drill <facet#> <entry#>`.
    Drill(usize, usize),
    /// `up <constraint#>` — roll up.
    RollUp(usize),
    /// `drop <constraint#>` — remove a constraint.
    Drop(usize),
    /// `mode surprise|bellwether`.
    Mode(InterestMode),
    /// `order dynamic|consistent|hybrid <pinned>`.
    Order(FacetOrder),
    /// `profile <keywords>` — run the query end to end and print the
    /// per-stage timing tree (needs `--profile`).
    Profile(String),
    /// `explain` — the current request's stage tree, without clocks.
    Explain,
    /// `show` — re-print the current facets.
    Show,
    /// `stats` — session statistics (cache, index sizes).
    Stats,
    /// `schema` — describe the warehouse schema.
    Schema,
    /// `save <dir>` — persist the warehouse as spec + CSVs.
    Save(String),
    Help,
    Quit,
}

impl Command {
    /// Parses one console line. `Err` carries a usage message.
    pub fn parse(line: &str) -> Result<Command, String> {
        let line = line.trim();
        if line.is_empty() {
            return Err(String::new());
        }
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        let rest = rest.trim();
        let int = |s: &str, usage: &str| -> Result<usize, String> {
            s.parse::<usize>().map_err(|_| usage.to_string())
        };
        match cmd {
            "q" | "query" => {
                if rest.is_empty() {
                    Err("usage: q <keywords>".into())
                } else {
                    Ok(Command::Query(rest.to_string()))
                }
            }
            "pick" => Ok(Command::Pick(int(rest, "usage: pick <n>")?)),
            "drill" => {
                let mut parts = rest.split_whitespace();
                let usage = "usage: drill <facet#> <entry#>";
                let f = int(parts.next().unwrap_or(""), usage)?;
                let e = int(parts.next().unwrap_or(""), usage)?;
                Ok(Command::Drill(f, e))
            }
            "up" => Ok(Command::RollUp(int(rest, "usage: up <constraint#>")?)),
            "drop" => Ok(Command::Drop(int(rest, "usage: drop <constraint#>")?)),
            "mode" => match rest {
                "surprise" => Ok(Command::Mode(InterestMode::Surprise)),
                "bellwether" => Ok(Command::Mode(InterestMode::Bellwether)),
                _ => Err("usage: mode surprise|bellwether".into()),
            },
            "order" => {
                let mut parts = rest.split_whitespace();
                match parts.next() {
                    Some("dynamic") => Ok(Command::Order(FacetOrder::Dynamic)),
                    Some("consistent") => Ok(Command::Order(FacetOrder::Consistent)),
                    Some("hybrid") => {
                        let pinned =
                            int(parts.next().unwrap_or(""), "usage: order hybrid <pinned>")?;
                        Ok(Command::Order(FacetOrder::Hybrid { pinned }))
                    }
                    _ => Err("usage: order dynamic|consistent|hybrid <pinned>".into()),
                }
            }
            "profile" => {
                if rest.is_empty() {
                    Err("usage: profile <keywords>".into())
                } else {
                    Ok(Command::Profile(rest.to_string()))
                }
            }
            "explain" => Ok(Command::Explain),
            "show" => Ok(Command::Show),
            "stats" => Ok(Command::Stats),
            "schema" => Ok(Command::Schema),
            "save" => {
                if rest.is_empty() {
                    Err("usage: save <directory>".into())
                } else {
                    Ok(Command::Save(rest.to_string()))
                }
            }
            "help" | "?" => Ok(Command::Help),
            "quit" | "exit" => Ok(Command::Quit),
            other => Err(format!("unknown command `{other}` — try `help`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(
            Command::parse("q Columbus LCD"),
            Ok(Command::Query("Columbus LCD".into()))
        );
        assert_eq!(Command::parse("pick 2"), Ok(Command::Pick(2)));
        assert_eq!(Command::parse("drill 3 1"), Ok(Command::Drill(3, 1)));
        assert_eq!(Command::parse("up 1"), Ok(Command::RollUp(1)));
        assert_eq!(Command::parse("drop 2"), Ok(Command::Drop(2)));
        assert_eq!(
            Command::parse("mode bellwether"),
            Ok(Command::Mode(InterestMode::Bellwether))
        );
        assert_eq!(
            Command::parse("order hybrid 2"),
            Ok(Command::Order(FacetOrder::Hybrid { pinned: 2 }))
        );
        assert_eq!(
            Command::parse("order dynamic"),
            Ok(Command::Order(FacetOrder::Dynamic))
        );
        assert_eq!(Command::parse("show"), Ok(Command::Show));
        assert_eq!(Command::parse("explain"), Ok(Command::Explain));
        assert_eq!(
            Command::parse("profile columbus lcd"),
            Ok(Command::Profile("columbus lcd".into()))
        );
        assert_eq!(Command::parse("stats"), Ok(Command::Stats));
        assert_eq!(Command::parse("schema"), Ok(Command::Schema));
        assert_eq!(
            Command::parse("save /tmp/wh"),
            Ok(Command::Save("/tmp/wh".into()))
        );
        assert_eq!(Command::parse("help"), Ok(Command::Help));
        assert_eq!(Command::parse("quit"), Ok(Command::Quit));
    }

    #[test]
    fn whitespace_and_aliases() {
        assert_eq!(
            Command::parse("  query   tv sales  "),
            Ok(Command::Query("tv sales".into()))
        );
        assert_eq!(Command::parse("exit"), Ok(Command::Quit));
        assert_eq!(Command::parse("?"), Ok(Command::Help));
    }

    #[test]
    fn usage_errors() {
        assert!(Command::parse("q").is_err());
        assert!(Command::parse("pick x").is_err());
        assert!(Command::parse("drill 1").is_err());
        assert!(Command::parse("mode sideways").is_err());
        assert!(Command::parse("order hybrid").is_err());
        assert!(Command::parse("save").is_err());
        assert!(Command::parse("profile").is_err());
        assert!(Command::parse("frobnicate").is_err());
        assert!(Command::parse("").is_err());
    }
}
