//! Interactive KDAP session — the paper's user experience as a terminal
//! REPL: type keywords, pick an interpretation, browse dynamic facets,
//! drill down / roll up / slice, switch between surprise and bellwether
//! interestingness.
//!
//! Commands:
//!   q <keywords>      run a keyword query (differentiate phase)
//!   pick <n>          choose interpretation #n and explore it
//!   drill <n> <m>     drill into entry m of facet n of the last panel view
//!   up <n>            roll up the n-th constraint of the current net
//!   drop <n>          remove the n-th constraint (undo a slice)
//!   mode <surprise|bellwether>
//!   show              re-print the current facets
//!   help / quit
//!
//! Run: `cargo run --release --example analyst_repl` (reads stdin; pipe a
//! script for non-interactive use, e.g.
//! `printf 'q Columbus LCD\npick 1\nquit\n' | cargo run --example analyst_repl`)

use std::io::{BufRead, Write};

use kdap_suite::core::interest::InterestMode;
use kdap_suite::core::{
    drill_down, materialize, remove_constraint, roll_up, Exploration, Kdap, QueryOptions, StarNet,
};
use kdap_suite::datagen::{build_ebiz, EbizScale};
use kdap_suite::query::paths_between;
use kdap_suite::textindex::snippet;

struct Repl {
    kdap: Kdap,
    /// Console toggles, applied per explore call.
    options: QueryOptions,
    interpretations: Vec<kdap_suite::core::RankedStarNet>,
    current: Option<StarNet>,
    exploration: Option<Exploration>,
    last_keywords: Vec<String>,
}

fn main() {
    println!("building the EBiz warehouse…");
    let wh = build_ebiz(EbizScale::full(), 42).expect("generator is valid");
    let mut repl = Repl {
        kdap: Kdap::builder(wh).build().expect("measure defined"),
        options: QueryOptions::default(),
        interpretations: Vec::new(),
        current: None,
        exploration: None,
        last_keywords: Vec::new(),
    };
    println!("KDAP analyst console — `help` lists commands. Try: q Columbus LCD");

    let stdin = std::io::stdin();
    loop {
        print!("kdap> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        match cmd {
            "q" | "query" => repl.query(rest),
            "pick" => repl.pick(rest),
            "drill" => repl.drill(rest),
            "up" => repl.up(rest),
            "drop" => repl.drop(rest),
            "mode" => repl.mode(rest),
            "show" => repl.show(),
            "help" => help(),
            "quit" | "exit" => break,
            other => println!("unknown command `{other}` — try `help`"),
        }
    }
    println!("bye.");
}

fn help() {
    println!(
        "  q <keywords>           differentiate: list ranked interpretations\n\
         pick <n>               explore interpretation #n\n\
         drill <facet> <entry>  drill into an entry of the shown facets\n\
         up <n>                 roll up the n-th constraint\n\
         drop <n>               remove the n-th constraint\n\
         mode surprise|bellwether\n\
         show                   re-print current facets\n\
         quit"
    );
}

impl Repl {
    fn query(&mut self, keywords: &str) {
        self.interpretations = self.kdap.interpret(keywords);
        self.last_keywords = kdap_suite::core::split_query(keywords);
        if self.interpretations.is_empty() {
            println!("no interpretation found for \"{keywords}\"");
            return;
        }
        println!("interpretations ({} total):", self.interpretations.len());
        for (i, r) in self.interpretations.iter().take(8).enumerate() {
            println!(
                "  #{:<2} [{:.4}] {}",
                i + 1,
                r.score,
                r.net.display(self.kdap.warehouse())
            );
        }
        println!("pick one with `pick <n>`.");
    }

    fn pick(&mut self, arg: &str) {
        let Ok(n) = arg.trim().parse::<usize>() else {
            println!("usage: pick <n>");
            return;
        };
        let Some(r) = self.interpretations.get(n.wrapping_sub(1)) else {
            println!("no interpretation #{n}");
            return;
        };
        self.current = Some(r.net.clone());
        self.explore();
    }

    fn explore(&mut self) {
        let Some(net) = &self.current else {
            println!("no interpretation selected — use `q` then `pick`");
            return;
        };
        let ex = match self.kdap.explore_with_options(net, &self.options) {
            Ok(ex) => ex,
            Err(e) => {
                println!("explore failed: {e}");
                return;
            }
        };
        println!(
            "subspace: {} fact points · total {:.2} · constraints:",
            ex.subspace_size, ex.total_aggregate
        );
        for (i, c) in net.constraints.iter().enumerate() {
            let kws: Vec<&str> = self.last_keywords.iter().map(String::as_str).collect();
            let summary = c
                .group
                .hits
                .first()
                .map(|h| snippet(&h.value, &kws, 8))
                .unwrap_or_default();
            println!(
                "  ({}) {} = {}{}",
                i + 1,
                self.kdap.warehouse().col_name(c.group.attr),
                summary,
                if c.group.hits.len() > 1 {
                    format!(" (+{} more)", c.group.hits.len() - 1)
                } else {
                    String::new()
                }
            );
        }
        self.exploration = Some(ex);
        self.show();
    }

    fn show(&self) {
        let Some(ex) = &self.exploration else {
            println!("nothing explored yet");
            return;
        };
        let mut facet_no = 0;
        for panel in &ex.panels {
            println!("[{}]", panel.dimension);
            for attr in &panel.attrs {
                facet_no += 1;
                println!(
                    "  {facet_no}. {} (score {:+.3}{})",
                    attr.name,
                    attr.score,
                    if attr.promoted { ", hit" } else { "" }
                );
                for (ei, e) in attr.entries.iter().enumerate() {
                    println!(
                        "       {}) {:<26} {:>12.2}{}",
                        ei + 1,
                        e.label,
                        e.aggregate,
                        if e.is_hit { " ←" } else { "" }
                    );
                }
            }
        }
        println!("drill with `drill <facet#> <entry#>`.");
    }

    fn drill(&mut self, rest: &str) {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let (Some(Ok(f)), Some(Ok(e))) = (
            parts.first().map(|s| s.parse::<usize>()),
            parts.get(1).map(|s| s.parse::<usize>()),
        ) else {
            println!("usage: drill <facet#> <entry#>");
            return;
        };
        let (Some(ex), Some(net)) = (&self.exploration, &self.current) else {
            println!("nothing explored yet");
            return;
        };
        // Locate facet #f in panel order.
        let mut facet_no = 0;
        let mut target = None;
        for panel in &ex.panels {
            for attr in &panel.attrs {
                facet_no += 1;
                if facet_no == f {
                    target = Some(attr);
                }
            }
        }
        let Some(attr) = target else {
            println!("no facet #{f}");
            return;
        };
        let Some(entry) = attr.entries.get(e.wrapping_sub(1)) else {
            println!("facet #{f} has no entry #{e}");
            return;
        };
        let wh = self.kdap.warehouse();
        let Some(code) = wh
            .column(attr.attr)
            .dict()
            .and_then(|d| d.code_of(&entry.label))
        else {
            println!("numeric ranges are browsed via new queries, not drill (yet)");
            return;
        };
        let path = paths_between(wh.schema(), wh.schema().fact_table(), attr.attr.table, 8)
            .into_iter()
            .next()
            .expect("facet attrs are reachable");
        let drilled = drill_down(wh, net, attr.attr, &path, vec![code]);
        let size = materialize(wh, self.kdap.join_index(), &drilled).len();
        println!(
            "drilled into {} = {} ({} fact points)",
            attr.name, entry.label, size
        );
        self.current = Some(drilled);
        self.explore();
    }

    fn up(&mut self, arg: &str) {
        let Ok(n) = arg.trim().parse::<usize>() else {
            println!("usage: up <constraint#>");
            return;
        };
        let Some(net) = &self.current else {
            println!("nothing explored yet");
            return;
        };
        match roll_up(
            self.kdap.warehouse(),
            self.kdap.join_index(),
            net,
            n.wrapping_sub(1),
        ) {
            Some(rolled) => {
                self.current = Some(rolled);
                self.explore();
            }
            None => println!("no constraint #{n}"),
        }
    }

    fn drop(&mut self, arg: &str) {
        let Ok(n) = arg.trim().parse::<usize>() else {
            println!("usage: drop <constraint#>");
            return;
        };
        let Some(net) = &self.current else {
            println!("nothing explored yet");
            return;
        };
        match remove_constraint(net, n.wrapping_sub(1)) {
            Some(reduced) => {
                self.current = Some(reduced);
                self.explore();
            }
            None => println!("no constraint #{n}"),
        }
    }

    fn mode(&mut self, arg: &str) {
        match arg.trim() {
            "surprise" => self.options.mode = Some(InterestMode::Surprise),
            "bellwether" => self.options.mode = Some(InterestMode::Bellwether),
            _ => {
                println!("usage: mode surprise|bellwether");
                return;
            }
        }
        println!("interestingness mode set to {arg}");
        if self.current.is_some() {
            self.explore();
        }
    }
}
