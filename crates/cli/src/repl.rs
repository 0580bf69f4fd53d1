//! The console engine: executes parsed [`Command`]s against a KDAP
//! session and writes human output to any `Write` sink (tests drive it
//! with string buffers; `main` wires it to stdio).

use std::io::Write;

use kdap_core::interest::InterestMode;
use kdap_core::{
    drill_down, remove_constraint, render_exploration, render_interpretations, roll_up,
    Exploration, FacetOrder, Kdap, KdapError, QueryOptions, QueryRequest, RankedStarNet, StarNet,
    Verb,
};
use kdap_query::paths_between;

use crate::command::{Command, ModeArg, OrderArg};

/// Interactive session state. All queries flow through the unified
/// request API ([`Kdap::run`]); console toggles like `mode` and `order`
/// accumulate in a [`QueryOptions`] instead of mutating session config.
pub struct Repl {
    kdap: Kdap,
    options: QueryOptions,
    interpretations: Vec<RankedStarNet>,
    current: Option<StarNet>,
    exploration: Option<Exploration>,
}

impl Repl {
    pub fn new(kdap: Kdap) -> Self {
        Repl {
            kdap,
            options: QueryOptions::default(),
            interpretations: Vec::new(),
            current: None,
            exploration: None,
        }
    }

    /// The underlying session (for stats and tests).
    pub fn session(&self) -> &Kdap {
        &self.kdap
    }

    /// The option overrides the console has accumulated so far.
    pub fn options(&self) -> &QueryOptions {
        &self.options
    }

    /// This console's request for `verb` over `keywords`, carrying the
    /// accumulated option overrides.
    fn request(&self, verb: Verb, keywords: &str) -> QueryRequest {
        QueryRequest::new(verb, keywords).with_options(self.options.clone())
    }

    /// Executes one command; returns `false` when the session should end.
    pub fn execute(&mut self, cmd: Command, out: &mut impl Write) -> std::io::Result<bool> {
        match cmd {
            Command::Query(q) => match self.kdap.run(&self.request(Verb::Differentiate, &q)) {
                Ok(resp) => {
                    self.interpretations = resp.ranked;
                    if self.interpretations.is_empty() {
                        writeln!(out, "no interpretation found for \"{q}\"")?;
                    } else {
                        write!(
                            out,
                            "{}",
                            render_interpretations(self.kdap.warehouse(), &self.interpretations, 8)
                        )?;
                        writeln!(out, "pick one with `pick <n>`.")?;
                    }
                }
                Err(e) => {
                    self.interpretations.clear();
                    writeln!(out, "{}", query_failure(&e))?;
                }
            },
            Command::Pick(n) => match self.interpretations.get(n.wrapping_sub(1)) {
                Some(r) => {
                    self.current = Some(r.net.clone());
                    self.explore(out)?;
                }
                None => writeln!(out, "no interpretation #{n}")?,
            },
            Command::Drill(f, e) => self.drill(f, e, out)?,
            Command::RollUp(n) => {
                let Some(net) = &self.current else {
                    writeln!(out, "nothing explored yet")?;
                    return Ok(true);
                };
                match roll_up(
                    self.kdap.warehouse(),
                    self.kdap.join_index(),
                    net,
                    n.wrapping_sub(1),
                ) {
                    Some(rolled) => {
                        self.current = Some(rolled);
                        self.explore(out)?;
                    }
                    None => writeln!(out, "no constraint #{n}")?,
                }
            }
            Command::Drop(n) => {
                let Some(net) = &self.current else {
                    writeln!(out, "nothing explored yet")?;
                    return Ok(true);
                };
                match remove_constraint(net, n.wrapping_sub(1)) {
                    Some(reduced) => {
                        self.current = Some(reduced);
                        self.explore(out)?;
                    }
                    None => writeln!(out, "no constraint #{n}")?,
                }
            }
            Command::Mode(m) => {
                self.options.mode = Some(match m {
                    ModeArg::Surprise => InterestMode::Surprise,
                    ModeArg::Bellwether => InterestMode::Bellwether,
                });
                writeln!(out, "interestingness mode set")?;
                if self.current.is_some() {
                    self.explore(out)?;
                }
            }
            Command::Order(o) => {
                self.options.order = Some(match o {
                    OrderArg::Dynamic => FacetOrder::Dynamic,
                    OrderArg::Consistent => FacetOrder::Consistent,
                    OrderArg::Hybrid(p) => FacetOrder::Hybrid { pinned: p },
                });
                writeln!(out, "facet ordering set")?;
                if self.current.is_some() {
                    self.explore(out)?;
                }
            }
            Command::Profile(q) => {
                if !self.kdap.obs().is_enabled() {
                    writeln!(out, "observability is off — restart kdap with --profile")?;
                } else {
                    match self.kdap.run(&self.request(Verb::Profile, &q)) {
                        Ok(resp) => {
                            writeln!(
                                out,
                                "profiled the top of {} interpretation(s):",
                                resp.n_interpretations
                            )?;
                            if let Some(p) = &resp.profile {
                                write!(out, "{}", p.render())?;
                            }
                            self.current = resp.ranked.first().map(|r| r.net.clone());
                            self.interpretations = resp.ranked;
                            self.exploration = resp.exploration;
                        }
                        Err(KdapError::NoInterpretation { .. } | KdapError::EmptyQuery) => {
                            writeln!(out, "no interpretation found for \"{q}\"")?;
                        }
                        Err(e) => writeln!(out, "profile failed: {e}")?,
                    }
                }
            }
            Command::Explain => match &self.current {
                Some(net) => {
                    // With `--profile`, the replayed plan execution is
                    // recorded and its timing tree appended to EXPLAIN.
                    self.kdap.obs().start_profile("explain");
                    match self.kdap.explain(net) {
                        Ok(plan) => {
                            write!(out, "{}", plan.render())?;
                            match self.kdap.explain_explore_with(net, &self.options) {
                                Ok((_, report)) => write!(out, "{}", report.render())?,
                                Err(e) => writeln!(out, "explore report failed: {e}")?,
                            }
                        }
                        Err(e) => writeln!(out, "explain failed: {e}")?,
                    }
                    if let Some(p) = self.kdap.obs().take_profile() {
                        write!(out, "{}", p.render())?;
                    }
                }
                None => writeln!(out, "nothing explored yet")?,
            },
            Command::Show => match &self.exploration {
                Some(ex) => write!(out, "{}", render_exploration(ex))?,
                None => writeln!(out, "nothing explored yet")?,
            },
            Command::Save(dir) => {
                let path = std::path::Path::new(&dir);
                match kdap_warehouse::save_warehouse(self.kdap.warehouse(), path) {
                    Ok(()) => writeln!(
                        out,
                        "saved warehouse to {dir} — reopen with `kdap --spec {dir}/warehouse.spec`"
                    )?,
                    Err(e) => writeln!(out, "save failed: {e}")?,
                }
            }
            Command::Schema => {
                write!(out, "{}", kdap_warehouse::describe(self.kdap.warehouse()))?;
            }
            Command::Stats => {
                let wh = self.kdap.warehouse();
                let ts = self.kdap.text_index().stats();
                writeln!(
                    out,
                    "facts: {} · tables: {} · searchable domains: {} · virtual docs: {}",
                    wh.fact_rows(),
                    wh.tables().len(),
                    wh.searchable_columns().count(),
                    ts.docs,
                )?;
                writeln!(
                    out,
                    "text index: {} term(s) · {} posting(s) · avg doc len {:.1}",
                    ts.terms, ts.postings, ts.avg_doc_len
                )?;
                let caches = [
                    ("subspace", self.kdap.subspace_cache_counters()),
                    ("semi-join", self.kdap.semijoin_counters()),
                ];
                for (name, c) in caches {
                    if let Some(c) = c {
                        writeln!(
                            out,
                            "{name} cache: {} hits / {} misses / {} evictions",
                            c.hits, c.misses, c.evictions
                        )?;
                    }
                }
            }
            Command::Help => writeln!(
                out,
                "q <keywords> · pick <n> · drill <facet#> <entry#> · up <n> · drop <n>\n\
                 mode surprise|bellwether · order dynamic|consistent|hybrid <p>\n\
                 explain · profile <keywords> · show · schema · stats · save <dir> · quit"
            )?,
            Command::Quit => return Ok(false),
        }
        Ok(true)
    }

    fn explore(&mut self, out: &mut impl Write) -> std::io::Result<()> {
        let Some(net) = &self.current else {
            return Ok(());
        };
        writeln!(out, "exploring: {}", net.display(self.kdap.warehouse()))?;
        match self.kdap.explore_with_options(net, &self.options) {
            Ok(ex) => {
                write!(out, "{}", render_exploration(&ex))?;
                writeln!(out, "(facets are numbered top to bottom for `drill`)")?;
                self.exploration = Some(ex);
            }
            Err(e) => writeln!(out, "explore failed: {e}")?,
        }
        Ok(())
    }

    fn drill(&mut self, f: usize, e: usize, out: &mut impl Write) -> std::io::Result<()> {
        let (Some(ex), Some(net)) = (&self.exploration, &self.current) else {
            writeln!(out, "nothing explored yet")?;
            return Ok(());
        };
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
            writeln!(out, "no facet #{f}")?;
            return Ok(());
        };
        let Some(entry) = attr.entries.get(e.wrapping_sub(1)) else {
            writeln!(out, "facet #{f} has no entry #{e}")?;
            return Ok(());
        };
        let wh = self.kdap.warehouse();
        let Some(code) = wh
            .column(attr.attr)
            .dict()
            .and_then(|d| d.code_of(&entry.label))
        else {
            writeln!(out, "numeric ranges are refined via a new query, not drill")?;
            return Ok(());
        };
        let Some(path) = paths_between(wh.schema(), wh.schema().fact_table(), attr.attr.table, 8)
            .into_iter()
            .next()
        else {
            writeln!(out, "facet #{f} is not join-reachable from the fact table")?;
            return Ok(());
        };
        let drilled = drill_down(wh, net, attr.attr, &path, vec![code]);
        writeln!(out, "drilled into {} = {}", attr.name, entry.label)?;
        self.current = Some(drilled);
        self.explore(out)
    }
}

/// Console-friendly rendering of a failed query, with a hint on how to
/// proceed for the governance breaches an analyst can act on.
fn query_failure(e: &KdapError) -> String {
    match e {
        KdapError::EmptyQuery => {
            "query has no usable keywords — try content words, e.g. `q columbus lcd`".to_string()
        }
        KdapError::Timeout { .. } => format!("{e} — raise --timeout-ms or narrow the query"),
        KdapError::Cancelled { .. } => format!("{e} — interrupted with Ctrl-C"),
        KdapError::BudgetExceeded { .. } => format!("{e} — narrow the query or raise the budget"),
        other => format!("query failed: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdap_datagen::{build_ebiz, EbizScale};

    fn repl() -> Repl {
        let wh = build_ebiz(EbizScale::small(), 7).unwrap();
        Repl::new(Kdap::builder(wh).cache_capacity(8).build().unwrap())
    }

    fn run(repl: &mut Repl, line: &str) -> String {
        let mut out = Vec::new();
        let cmd = Command::parse(line).expect("valid command");
        repl.execute(cmd, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn query_pick_show_flow() {
        let mut r = repl();
        let out = run(&mut r, "q columbus");
        assert!(out.contains("#1"), "{out}");
        let out = run(&mut r, "pick 1");
        assert!(out.contains("subspace:"), "{out}");
        let out = run(&mut r, "show");
        assert!(out.contains("subspace:"), "{out}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut r = repl();
        assert!(run(&mut r, "pick 5").contains("no interpretation"));
        assert!(run(&mut r, "show").contains("nothing explored"));
        assert!(run(&mut r, "up 1").contains("nothing explored"));
        let out = run(&mut r, "q zzzzqqqq");
        assert!(out.contains("no interpretation found"));
    }

    #[test]
    fn stopword_only_query_gets_a_friendly_hint() {
        let mut r = repl();
        let out = run(&mut r, "q the and of");
        assert!(out.contains("no usable keywords"), "{out}");
        // The previous result list is cleared, so `pick` has nothing.
        assert!(run(&mut r, "pick 1").contains("no interpretation"));
    }

    #[test]
    fn timed_out_query_reports_timeout_not_panic() {
        let wh = build_ebiz(EbizScale::small(), 7).unwrap();
        let kdap = Kdap::builder(wh)
            .cache_capacity(8)
            .deadline(std::time::Duration::ZERO)
            .build()
            .unwrap();
        let mut r = Repl::new(kdap);
        let out = run(&mut r, "q columbus lcd");
        assert!(out.contains("timed out"), "{out}");
        assert!(out.contains("--timeout-ms"), "{out}");
    }

    #[test]
    fn cancelled_query_reports_cancellation() {
        let wh = build_ebiz(EbizScale::small(), 7).unwrap();
        let kdap = Kdap::builder(wh).cache_capacity(8).build().unwrap();
        let token = kdap.cancel_token();
        token.cancel();
        let mut r = Repl::new(kdap);
        let out = run(&mut r, "q columbus lcd");
        assert!(out.contains("cancelled"), "{out}");
        // Resetting the token (what the console does per prompt line)
        // makes the next query run normally.
        token.reset();
        let out = run(&mut r, "q columbus");
        assert!(out.contains("#1"), "{out}");
    }

    #[test]
    fn quit_ends_session() {
        let mut r = repl();
        let mut out = Vec::new();
        assert!(!r.execute(Command::Quit, &mut out).unwrap());
    }

    #[test]
    fn mode_and_order_re_render() {
        let mut r = repl();
        run(&mut r, "q columbus");
        run(&mut r, "pick 1");
        let out = run(&mut r, "mode bellwether");
        assert!(out.contains("subspace:"), "re-rendered: {out}");
        let out = run(&mut r, "order consistent");
        assert!(out.contains("subspace:"), "re-rendered: {out}");
    }

    #[test]
    fn console_toggles_accumulate_in_query_options() {
        let mut r = repl();
        assert_eq!(r.options().mode, None);
        assert_eq!(r.options().order, None);
        run(&mut r, "mode bellwether");
        run(&mut r, "order hybrid 2");
        assert_eq!(r.options().mode, Some(InterestMode::Bellwether));
        assert_eq!(r.options().order, Some(FacetOrder::Hybrid { pinned: 2 }));
    }

    #[test]
    fn explain_shows_the_plan() {
        let mut r = repl();
        assert!(run(&mut r, "explain").contains("nothing explored"));
        run(&mut r, "q seattle");
        run(&mut r, "pick 1");
        let out = run(&mut r, "explain");
        assert!(out.contains("fact rows"), "{out}");
        assert!(out.contains("subspace:"), "{out}");
        assert!(out.contains("via"), "{out}");
        assert!(out.contains("fused scans"), "{out}");
        assert!(out.contains("kernel"), "{out}");
    }

    #[test]
    fn save_roundtrip_via_console() {
        let mut r = repl();
        let dir = std::env::temp_dir().join(format!("kdap_cli_save_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = run(&mut r, &format!("save {}", dir.display()));
        assert!(out.contains("saved warehouse"), "{out}");
        assert!(dir.join("warehouse.spec").exists());
        let loaded = kdap_warehouse::load_warehouse(&dir).unwrap();
        assert_eq!(loaded.fact_rows(), r.session().warehouse().fact_rows());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_describes_warehouse() {
        let mut r = repl();
        let out = run(&mut r, "schema");
        assert!(out.contains("fact table: TRANSITEM"), "{out}");
        assert!(out.contains("dimensions:"), "{out}");
    }

    #[test]
    fn stats_reports_cache() {
        let mut r = repl();
        run(&mut r, "q columbus");
        run(&mut r, "pick 1");
        let out = run(&mut r, "stats");
        assert!(out.contains("subspace cache"), "{out}");
        assert!(out.contains("semi-join cache"), "{out}");
        assert!(out.contains("text index:"), "{out}");
        assert!(out.contains("facts:"), "{out}");
    }

    fn profiling_repl() -> Repl {
        let wh = build_ebiz(EbizScale::small(), 7).unwrap();
        Repl::new(
            Kdap::builder(wh)
                .cache_capacity(8)
                .observability(true)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn profile_command_prints_stage_tree() {
        let mut r = profiling_repl();
        let out = run(&mut r, "profile columbus lcd");
        assert!(out.contains("profile: columbus lcd"), "{out}");
        assert!(out.contains("differentiate"), "{out}");
        assert!(out.contains("explore"), "{out}");
        assert!(out.contains("materialize"), "{out}");
        assert!(out.contains('%'), "{out}");
        // The profiled exploration becomes the current state.
        let out = run(&mut r, "show");
        assert!(out.contains("subspace:"), "{out}");
    }

    #[test]
    fn profile_command_requires_observability() {
        let mut r = repl();
        let out = run(&mut r, "profile columbus");
        assert!(out.contains("observability is off"), "{out}");
    }

    #[test]
    fn explain_appends_timings_when_profiling() {
        let mut r = profiling_repl();
        run(&mut r, "q seattle");
        run(&mut r, "pick 1");
        let out = run(&mut r, "explain");
        assert!(out.contains("fused scans"), "{out}");
        assert!(out.contains("profile: explain"), "{out}");
        assert!(out.contains("plan.compile"), "{out}");
        // Without --profile, explain output carries no timing tree.
        let mut plain = repl();
        run(&mut plain, "q seattle");
        run(&mut plain, "pick 1");
        let out = run(&mut plain, "explain");
        assert!(!out.contains("profile: explain"), "{out}");
    }

    #[test]
    fn explain_reports_cache_hits_on_repeat() {
        let mut r = repl();
        run(&mut r, "q seattle");
        run(&mut r, "pick 1");
        let first = run(&mut r, "explain");
        assert!(first.contains("est "), "{first}");
        // The session planner already evaluated these steps during
        // `pick`, so the explain replay is served from the cache.
        assert!(first.contains("[cache hit]"), "{first}");
    }

    #[test]
    fn drill_refines_and_rollup_widens() {
        let mut r = repl();
        // "seattle" has a store at every scale (round-robin placement).
        run(&mut r, "q seattle");
        let before = run(&mut r, "pick 1");
        let size_before = extract_size(&before);
        // Drill into the first *categorical* facet (numeric ranges refuse
        // drilling); facet numbering is stable per exploration.
        let mut drilled = String::new();
        for f in 1..=12 {
            drilled = run(&mut r, &format!("drill {f} 1"));
            if drilled.contains("drilled into") {
                break;
            }
        }
        assert!(drilled.contains("drilled into"), "{drilled}");
        let size_after = extract_size(&drilled);
        assert!(size_after <= size_before, "{size_after} <= {size_before}");
        let rolled = run(&mut r, "up 1");
        assert!(rolled.contains("subspace:"), "{rolled}");
    }

    fn extract_size(out: &str) -> usize {
        out.lines()
            .rev()
            .find(|l| l.starts_with("subspace:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .expect("subspace line present")
    }
}
