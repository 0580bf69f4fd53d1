//! The console engine: executes parsed [`Command`]s against a KDAP
//! session and writes human output to any `Write` sink (tests drive it
//! with string buffers; `main` wires it to stdio).

use std::io::Write;

use kdap_core::{
    Exploration, Kdap, KdapError, QueryOptions, QueryRequest, QueryResponse, Refine, Verb,
};
use kdap_warehouse::AttrKind;

use crate::command::Command;
use crate::render::{render_exploration, render_interpretations};

/// Interactive session state: one [`QueryRequest`]. `q` sets its
/// keywords, `pick` its interpretation, `drill`/`up`/`drop` append
/// [`Refine`] steps, `mode`/`order` set option overrides — and every
/// command that shows a subspace is that request through [`Kdap::run`],
/// exactly what an HTTP client would post.
pub struct Repl {
    kdap: Kdap,
    request: QueryRequest,
    /// What the request last explored (`None` until a `pick`), for `show`
    /// and for the facet numbering `drill` reads.
    exploration: Option<Exploration>,
}

impl Repl {
    pub fn new(kdap: Kdap) -> Self {
        Repl {
            kdap,
            request: QueryRequest::new(Verb::Explore, ""),
            exploration: None,
        }
    }

    /// The underlying session (for stats and tests).
    pub fn session(&self) -> &Kdap {
        &self.kdap
    }

    /// The option overrides the console has accumulated so far.
    pub fn options(&self) -> &QueryOptions {
        &self.request.options
    }

    /// Runs the console's request under another verb.
    fn run(&self, verb: Verb) -> Result<QueryResponse, KdapError> {
        let mut request = self.request.clone();
        request.verb = verb;
        self.kdap.run(&request)
    }

    /// Points the request at a new keyword query: first interpretation,
    /// no refinement, nothing explored.
    fn ask(&mut self, keywords: String) {
        self.request.keywords = keywords;
        self.request.pick = 1;
        self.request.refine.clear();
        self.exploration = None;
    }

    /// Executes one command; returns `false` when the session should end.
    pub fn execute(&mut self, cmd: Command, out: &mut impl Write) -> std::io::Result<bool> {
        match cmd {
            Command::Query(q) => {
                self.ask(q);
                let q = &self.request.keywords;
                match self.run(Verb::Differentiate) {
                    Ok(resp) if resp.ranked.is_empty() => {
                        writeln!(out, "no interpretation found for \"{q}\"")?
                    }
                    Ok(resp) => {
                        write!(
                            out,
                            "{}",
                            render_interpretations(self.kdap.warehouse(), &resp.ranked, 8)
                        )?;
                        writeln!(out, "pick one with `pick <n>`.")?;
                    }
                    Err(e) => writeln!(out, "{}", query_failure(&e))?,
                }
            }
            Command::Pick(n) => {
                let mut request = self.request.clone();
                request.pick = n;
                request.refine.clear();
                self.explore(request, out)?;
            }
            Command::Drill(f, e) => self.drill(f, e, out)?,
            Command::RollUp(n) => self.refine(Refine::Up(n), out)?,
            Command::Drop(n) => self.refine(Refine::Drop(n), out)?,
            Command::Mode(mode) => {
                self.request.options.mode = Some(mode);
                writeln!(out, "interestingness mode set")?;
                if self.exploration.is_some() {
                    self.explore(self.request.clone(), out)?;
                }
            }
            Command::Order(order) => {
                self.request.options.order = Some(order);
                writeln!(out, "facet ordering set")?;
                if self.exploration.is_some() {
                    self.explore(self.request.clone(), out)?;
                }
            }
            Command::Profile(q) => {
                if !self.kdap.obs().is_enabled() {
                    writeln!(out, "observability is off — restart kdap with --profile")?;
                } else {
                    self.ask(q);
                    let q = &self.request.keywords;
                    match self.run(Verb::Profile) {
                        Ok(resp) => {
                            writeln!(
                                out,
                                "profiled the top of {} interpretation(s):",
                                resp.n_interpretations
                            )?;
                            if let Some(p) = &resp.profile {
                                write!(out, "{}", p.render())?;
                            }
                            self.exploration = resp.exploration;
                        }
                        Err(KdapError::NoInterpretation { .. } | KdapError::EmptyQuery) => {
                            writeln!(out, "no interpretation found for \"{q}\"")?;
                        }
                        Err(e) => writeln!(out, "profile failed: {e}")?,
                    }
                }
            }
            Command::Explain if self.exploration.is_none() => {
                writeln!(out, "nothing explored yet")?
            }
            Command::Explain => match self.run(Verb::Explain) {
                Ok(QueryResponse {
                    profile: Some(tree),
                    ..
                }) => write!(out, "{}", tree.render_clock_free())?,
                Ok(_) => {}
                Err(e) => writeln!(out, "explain failed: {e}")?,
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

    /// Explores `request` and shows the subspace. The console adopts the
    /// request only when it ran: a refused `pick` or step leaves the
    /// console where it was.
    fn explore(&mut self, request: QueryRequest, out: &mut impl Write) -> std::io::Result<()> {
        match self.kdap.run(&request) {
            Ok(resp) => {
                let net = match &resp.constraints {
                    Some(refined) => refined
                        .iter()
                        .map(|c| c.display.as_str())
                        .collect::<Vec<_>>()
                        .join("  ⋈  "),
                    None => resp
                        .ranked
                        .get(request.pick.wrapping_sub(1))
                        .map(|r| r.net.display(self.kdap.warehouse()))
                        .unwrap_or_default(),
                };
                writeln!(out, "exploring: {net}")?;
                if let Some(ex) = &resp.exploration {
                    write!(out, "{}", render_exploration(ex))?;
                }
                writeln!(out, "(facets are numbered top to bottom for `drill`)")?;
                self.exploration = resp.exploration;
                self.request = request;
            }
            Err(KdapError::NoInterpretation { .. } | KdapError::EmptyQuery) => {
                writeln!(out, "no interpretation #{}", request.pick)?
            }
            Err(KdapError::BadRefine { reason, .. }) => writeln!(out, "{reason}")?,
            Err(e) => writeln!(out, "explore failed: {e}")?,
        }
        Ok(())
    }

    /// Explores the request with one more step appended.
    fn refine(&mut self, step: Refine, out: &mut impl Write) -> std::io::Result<()> {
        if self.exploration.is_none() {
            return writeln!(out, "nothing explored yet");
        }
        let mut request = self.request.clone();
        request.refine.push(step);
        self.explore(request, out)
    }

    /// Turns facet `f`, entry `e` of the shown exploration into a drill
    /// step, named the way the engine resolves it.
    fn drill(&mut self, f: usize, e: usize, out: &mut impl Write) -> std::io::Result<()> {
        let Some(ex) = &self.exploration else {
            return writeln!(out, "nothing explored yet");
        };
        let Some((panel, attr)) = ex
            .panels
            .iter()
            .flat_map(|p| p.attrs.iter().map(move |a| (p, a)))
            .nth(f.wrapping_sub(1))
        else {
            return writeln!(out, "no facet #{f}");
        };
        let Some(entry) = attr.entries.get(e.wrapping_sub(1)) else {
            return writeln!(out, "facet #{f} has no entry #{e}");
        };
        if attr.kind == AttrKind::Numerical {
            return writeln!(out, "numeric ranges are refined via a new query, not drill");
        }
        let step = Refine::Drill {
            dimension: panel.dimension.clone(),
            attr: attr.name.clone(),
            value: entry.label.clone(),
        };
        writeln!(out, "drilled into {} = {}", attr.name, entry.label)?;
        self.refine(step, out)
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
    use kdap_core::{FacetOrder, InterestMode};
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
    fn explain_shows_the_requests_stage_tree() {
        let mut r = repl();
        assert!(run(&mut r, "explain").contains("nothing explored"));
        run(&mut r, "q seattle");
        run(&mut r, "pick 1");
        let out = run(&mut r, "explain");
        assert!(out.starts_with("explain: seattle\n"), "{out}");
        for stage in ["materialize", "semijoin", "explore.rollups", "facet"] {
            assert!(out.contains(stage), "{stage}: {out}");
        }
        assert!(out.contains("path=") && out.contains("kernel="), "{out}");
        // No clocks: no time column, no share of a total.
        assert!(!out.contains('%') && !out.contains(" µs"), "{out}");
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
    fn explain_prints_the_same_tree_with_or_without_profile() {
        let explain = |mut r: Repl| {
            run(&mut r, "q seattle");
            run(&mut r, "pick 1");
            run(&mut r, "explain")
        };
        let out = explain(profiling_repl());
        assert!(!out.contains("profile: seattle"), "{out}");
        assert_eq!(out, explain(repl()));
    }

    #[test]
    fn explain_reports_cache_hits_on_repeat() {
        let mut r = repl();
        run(&mut r, "q seattle");
        run(&mut r, "pick 1");
        let first = run(&mut r, "explain");
        // `pick` answered this request, so the session cache holds its
        // answer and the semi-join cache every step the replay reads.
        assert!(first.contains("answer_cache=held"), "{first}");
        let steps: Vec<&str> = first.lines().filter(|l| l.contains("semijoin")).collect();
        assert!(!steps.is_empty(), "{first}");
        assert!(steps.iter().all(|l| l.contains("cache=hit")), "{first}");
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
