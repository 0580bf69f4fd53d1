//! EXPLAIN for star nets: each constraint's actual fact-row count, cache
//! outcome and join path, and the size of their intersection, so analysts
//! (and the `kdap` console) can see *why* a subspace has the size it does
//! before paying for facet construction.
//!
//! The plan is compiled and executed through the same [`Planner`] that
//! runs queries: one entry per constraint in net order, with the ones
//! served from the session's semi-join cache marked.

use kdap_obs::CacheCounters;
use kdap_query::{execute_plan_traced, ExecConfig, JoinIndex, Predicate};
use kdap_warehouse::Warehouse;

use crate::error::KdapError;
use crate::interpret::StarNet;
use crate::plan::Planner;

/// The evaluated plan of one constraint.
#[derive(Debug, Clone)]
pub struct ConstraintPlan {
    /// `Table.Attr` of the hit group.
    pub attr: String,
    /// The join path walked, with role labels.
    pub path: String,
    /// Number of hit instances in the group (`|HG|`).
    pub n_hits: usize,
    /// Fact rows this constraint alone selects.
    pub fact_rows: usize,
    /// `fact_rows / |fact table|`.
    pub selectivity: f64,
    /// True for a numeric-range constraint (§7 extension).
    pub numeric: bool,
    /// True when the semi-join cache held the constraint's bitmap before
    /// the plan ran.
    pub cache_hit: bool,
}

/// The evaluated plan of a star net.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Per-constraint evaluations, in net order.
    pub constraints: Vec<ConstraintPlan>,
    /// Fact rows after intersecting all constraints.
    pub subspace_size: usize,
    /// `subspace_size / |fact table|`.
    pub combined_selectivity: f64,
    /// Ratio between the most selective single constraint and the
    /// intersection — how much the conjunction tightened the slice.
    pub intersection_gain: f64,
}

/// Evaluates the net serially, without a semi-join cache.
///
/// Panics on malformed constraints (impossible for interpreter-produced
/// nets); use [`explain_planned`] to explain through a session's planner
/// and see its cache hits.
pub fn explain(wh: &Warehouse, jidx: &JoinIndex, net: &StarNet) -> Plan {
    // Documented panic (see doc comment above); the serial ungoverned
    // config cannot breach any governance limit.
    #[allow(clippy::expect_used)]
    explain_planned(wh, jidx, net, &Planner::default(), &ExecConfig::serial())
        .expect("star-net constraints evaluate on the fact table")
}

/// Compiles and executes the net through `planner`, tracing each
/// constraint.
pub fn explain_planned(
    wh: &Warehouse,
    jidx: &JoinIndex,
    net: &StarNet,
    planner: &Planner,
    exec: &ExecConfig,
) -> Result<Plan, KdapError> {
    let fact = wh.schema().fact_table();
    let n_fact = wh.fact_rows().max(1);
    let plan = planner.plan(wh, net);
    // What the cache held before this plan ran: read up front, because
    // the plan's own misses fill it, and a constraint that appears twice
    // would otherwise read as a hit or a miss depending on which worker
    // thread got to it first.
    let held: Vec<bool> = plan
        .nodes
        .iter()
        .map(|n| planner.cache().is_some_and(|c| c.contains(&n.fingerprint)))
        .collect();
    let (rows, traces) = execute_plan_traced(wh, jidx, fact, &plan, planner.cache(), exec)?;
    let constraints: Vec<ConstraintPlan> = plan
        .nodes
        .iter()
        .zip(&traces)
        .zip(held)
        .map(|((node, trace), cache_hit)| {
            let sel = &node.selection;
            let (n_hits, numeric) = match &sel.predicate {
                Predicate::Codes(codes) => (codes.len(), false),
                Predicate::Range { .. } => (1, true),
            };
            ConstraintPlan {
                attr: wh.col_name(sel.attr),
                path: sel.path.display(wh, fact),
                n_hits,
                fact_rows: trace.actual_rows,
                selectivity: trace.actual_rows as f64 / n_fact as f64,
                numeric,
                cache_hit,
            }
        })
        .collect();
    let best_single = constraints
        .iter()
        .map(|c| c.fact_rows)
        .min()
        .unwrap_or(wh.fact_rows());
    let subspace_size = rows.len();
    Ok(Plan {
        constraints,
        subspace_size,
        combined_selectivity: subspace_size as f64 / n_fact as f64,
        intersection_gain: if subspace_size == 0 {
            f64::INFINITY
        } else {
            best_single as f64 / subspace_size as f64
        },
    })
}

/// Kernel choice and observed group count of one fused facet spec.
#[derive(Debug, Clone)]
pub struct FacetScanChoice {
    /// `Table.Attr` display name of the candidate.
    pub attr: String,
    /// `dense` (accumulator array sized by dictionary cardinality),
    /// `hash` (cardinality above the dense cutoff), or `buckets`
    /// (bucketized numerical domain).
    pub kernel: &'static str,
    /// Non-empty groups observed in the subspace.
    pub groups: usize,
}

/// Instrumentation of one fused explore run: how many row-set scans the
/// single-pass pipeline defines versus what the per-facet pipeline
/// would have paid for the same exploration, plus the dense-vs-hash
/// kernel choice per deduplicated facet spec. Rendered into the `report`
/// of a [`Verb::Explain`](crate::Verb::Explain) response. The scan counts
/// describe the plan's shape, not the work done: a scan over the whole
/// dataspace may be answered, in part or whole, from the session's
/// memo, and the `memo_specs` notes of a profile give the specs it
/// skipped.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Roll-up spaces of the star net (one per constraint; one full
    /// space when the net is unconstrained).
    pub rollups: usize,
    /// Attribute-evaluation tasks scored (duplicates share one spec).
    pub candidates: usize,
    /// Row-set scans the fused plan defines: one per subspace side and
    /// per roll-up space, counted whether or not the memo answered it.
    pub scans_fused: usize,
    /// Row-set scans the per-facet pipeline performs for the same
    /// exploration (its actual early-exits accounted).
    pub scans_old: usize,
    /// Kernel choice per deduplicated facet spec, in evaluation order.
    pub facets: Vec<FacetScanChoice>,
    /// Session-cache counters at report time (rendered as `subspace
    /// cache`), when the session caches explorations.
    pub subspace_cache: Option<CacheCounters>,
    /// Session semi-join-cache counters at report time, when the planner
    /// caches step bitmaps.
    pub semijoin_cache: Option<CacheCounters>,
}

impl ExploreReport {
    /// Scans avoided by fusing.
    pub fn scans_saved(&self) -> usize {
        self.scans_old.saturating_sub(self.scans_fused)
    }

    /// Human-readable rendering for the console.
    pub fn render(&self) -> String {
        let mut out = format!(
            "explore: {} candidates × {} roll-up space(s) → {} fused scans (per-facet: {}, saved {})\n",
            self.candidates,
            self.rollups,
            self.scans_fused,
            self.scans_old,
            self.scans_saved(),
        );
        for f in &self.facets {
            out.push_str(&format!(
                "      {:<30} {:>7} kernel · {} group(s)\n",
                f.attr, f.kernel, f.groups
            ));
        }
        for (name, counters) in [
            ("subspace cache", &self.subspace_cache),
            ("semi-join cache", &self.semijoin_cache),
        ] {
            if let Some(c) = counters {
                out.push_str(&format!(
                    "      {:<16} {} hit(s) / {} miss(es) / {} eviction(s)\n",
                    name, c.hits, c.misses, c.evictions
                ));
            }
        }
        out
    }
}

impl Plan {
    /// Human-readable rendering for the console.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, c) in self.constraints.iter().enumerate() {
            out.push_str(&format!(
                "({}) {}{}  [{} hits] → {} fact rows ({:.2}% of facts){}\n      via {}\n",
                i + 1,
                c.attr,
                if c.numeric { " (numeric range)" } else { "" },
                c.n_hits,
                c.fact_rows,
                100.0 * c.selectivity,
                if c.cache_hit { "  [cache hit]" } else { "" },
                c.path,
            ));
        }
        out.push_str(&format!(
            "∩  subspace: {} fact rows ({:.2}%), {}× tighter than the best single constraint\n",
            self.subspace_size,
            100.0 * self.combined_selectivity,
            if self.intersection_gain.is_finite() {
                format!("{:.1}", self.intersection_gain)
            } else {
                "∞".to_string()
            },
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::{generate_star_nets, GenConfig};
    use crate::subspace::materialize;
    use crate::testutil::ebiz_fixture;

    #[test]
    fn plan_matches_materialization() {
        let fx = ebiz_fixture();
        for net in generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "lcd"],
            &GenConfig::default(),
        ) {
            let plan = explain(&fx.wh, &fx.jidx, &net);
            let sub = materialize(&fx.wh, &fx.jidx, &net);
            assert_eq!(plan.subspace_size, sub.len());
            // One entry per constraint.
            assert_eq!(plan.constraints.len(), net.n_groups());
            // The intersection can never exceed any single step.
            for c in &plan.constraints {
                assert!(plan.subspace_size <= c.fact_rows);
            }
        }
    }

    #[test]
    fn selectivities_are_fractions_of_fact_table() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default());
        let plan = explain(&fx.wh, &fx.jidx, &nets[0]);
        for c in &plan.constraints {
            assert!((0.0..=1.0).contains(&c.selectivity));
            assert_eq!(c.selectivity, c.fact_rows as f64 / fx.wh.fact_rows() as f64);
        }
    }

    #[test]
    fn render_mentions_every_constraint_and_the_intersection() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "lcd"],
            &GenConfig::default(),
        );
        let net = nets
            .iter()
            .find(|n| n.display(&fx.wh).contains("STORE"))
            .unwrap();
        let plan = explain(&fx.wh, &fx.jidx, net);
        let text = plan.render();
        assert!(text.contains("(1)"));
        assert!(text.contains("(2)"));
        assert!(text.contains("subspace:"));
        assert!(text.contains("via"));
    }

    #[test]
    fn empty_net_plan_is_full_dataspace() {
        let fx = ebiz_fixture();
        let plan = explain(
            &fx.wh,
            &fx.jidx,
            &StarNet {
                constraints: vec![],
            },
        );
        assert_eq!(plan.subspace_size, fx.wh.fact_rows());
        assert_eq!(plan.combined_selectivity, 1.0);
    }

    #[test]
    fn session_planner_reports_cache_hits() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default());
        let planner = Planner::cached();
        let first =
            explain_planned(&fx.wh, &fx.jidx, &nets[0], &planner, &ExecConfig::serial()).unwrap();
        assert!(first.constraints.iter().all(|c| !c.cache_hit));
        let second =
            explain_planned(&fx.wh, &fx.jidx, &nets[0], &planner, &ExecConfig::serial()).unwrap();
        assert!(second.constraints.iter().all(|c| c.cache_hit));
        assert_eq!(first.subspace_size, second.subspace_size);
    }
}
