//! EXPLAIN for star nets: the optimized physical plan with per-step
//! estimated vs. actual cardinalities, cache hits, and join-plan
//! description, so analysts (and the `kdap` console) can see *why* a
//! subspace has the size it does before paying for facet construction.
//!
//! The plan is produced by the same [`Planner`] that executes queries:
//! the entries appear in chosen execution order (most selective first
//! when reordering is on), fused fact-local predicates collapse into one
//! entry, and steps served from the session's semi-join cache are marked.

use kdap_obs::CacheCounters;
use kdap_query::{execute_plan_traced, ExecConfig, JoinIndex, Predicate};
use kdap_warehouse::Warehouse;

use crate::error::KdapError;
use crate::interpret::StarNet;
use crate::plan::Planner;

/// The evaluated plan of one physical step (one constraint, or several
/// fused fact-local constraints).
#[derive(Debug, Clone)]
pub struct ConstraintPlan {
    /// `Table.Attr` of the hit group(s); fused steps join names with `∧`.
    pub attr: String,
    /// The join path walked, with role labels.
    pub path: String,
    /// Number of hit instances in the group (`|HG|`), summed when fused.
    pub n_hits: usize,
    /// Fact rows this step alone selects.
    pub fact_rows: usize,
    /// `fact_rows / |fact table|`.
    pub selectivity: f64,
    /// True when the step carries a numeric-range constraint (§7
    /// extension).
    pub numeric: bool,
    /// The optimizer's estimated fact-row count (equals `fact_rows` only
    /// by luck; the gap is the estimation error).
    pub est_rows: usize,
    /// True when the step's bitmap came from the semi-join cache.
    pub cache_hit: bool,
    /// Number of logical constraints this step covers (>1 when fact-local
    /// predicates were fused into one scan).
    pub fused: usize,
}

/// The evaluated plan of a star net.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Per-step evaluations, in chosen execution order.
    pub constraints: Vec<ConstraintPlan>,
    /// Fact rows after intersecting all steps.
    pub subspace_size: usize,
    /// `subspace_size / |fact table|`.
    pub combined_selectivity: f64,
    /// Ratio between the most selective single step and the
    /// intersection — how much the conjunction tightened the slice.
    pub intersection_gain: f64,
}

/// Evaluates the net through a fresh fully-optimized [`Planner`].
///
/// Panics on malformed constraints (impossible for interpreter-produced
/// nets); use [`explain_planned`] to explain through a session's planner
/// and see its cache hits.
pub fn explain(wh: &Warehouse, jidx: &JoinIndex, net: &StarNet) -> Plan {
    // Documented panic (see doc comment above); the serial ungoverned
    // config cannot breach any governance limit.
    #[allow(clippy::expect_used)]
    explain_planned(wh, jidx, net, &Planner::optimized(), &ExecConfig::serial())
        .expect("star-net constraints evaluate on the fact table")
}

/// Compiles, optimizes, and executes the net through `planner`, tracing
/// each physical step.
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
    let (rows, traces) = execute_plan_traced(wh, jidx, fact, &plan, planner.cache(), exec)?;
    let mut constraints = Vec::with_capacity(plan.steps.len());
    for (step, trace) in plan.steps.iter().zip(&traces) {
        let nodes = step.nodes();
        let attr = nodes
            .iter()
            .map(|n| wh.col_name(n.selection.attr))
            .collect::<Vec<_>>()
            .join(" ∧ ");
        let n_hits = nodes
            .iter()
            .map(|n| match &n.selection.predicate {
                Predicate::Codes(codes) => codes.len(),
                Predicate::Range { .. } => 1,
            })
            .sum();
        let numeric = nodes
            .iter()
            .any(|n| matches!(n.selection.predicate, Predicate::Range { .. }));
        constraints.push(ConstraintPlan {
            attr,
            path: nodes[0].selection.path.display(wh, fact),
            n_hits,
            fact_rows: trace.actual_rows,
            selectivity: trace.actual_rows as f64 / n_fact as f64,
            numeric,
            est_rows: trace.est_rows,
            cache_hit: trace.cache_hit,
            fused: trace.fused,
        });
    }
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
/// single-pass pipeline performed versus what the per-facet pipeline
/// would have paid for the same exploration, plus the dense-vs-hash
/// kernel choice per deduplicated facet spec. Rendered into the `report`
/// of a [`Verb::Explain`](crate::Verb::Explain) response.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Roll-up spaces of the star net (one per constraint; one full
    /// space when the net is unconstrained).
    pub rollups: usize,
    /// Attribute-evaluation tasks scored (duplicates share one spec).
    pub candidates: usize,
    /// Row-set scans the fused pipeline performed.
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
                "({}) {}{}{}  [{} hits] → {} fact rows ({:.2}% of facts, est {}){}\n      via {}\n",
                i + 1,
                c.attr,
                if c.numeric { " (numeric range)" } else { "" },
                if c.fused > 1 {
                    format!(" [fused ×{}]", c.fused)
                } else {
                    String::new()
                },
                c.n_hits,
                c.fact_rows,
                100.0 * c.selectivity,
                c.est_rows,
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
            // Every logical constraint is covered by exactly one step.
            let covered: usize = plan.constraints.iter().map(|c| c.fused).sum();
            assert_eq!(covered, net.n_groups());
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
        assert!(text.contains("est "));
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
        let planner = Planner::optimized();
        let first =
            explain_planned(&fx.wh, &fx.jidx, &nets[0], &planner, &ExecConfig::serial()).unwrap();
        assert!(first.constraints.iter().all(|c| !c.cache_hit));
        let second =
            explain_planned(&fx.wh, &fx.jidx, &nets[0], &planner, &ExecConfig::serial()).unwrap();
        assert!(second.constraints.iter().all(|c| c.cache_hit));
        assert_eq!(first.subspace_size, second.subspace_size);
    }
}
