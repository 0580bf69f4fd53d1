//! The session-level planner: compiles star nets to logical plans, lowers
//! them to physical plans with column statistics, and owns the shared
//! [`SemijoinCache`] that deduplicates constraint evaluation across the
//! whole candidate set.

use kdap_obs::{CacheCounters, Obs};
use kdap_query::{optimize, LogicalPlan, PhysicalPlan, PlannerConfig, SemijoinCache};
use kdap_warehouse::{StatsCatalog, Warehouse};

use crate::interpret::StarNet;

/// Compiles and optimizes star-net plans for one session.
///
/// A planner bundles the optimizer switches, the lazily computed column
/// statistics, and (when caching is enabled) the session's semi-join
/// cache. It is `Sync`: one planner serves every worker thread.
#[derive(Debug, Default)]
pub struct Planner {
    cfg: PlannerConfig,
    stats: StatsCatalog,
    cache: Option<SemijoinCache>,
    obs: Obs,
}

impl Planner {
    /// The full optimizer: selectivity reordering, fact-local fusion, and
    /// a shared semi-join cache.
    pub fn optimized() -> Self {
        Planner {
            cfg: PlannerConfig::default(),
            stats: StatsCatalog::new(),
            cache: Some(SemijoinCache::new()),
            obs: Obs::disabled(),
        }
    }

    /// No optimization at all: constraints evaluate one by one in net
    /// order with no statistics and no cache — exactly the unoptimized
    /// per-net evaluation.
    pub fn naive() -> Self {
        Planner {
            cfg: PlannerConfig::naive(),
            stats: StatsCatalog::new(),
            cache: None,
            obs: Obs::disabled(),
        }
    }

    /// A planner with explicit optimizer switches and cache choice.
    pub fn new(cfg: PlannerConfig, cached: bool) -> Self {
        Planner {
            cfg,
            stats: StatsCatalog::new(),
            cache: cached.then(SemijoinCache::new),
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle; compile/optimize timings flow
    /// into it from then on.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The optimizer switches in effect.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Compiles a star net and lowers it to a physical plan.
    pub fn plan(&self, wh: &Warehouse, net: &StarNet) -> PhysicalPlan {
        let t = self.obs.timer();
        let logical = net.compile();
        let compile_ns = t.stop();
        if self.obs.is_enabled() {
            self.obs.record_ns("planner.compile_ns", compile_ns);
            self.obs.leaf(
                "plan.compile",
                kdap_obs::LeafData {
                    wall_ns: compile_ns,
                    rows_out: Some(logical.len() as u64),
                    ..kdap_obs::LeafData::default()
                },
            );
        }
        self.lower(wh, &logical)
    }

    /// Lowers a logical plan to a physical plan. Statistics are consulted
    /// (and lazily computed) only when reordering is enabled.
    pub fn lower(&self, wh: &Warehouse, logical: &LogicalPlan) -> PhysicalPlan {
        let origin = wh.schema().fact_table();
        let stats = self.cfg.reorder.then_some(&self.stats);
        let t = self.obs.timer();
        let plan = optimize(wh, origin, logical, &self.cfg, stats);
        let optimize_ns = t.stop();
        if self.obs.is_enabled() {
            self.obs.record_ns("planner.optimize_ns", optimize_ns);
            self.obs.leaf(
                "plan.optimize",
                kdap_obs::LeafData {
                    wall_ns: optimize_ns,
                    rows_in: Some(logical.len() as u64),
                    rows_out: Some(plan.steps.len() as u64),
                    notes: vec![
                        ("reorder".into(), self.cfg.reorder.to_string()),
                        ("fuse".into(), self.cfg.fuse_fact_local.to_string()),
                    ],
                    ..kdap_obs::LeafData::default()
                },
            );
        }
        plan
    }

    /// The session's semi-join cache, when caching is enabled.
    pub fn cache(&self) -> Option<&SemijoinCache> {
        self.cache.as_ref()
    }

    /// Hit/miss/eviction counters of the semi-join cache, when caching is
    /// enabled.
    pub fn cache_counters(&self) -> Option<CacheCounters> {
        self.cache.as_ref().map(|c| c.counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::{generate_star_nets, GenConfig};
    use crate::testutil::ebiz_fixture;

    #[test]
    fn naive_planner_preserves_net_order() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "lcd"],
            &GenConfig::default(),
        );
        let planner = Planner::naive();
        for net in &nets {
            let plan = planner.plan(&fx.wh, net);
            assert_eq!(plan.steps.len(), net.n_groups());
            for (step, c) in plan.steps.iter().zip(&net.constraints) {
                assert_eq!(step.key(), vec![c.fingerprint()]);
            }
        }
        assert!(planner.cache().is_none());
        assert!(planner.cache_counters().is_none());
    }

    #[test]
    fn optimized_planner_computes_stats_lazily() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default());
        let planner = Planner::optimized();
        let plan = planner.plan(&fx.wh, &nets[0]);
        assert_eq!(plan.steps.len(), 1);
        assert!(plan.steps[0].est_fraction() <= 1.0);
        assert!(planner.cache().is_some());
        assert_eq!(planner.cache_counters(), Some(CacheCounters::default()));
    }
}
