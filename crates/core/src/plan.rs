//! The session-level planner: compiles star nets to their
//! [`LogicalPlan`] — one node per constraint, evaluated in net order — and
//! owns the session's [`SemijoinCache`], which evaluates each distinct
//! constraint once for every plan the session runs.

use kdap_obs::{CacheCounters, LeafData, Obs};
use kdap_query::{LogicalPlan, SemijoinCache};
use kdap_warehouse::Warehouse;

use crate::interpret::StarNet;

/// A field-less stand-in for the optimizer switches that no longer
/// exist: it configures nothing. Kept only because the frozen
/// `kdap_bench` passes one to [`Planner::new`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerConfig;

/// Compiles star-net plans for one session.
///
/// A planner holds (when caching is enabled) the session's semi-join
/// cache. It is `Sync`: one planner serves every worker thread. The
/// default planner caches nothing.
#[derive(Debug, Default)]
pub struct Planner {
    cache: Option<SemijoinCache>,
}

impl Planner {
    /// A planner with a shared semi-join cache — the session's planner.
    pub fn cached() -> Self {
        Planner {
            cache: Some(SemijoinCache::new()),
        }
    }

    /// A planner with or without a semi-join cache. Kept only for the
    /// frozen `kdap_bench`; the `PlannerConfig` is ignored.
    pub fn new(_cfg: PlannerConfig, cached: bool) -> Self {
        Planner {
            cache: cached.then(SemijoinCache::new),
        }
    }

    /// The (empty) planner configuration, for [`Planner::new`].
    pub fn config(&self) -> &PlannerConfig {
        &PlannerConfig
    }

    /// Compiles a star net to its plan. (`_wh` is unread; the frozen
    /// `kdap_bench` passes it.)
    pub fn plan(&self, _wh: &Warehouse, net: &StarNet) -> LogicalPlan {
        net.compile()
    }

    /// [`Planner::plan`], timed in `obs`'s `planner.compile_ns` and
    /// recorded as its profile's `plan.compile` leaf.
    pub(crate) fn plan_recorded(&self, wh: &Warehouse, net: &StarNet, obs: &Obs) -> LogicalPlan {
        let t = obs.timer();
        let logical = self.plan(wh, net);
        if obs.is_enabled() {
            let compile_ns = t.stop();
            obs.record_ns("planner.compile_ns", compile_ns);
            obs.leaf(
                "plan.compile",
                LeafData {
                    wall_ns: compile_ns,
                    rows_out: Some(logical.len() as u64),
                    ..LeafData::default()
                },
            );
        }
        logical
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
    fn plans_keep_net_order() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "lcd"],
            &GenConfig::default(),
        );
        let planner = Planner::default();
        for net in &nets {
            let plan = planner.plan(&fx.wh, net);
            assert_eq!(plan.len(), net.n_groups());
            for (node, c) in plan.nodes.iter().zip(&net.constraints) {
                assert_eq!(node.fingerprint, c.fingerprint());
            }
        }
        assert!(planner.cache().is_none());
        assert!(planner.cache_counters().is_none());
    }

    #[test]
    fn cached_planner_starts_empty() {
        let planner = Planner::cached();
        assert!(planner.cache().is_some());
        assert_eq!(planner.cache_counters(), Some(CacheCounters::default()));
        let stub = Planner::new(*planner.config(), false);
        assert!(stub.cache().is_none());
    }
}
