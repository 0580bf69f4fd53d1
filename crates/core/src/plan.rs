//! The session's [`SemijoinCache`] holder, which evaluates each distinct
//! constraint once for every net the session materializes.

use kdap_obs::CacheCounters;
use kdap_query::{Selection, SemijoinCache};
use kdap_warehouse::Warehouse;

use crate::interpret::StarNet;

/// A field-less stand-in for the optimizer switches that no longer
/// exist: it configures nothing. Kept only because the frozen
/// `kdap_bench` passes one to [`Planner::new`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerConfig;

/// Holds (when caching is enabled) the session's semi-join cache. It is
/// `Sync`: one planner serves every worker thread. The default planner
/// caches nothing.
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

    /// The net's selections, in net order. Kept only because the frozen
    /// `kdap_bench` times and discards it; `_wh` is unread.
    pub fn plan(&self, _wh: &Warehouse, net: &StarNet) -> Vec<Selection> {
        net.constraints.iter().map(|c| c.selection()).collect()
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

    #[test]
    fn cached_planner_starts_empty() {
        let planner = Planner::cached();
        assert!(planner.cache().is_some());
        assert_eq!(planner.cache_counters(), Some(CacheCounters::default()));
        let stub = Planner::new(*planner.config(), false);
        assert!(stub.cache().is_none());
        assert!(Planner::default().cache_counters().is_none());
    }
}
