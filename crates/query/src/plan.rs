//! The plan IR and its cached executor.
//!
//! A conjunctive query over the fact table (one star net in the core
//! layer) compiles to a [`LogicalPlan`]: one [`PlanNode`] per constraint,
//! each keyed by a canonical [`Fingerprint`] of its `(path, attribute,
//! predicate)` identity. [`execute_plan`] semi-joins every node down its
//! own join path into a fact bitmap and ANDs the bitmaps. A subspace is
//! the AND of its constraints: each node reads the whole fact table on
//! its own, so no evaluation order does less work than another, and the
//! nodes run in net order.
//!
//! A session's [`SemijoinCache`] evaluates each distinct constraint once,
//! however many plans of the session contain it.
//! [`execute_plan_traced`] additionally reports each node's actual
//! cardinality and cache outcome — the raw material of `EXPLAIN`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kdap_obs::{CacheCounters, CacheOutcome, LeafData};
use kdap_warehouse::{TableId, Warehouse};

use crate::bitmap::RowSet;
use crate::error::QueryError;
use crate::exec::{par_map, ExecConfig};
use crate::semijoin::{JoinIndex, Predicate, Selection};

/// Canonical identity of one constraint: join-path edges, attribute, and
/// predicate (sorted codes or numeric-range bits). Two selections with
/// equal fingerprints denote the same fact bitmap.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    edges: Vec<u32>,
    attr: (u32, u32),
    codes: Vec<u32>,
    range: Option<(u64, u64)>,
}

impl Fingerprint {
    /// The fingerprint of a selection.
    pub fn of(sel: &Selection) -> Self {
        let edges = sel.path.edges().iter().map(|e| e.0).collect();
        let attr = (sel.attr.table.0, sel.attr.col);
        let (codes, range) = match &sel.predicate {
            Predicate::Codes(codes) => {
                let mut codes = codes.clone();
                codes.sort_unstable();
                (codes, None)
            }
            Predicate::Range { lo, hi } => (Vec::new(), Some((lo.to_bits(), hi.to_bits()))),
        };
        Fingerprint {
            edges,
            attr,
            codes,
            range,
        }
    }
}

/// One logical constraint: the selection plus its canonical identity.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// The constraint's selection on the origin table.
    pub selection: Selection,
    /// Canonical `(path, attr, predicate)` identity.
    pub fingerprint: Fingerprint,
}

impl PlanNode {
    /// Wraps a selection with its fingerprint.
    pub fn new(selection: Selection) -> Self {
        let fingerprint = Fingerprint::of(&selection);
        PlanNode {
            selection,
            fingerprint,
        }
    }
}

/// The plan of a conjunctive query: constraints AND together on the
/// origin (fact) table, evaluated in this order.
#[derive(Debug, Clone, Default)]
pub struct LogicalPlan {
    /// The conjuncts.
    pub nodes: Vec<PlanNode>,
}

impl LogicalPlan {
    /// Builds a logical plan from raw selections.
    pub fn from_selections(selections: Vec<Selection>) -> Self {
        LogicalPlan {
            nodes: selections.into_iter().map(PlanNode::new).collect(),
        }
    }

    /// Order-independent canonical identity of the whole plan (sorted
    /// constraint fingerprints) — equal keys denote equal subspaces.
    pub fn canonical_key(&self) -> Vec<Fingerprint> {
        let mut key: Vec<Fingerprint> = self.nodes.iter().map(|n| n.fingerprint.clone()).collect();
        key.sort();
        key
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the plan has no conjuncts (the whole dataspace).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A shared constraint-bitmap cache: constraint fingerprint → fact bitmap.
///
/// One instance per session deduplicates semi-join work across *all*
/// plans executed in that session — the same `(group, path)` constraint
/// appearing in dozens of candidate star nets is propagated once. A
/// bitmap is inserted whole, as soon as its step has been evaluated and
/// charged; nothing is ever evicted.
#[derive(Debug, Default)]
pub struct SemijoinCache {
    map: Mutex<HashMap<Fingerprint, Arc<RowSet>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SemijoinCache {
    /// An empty cache.
    pub fn new() -> Self {
        SemijoinCache::default()
    }

    /// Looks up a constraint's bitmap, counting a hit or a miss.
    pub fn lookup(&self, key: &Fingerprint) -> Option<Arc<RowSet>> {
        match self.map.lock().get(key) {
            Some(rows) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(rows.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether a constraint's bitmap is held, without counting a hit or
    /// a miss.
    pub fn contains(&self, key: &Fingerprint) -> bool {
        self.map.lock().contains_key(key)
    }

    /// Stores a constraint's bitmap (first insert wins on a race).
    pub fn insert(&self, key: Fingerprint, rows: Arc<RowSet>) {
        self.map.lock().entry(key).or_insert(rows);
    }

    /// Hit/miss counters; evictions are always 0.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: 0,
        }
    }

    /// Number of cached bitmaps (nothing asks whether it is empty).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Container histogram over every cached row set — how the session's
    /// live constraint bitmaps compress (array/bitmap/run block counts).
    /// The bitmaps are walked after the lock is released, so a scrape
    /// never stalls a concurrent lookup or insert.
    pub fn container_histogram(&self) -> crate::bitmap::ContainerHistogram {
        let cached: Vec<Arc<RowSet>> = self.map.lock().values().cloned().collect();
        let mut h = crate::bitmap::ContainerHistogram::default();
        for rows in &cached {
            h.merge(&rows.container_histogram());
        }
        h
    }
}

/// Per-node execution trace for `EXPLAIN`.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrace {
    /// Origin rows the node's bitmap holds.
    pub actual_rows: usize,
    /// Whether the bitmap came from the semi-join cache.
    pub cache_hit: bool,
}

/// Evaluates one node through an optional cache, returning the fact
/// bitmap and whether it came from the cache. A freshly evaluated bitmap
/// is charged to the memory budget, then inserted whole: a breach in a
/// later node leaves only complete bitmaps behind.
fn execute_step(
    wh: &Warehouse,
    jidx: &JoinIndex,
    origin: TableId,
    node: &PlanNode,
    cache: Option<&SemijoinCache>,
    exec: &ExecConfig,
) -> Result<(Arc<RowSet>, bool), QueryError> {
    if let Some(rows) = cache.and_then(|c| c.lookup(&node.fingerprint)) {
        return Ok((rows, true));
    }
    let rows = Arc::new(node.selection.try_eval(wh, jidx, origin)?);
    exec.charge("semijoin", rows.heap_bytes())?;
    if let Some(cache) = cache {
        cache.insert(node.fingerprint.clone(), Arc::clone(&rows));
    }
    Ok((rows, false))
}

/// Executes a plan from `origin`, AND-ing the node bitmaps.
///
/// Nodes evaluate across `exec`'s worker threads (independently — the
/// intersection is order-insensitive, so every thread count is
/// bit-identical to serial) and through `cache` when one is provided.
pub fn execute_plan(
    wh: &Warehouse,
    jidx: &JoinIndex,
    origin: TableId,
    plan: &LogicalPlan,
    cache: Option<&SemijoinCache>,
    exec: &ExecConfig,
) -> Result<RowSet, QueryError> {
    execute_plan_traced(wh, jidx, origin, plan, cache, exec).map(|(rows, _)| rows)
}

/// [`execute_plan`] with a per-node [`StepTrace`] (actual cardinality,
/// cache hit), in plan order.
pub fn execute_plan_traced(
    wh: &Warehouse,
    jidx: &JoinIndex,
    origin: TableId,
    plan: &LogicalPlan,
    cache: Option<&SemijoinCache>,
    exec: &ExecConfig,
) -> Result<(RowSet, Vec<StepTrace>), QueryError> {
    let n = wh.table(origin).nrows();
    let total_steps = plan.nodes.len() as u64;
    // Each (worker or serial) evaluation polls governance, then measures
    // its own wall time; the coordinator below records the leaves in plan
    // order, so the profile structure is identical at any thread count.
    type TimedStep = (Result<(Arc<RowSet>, bool), QueryError>, u64);
    let timed_step = |i: usize, node: &PlanNode| -> TimedStep {
        let t = exec.obs.timer();
        let result = exec
            .check_at("semijoin", i as u64, total_steps)
            .and_then(|()| execute_step(wh, jidx, origin, node, cache, exec));
        (result, t.stop())
    };
    let results: Vec<TimedStep> = if exec.is_serial() || plan.nodes.len() < 2 {
        plan.nodes
            .iter()
            .enumerate()
            .map(|(i, node)| timed_step(i, node))
            .collect()
    } else {
        par_map(exec, &plan.nodes, |i, node| timed_step(i, node))
    };
    let obs_on = exec.obs.is_enabled();
    // Metric handles hoisted out of the node loop: one registry lookup
    // per plan instead of one lock + map probe per node.
    let step_hist = exec.obs.histogram_handle("query.semijoin_step_ns");
    let hit_ctr = exec.obs.counter_handle("query.step_cache_hits");
    let miss_ctr = exec.obs.counter_handle("query.step_cache_misses");
    let profiling = exec.obs.is_profiling();
    let mut rows = RowSet::full(n);
    let mut traces = Vec::with_capacity(plan.nodes.len());
    for (result, step_ns) in results {
        let (bitmap, cache_hit) = result?;
        rows.intersect_with(&bitmap)?;
        if obs_on {
            if let Some(h) = &step_hist {
                h.record(step_ns);
            }
            if let Some(c) = if cache_hit { &hit_ctr } else { &miss_ctr } {
                c.add(1);
            }
        }
        // Leaf construction only pays off while a profile is being
        // collected.
        if profiling {
            exec.obs.leaf(
                "semijoin",
                LeafData {
                    wall_ns: step_ns,
                    rows_in: Some(n as u64),
                    rows_out: Some(bitmap.len() as u64),
                    cache: cache.map(|_| {
                        if cache_hit {
                            CacheOutcome::Hit
                        } else {
                            CacheOutcome::Miss
                        }
                    }),
                    ..LeafData::default()
                },
            );
        }
        traces.push(StepTrace {
            actual_rows: bitmap.len(),
            cache_hit,
        });
    }
    Ok((rows, traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::paths_between;
    use kdap_warehouse::{ValueType, WarehouseBuilder};

    /// FACT(6) → DIM(3); FACT carries a local Tag column and a Score.
    fn fixture() -> Warehouse {
        let mut b = WarehouseBuilder::new();
        b.table(
            "FACT",
            &[
                ("Id", ValueType::Int, false),
                ("DKey", ValueType::Int, false),
                ("Tag", ValueType::Str, true),
                ("Score", ValueType::Float, false),
            ],
        )
        .unwrap();
        b.table(
            "DIM",
            &[
                ("DKey", ValueType::Int, false),
                ("Name", ValueType::Str, true),
            ],
        )
        .unwrap();
        b.rows(
            "DIM",
            vec![
                vec![1i64.into(), "Widget".into()],
                vec![2i64.into(), "Gadget".into()],
                vec![3i64.into(), "Gizmo".into()],
            ],
        )
        .unwrap();
        b.rows(
            "FACT",
            vec![
                vec![0i64.into(), 1i64.into(), "hot".into(), 1.0.into()],
                vec![1i64.into(), 1i64.into(), "cold".into(), 2.0.into()],
                vec![2i64.into(), 2i64.into(), "hot".into(), 3.0.into()],
                vec![3i64.into(), 2i64.into(), "hot".into(), 4.0.into()],
                vec![4i64.into(), 3i64.into(), "cold".into(), 5.0.into()],
                vec![5i64.into(), 3i64.into(), "hot".into(), 6.0.into()],
            ],
        )
        .unwrap();
        b.edge("FACT.DKey", "DIM.DKey", None, Some("D")).unwrap();
        b.dimension("D", &["DIM"], vec![], vec![]).unwrap();
        b.fact("FACT").unwrap();
        b.finish().unwrap()
    }

    fn dim_selection(wh: &Warehouse, name: &str) -> Selection {
        let fact = wh.schema().fact_table();
        let dim = wh.table_id("DIM").unwrap();
        let path = paths_between(wh.schema(), fact, dim, 4).remove(0);
        let attr = wh.col_ref("DIM", "Name").unwrap();
        let code = wh.column(attr).dict().unwrap().code_of(name).unwrap();
        Selection::by_codes(path, attr, vec![code])
    }

    fn tag_selection(wh: &Warehouse, tag: &str) -> Selection {
        let attr = wh.col_ref("FACT", "Tag").unwrap();
        let code = wh.column(attr).dict().unwrap().code_of(tag).unwrap();
        Selection::by_codes(crate::path::JoinPath::empty(), attr, vec![code])
    }

    #[test]
    fn fingerprints_identify_equal_constraints() {
        let wh = fixture();
        let a = Fingerprint::of(&dim_selection(&wh, "Widget"));
        let b = Fingerprint::of(&dim_selection(&wh, "Widget"));
        let c = Fingerprint::of(&dim_selection(&wh, "Gadget"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Code order is canonicalized.
        let attr = wh.col_ref("DIM", "Name").unwrap();
        let p = paths_between(
            wh.schema(),
            wh.schema().fact_table(),
            wh.table_id("DIM").unwrap(),
            4,
        )
        .remove(0);
        let x = Fingerprint::of(&Selection::by_codes(p.clone(), attr, vec![0, 1]));
        let y = Fingerprint::of(&Selection::by_codes(p, attr, vec![1, 0]));
        assert_eq!(x, y);
    }

    #[test]
    fn executed_plan_matches_direct_evaluation() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let mut sels = vec![dim_selection(&wh, "Widget"), tag_selection(&wh, "hot")];
        let mut expect = RowSet::full(wh.fact_rows());
        for s in &sels {
            expect
                .intersect_with(&s.try_eval(&wh, &jidx, fact).unwrap())
                .unwrap();
        }
        for _ in 0..2 {
            let plan = LogicalPlan::from_selections(sels.clone());
            let rows = execute_plan(&wh, &jidx, fact, &plan, None, &ExecConfig::serial()).unwrap();
            assert_eq!(
                rows.iter().collect::<Vec<_>>(),
                expect.iter().collect::<Vec<_>>()
            );
            sels.reverse();
        }
    }

    #[test]
    fn fact_local_predicates_and_with_joined_ones() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let attr = wh.col_ref("FACT", "Score").unwrap();
        let range = Selection::by_range(crate::path::JoinPath::empty(), attr, 2.0, 5.0);
        let plan = LogicalPlan::from_selections(vec![
            tag_selection(&wh, "hot"),
            range,
            dim_selection(&wh, "Gadget"),
        ]);
        let rows = execute_plan(&wh, &jidx, fact, &plan, None, &ExecConfig::serial()).unwrap();
        // hot ∧ score∈[2,5] ∧ Gadget → facts 2, 3.
        assert_eq!(rows.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn cache_deduplicates_shared_steps() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let cache = SemijoinCache::new();
        let plan = LogicalPlan::from_selections(vec![dim_selection(&wh, "Widget")]);
        let a = execute_plan(&wh, &jidx, fact, &plan, Some(&cache), &ExecConfig::serial()).unwrap();
        let (_, traces) =
            execute_plan_traced(&wh, &jidx, fact, &plan, Some(&cache), &ExecConfig::serial())
                .unwrap();
        assert!(traces[0].cache_hit);
        assert_eq!(traces[0].actual_rows, a.len());
        assert_eq!(cache.counters(), CacheCounters::new(1, 1, 0));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.container_histogram(),
            a.container_histogram(),
            "one cached bitmap"
        );
    }

    #[test]
    fn traced_execution_feeds_profile_leaves() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let plan = LogicalPlan::from_selections(vec![
            dim_selection(&wh, "Widget"),
            tag_selection(&wh, "hot"),
        ]);
        let obs = kdap_obs::Obs::enabled().profiled("q");
        let exec = ExecConfig::serial().with_obs(obs.clone());
        let _ = execute_plan_traced(&wh, &jidx, fact, &plan, None, &exec).unwrap();
        let p = obs.take_profile().unwrap();
        assert_eq!(p.stage_names(), vec!["semijoin", "semijoin"]);
        assert_eq!(p.roots[0].rows_out, Some(2));
        let snap = obs.metrics_snapshot();
        assert_eq!(snap.histograms["query.semijoin_step_ns"].count, 2);
    }

    #[test]
    fn parallel_execution_is_bit_identical() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let plan = LogicalPlan::from_selections(vec![
            dim_selection(&wh, "Widget"),
            tag_selection(&wh, "hot"),
            tag_selection(&wh, "cold"),
        ]);
        let serial = execute_plan(&wh, &jidx, fact, &plan, None, &ExecConfig::serial()).unwrap();
        for threads in [2usize, 4] {
            let par = execute_plan(
                &wh,
                &jidx,
                fact,
                &plan,
                None,
                &ExecConfig::with_threads(threads),
            )
            .unwrap();
            assert_eq!(
                serial.iter().collect::<Vec<_>>(),
                par.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn traces_report_actuals_in_plan_order() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let plan = LogicalPlan::from_selections(vec![
            tag_selection(&wh, "hot"),
            dim_selection(&wh, "Widget"),
        ]);
        let (_, traces) =
            execute_plan_traced(&wh, &jidx, fact, &plan, None, &ExecConfig::serial()).unwrap();
        // hot: 4 of 6 facts; Widget: 2 — in plan order, not by size.
        let actual: Vec<usize> = traces.iter().map(|t| t.actual_rows).collect();
        assert_eq!(actual, vec![4, 2]);
        assert!(traces.iter().all(|t| !t.cache_hit));
    }

    #[test]
    fn invalid_selection_surfaces_typed_error() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        // DIM attribute with an empty path: off the origin table.
        let attr = wh.col_ref("DIM", "Name").unwrap();
        let bad = Selection::by_codes(crate::path::JoinPath::empty(), attr, vec![0]);
        let plan = LogicalPlan::from_selections(vec![bad]);
        let err = execute_plan(&wh, &jidx, fact, &plan, None, &ExecConfig::serial());
        assert!(matches!(err, Err(QueryError::AttrOffPathTarget { .. })));
    }
}
