//! The two-level plan IR: logical constraint plans, the selectivity
//! optimizer, and the cached physical executor.
//!
//! A conjunctive query over the fact table (one star net in the core
//! layer) compiles to a [`LogicalPlan`]: one [`PlanNode`] per constraint,
//! each keyed by a canonical [`Fingerprint`] of its `(path, attribute,
//! predicate)` identity. [`optimize`] lowers the logical plan to a
//! [`PhysicalPlan`]:
//!
//! * conjuncts are reordered most-selective-first using per-column
//!   statistics from [`kdap_warehouse::stats`],
//! * fact-local predicates (empty join path on the origin table) fuse
//!   into a single bitmap scan over the fact table,
//! * every physical step carries a cache key, so a [`SemijoinCache`]
//!   shared across a whole candidate set evaluates each distinct
//!   constraint exactly once no matter how many plans contain it.
//!
//! [`execute_plan_traced`] additionally reports per-step estimated vs.
//! actual cardinalities and cache hits — the raw material of `EXPLAIN`.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kdap_obs::{CacheCounters, CacheOutcome, LeafData};
use kdap_warehouse::{StatsCatalog, TableId, Warehouse};

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

/// The logical plan of a conjunctive query: constraints AND together on
/// the origin (fact) table, in no particular order.
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

/// Optimizer switches. The default enables everything; [`PlannerConfig::naive`]
/// reproduces the unoptimized per-net evaluation order exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Reorder conjuncts most-selective-first using column statistics.
    pub reorder: bool,
    /// Fuse fact-local predicates into a single bitmap scan.
    pub fuse_fact_local: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            reorder: true,
            fuse_fact_local: true,
        }
    }
}

impl PlannerConfig {
    /// Everything off: conjuncts evaluate one by one in plan order.
    pub fn naive() -> Self {
        PlannerConfig {
            reorder: false,
            fuse_fact_local: false,
        }
    }
}

/// Cache key of one physical step: the sorted fingerprints of the
/// constraints it evaluates (a single one for semi-join steps).
pub type StepKey = Vec<Fingerprint>;

/// One physical step producing a fact bitmap.
#[derive(Debug, Clone)]
pub enum PhysStep {
    /// Semi-join one constraint down its join path.
    Semijoin {
        /// The constraint.
        node: PlanNode,
        /// Estimated fraction of origin rows selected (1.0 = unknown).
        est_fraction: f64,
    },
    /// Evaluate several fact-local predicates in one scan of the origin
    /// table.
    FusedScan {
        /// The fused constraints (all with empty paths on the origin).
        nodes: Vec<PlanNode>,
        /// Estimated combined fraction (product of member fractions).
        est_fraction: f64,
    },
}

impl PhysStep {
    /// The step's cache key.
    pub fn key(&self) -> StepKey {
        match self {
            PhysStep::Semijoin { node, .. } => vec![node.fingerprint.clone()],
            PhysStep::FusedScan { nodes, .. } => {
                let mut key: Vec<Fingerprint> =
                    nodes.iter().map(|n| n.fingerprint.clone()).collect();
                key.sort();
                key
            }
        }
    }

    /// Estimated fraction of origin rows this step keeps.
    pub fn est_fraction(&self) -> f64 {
        match self {
            PhysStep::Semijoin { est_fraction, .. } | PhysStep::FusedScan { est_fraction, .. } => {
                *est_fraction
            }
        }
    }

    /// Number of logical constraints the step covers.
    pub fn n_constraints(&self) -> usize {
        match self {
            PhysStep::Semijoin { .. } => 1,
            PhysStep::FusedScan { nodes, .. } => nodes.len(),
        }
    }

    /// The constraints the step covers.
    pub fn nodes(&self) -> &[PlanNode] {
        match self {
            PhysStep::Semijoin { node, .. } => std::slice::from_ref(node),
            PhysStep::FusedScan { nodes, .. } => nodes,
        }
    }
}

/// The executable plan: steps in chosen evaluation order, each producing
/// a fact bitmap; the bitmaps AND together.
#[derive(Debug, Clone, Default)]
pub struct PhysicalPlan {
    /// Execution steps, most selective first when reordering is on.
    pub steps: Vec<PhysStep>,
}

/// Estimated fraction of *origin* rows a selection keeps. The predicate
/// selectivity is measured on the target table; assuming joins neither
/// concentrate nor dilute values (independence), the same fraction of
/// origin rows survives the semi-join.
fn estimate(wh: &Warehouse, stats: &StatsCatalog, sel: &Selection) -> f64 {
    let s = stats.get(wh, sel.attr);
    match &sel.predicate {
        Predicate::Codes(codes) => s.code_fraction(codes),
        Predicate::Range { lo, hi } => s.range_fraction(*lo, *hi),
    }
}

/// Lowers a logical plan to a physical plan for execution from `origin`.
///
/// With `stats`, each step gets an estimated selectivity; with
/// `cfg.reorder` the steps are additionally sorted most-selective-first
/// (stably, so ties keep plan order). With `cfg.fuse_fact_local`,
/// predicates on the origin table itself (empty join path) are fused into
/// one scan.
pub fn optimize(
    wh: &Warehouse,
    origin: TableId,
    logical: &LogicalPlan,
    cfg: &PlannerConfig,
    stats: Option<&StatsCatalog>,
) -> PhysicalPlan {
    let est = |sel: &Selection| stats.map_or(1.0, |s| estimate(wh, s, sel));
    let mut fact_local: Vec<PlanNode> = Vec::new();
    let mut steps: Vec<PhysStep> = Vec::new();
    for node in &logical.nodes {
        let is_local = node.selection.path.is_empty() && node.selection.attr.table == origin;
        if cfg.fuse_fact_local && is_local {
            fact_local.push(node.clone());
        } else {
            steps.push(PhysStep::Semijoin {
                est_fraction: est(&node.selection),
                node: node.clone(),
            });
        }
    }
    match fact_local.len() {
        0 => {}
        1 => {
            // Infallible: this arm only runs when `fact_local.len() == 1`.
            #[allow(clippy::unwrap_used)]
            let node = fact_local.pop().unwrap();
            steps.push(PhysStep::Semijoin {
                est_fraction: est(&node.selection),
                node,
            });
        }
        _ => {
            let est_fraction = fact_local
                .iter()
                .map(|n| est(&n.selection))
                .product::<f64>();
            steps.push(PhysStep::FusedScan {
                nodes: fact_local,
                est_fraction,
            });
        }
    }
    if cfg.reorder && stats.is_some() {
        steps.sort_by(|a, b| {
            a.est_fraction()
                .partial_cmp(&b.est_fraction())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    PhysicalPlan { steps }
}

/// A shared constraint-bitmap cache: step cache key → fact bitmap.
///
/// One instance per session deduplicates semi-join work across *all*
/// plans executed in that session — the same `(group, path)` constraint
/// appearing in dozens of candidate star nets is propagated once.
#[derive(Debug, Default)]
pub struct SemijoinCache {
    map: Mutex<HashMap<StepKey, Arc<RowSet>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SemijoinCache {
    /// An empty cache.
    pub fn new() -> Self {
        SemijoinCache::default()
    }

    /// Looks up a step bitmap, counting a hit or a miss.
    pub fn lookup(&self, key: &StepKey) -> Option<Arc<RowSet>> {
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

    /// Stores a step bitmap (first insert wins on a race).
    pub fn insert(&self, key: StepKey, rows: Arc<RowSet>) {
        self.map.lock().entry(key).or_insert(rows);
    }

    /// Hit/miss/eviction counters. The cache is unbounded, so evictions
    /// only come from [`SemijoinCache::clear`].
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of cached bitmaps.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Container histogram over every cached row set — how the session's
    /// live constraint bitmaps compress (array/bitmap/run block counts).
    pub fn container_histogram(&self) -> crate::bitmap::ContainerHistogram {
        let mut h = crate::bitmap::ContainerHistogram::default();
        for rows in self.map.lock().values() {
            h.merge(&rows.container_histogram());
        }
        h
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached bitmaps (hit/miss counters are kept; the dropped
    /// entries count as evictions).
    pub fn clear(&self) {
        let mut map = self.map.lock();
        self.evictions
            .fetch_add(map.len() as u64, Ordering::Relaxed);
        map.clear();
    }
}

/// Per-step execution trace for `EXPLAIN`.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrace {
    /// Estimated fraction of origin rows (1.0 when no statistics).
    pub est_fraction: f64,
    /// Estimated origin rows (`est_fraction × |origin|`, rounded).
    pub est_rows: usize,
    /// Actual origin rows the step's bitmap holds.
    pub actual_rows: usize,
    /// Whether the bitmap came from the semi-join cache.
    pub cache_hit: bool,
    /// Number of logical constraints the step covers (>1 for fused scans).
    pub fused: usize,
}

/// Evaluates several fact-local predicates in one pass over the origin
/// table's rows.
fn fused_scan(wh: &Warehouse, origin: TableId, nodes: &[PlanNode]) -> Result<RowSet, QueryError> {
    enum Matcher<'a> {
        Codes(HashSet<u32>, &'a kdap_warehouse::Column),
        Range(f64, f64, &'a kdap_warehouse::Column),
    }
    let mut matchers = Vec::with_capacity(nodes.len());
    for node in nodes {
        let sel = &node.selection;
        if sel.attr.table != origin {
            return Err(QueryError::AttrOffPathTarget {
                attr_table: sel.attr.table.0,
                target_table: origin.0,
            });
        }
        let col = wh.column(sel.attr);
        matchers.push(match &sel.predicate {
            Predicate::Codes(codes) => Matcher::Codes(codes.iter().copied().collect(), col),
            Predicate::Range { lo, hi } => Matcher::Range(*lo, *hi, col),
        });
    }
    let n = wh.table(origin).nrows();
    let mut rows = RowSet::empty(n);
    'row: for r in 0..n {
        for m in &matchers {
            let keep = match m {
                Matcher::Codes(wanted, col) => col.get_code(r).is_some_and(|c| wanted.contains(&c)),
                Matcher::Range(lo, hi, col) => {
                    col.get_float(r).is_some_and(|v| v >= *lo && v <= *hi)
                }
            };
            if !keep {
                continue 'row;
            }
        }
        rows.insert(r);
    }
    Ok(rows)
}

/// Evaluates one physical step into a fact bitmap.
fn eval_step(
    wh: &Warehouse,
    jidx: &JoinIndex,
    origin: TableId,
    step: &PhysStep,
) -> Result<RowSet, QueryError> {
    match step {
        PhysStep::Semijoin { node, .. } => node.selection.try_eval(wh, jidx, origin),
        PhysStep::FusedScan { nodes, .. } => fused_scan(wh, origin, nodes),
    }
}

/// Evaluates one physical step through an optional cache, returning the
/// fact bitmap and whether it came from the cache. The cache is consulted
/// (counting a hit or miss) but a freshly evaluated bitmap is NOT stored:
/// [`execute_plan_traced`] collects the `(key, bitmap)` pairs of the
/// misses and commits them only once every step of the plan has
/// succeeded — the invariant that keeps an aborted query from poisoning
/// the [`SemijoinCache`] with partial state.
fn execute_step_raw(
    wh: &Warehouse,
    jidx: &JoinIndex,
    origin: TableId,
    step: &PhysStep,
    cache: Option<&SemijoinCache>,
) -> Result<(Arc<RowSet>, bool), QueryError> {
    let Some(cache) = cache else {
        return Ok((Arc::new(eval_step(wh, jidx, origin, step)?), false));
    };
    if let Some(rows) = cache.lookup(&step.key()) {
        return Ok((rows, true));
    }
    Ok((Arc::new(eval_step(wh, jidx, origin, step)?), false))
}

/// Executes a physical plan from `origin`, AND-ing the step bitmaps.
///
/// Steps evaluate across `exec`'s worker threads (independently — the
/// intersection is order-insensitive, so every thread count is
/// bit-identical to serial) and through `cache` when one is provided.
pub fn execute_plan(
    wh: &Warehouse,
    jidx: &JoinIndex,
    origin: TableId,
    plan: &PhysicalPlan,
    cache: Option<&SemijoinCache>,
    exec: &ExecConfig,
) -> Result<RowSet, QueryError> {
    execute_plan_traced(wh, jidx, origin, plan, cache, exec).map(|(rows, _)| rows)
}

/// [`execute_plan`] with a per-step [`StepTrace`] (estimated vs. actual
/// cardinality, cache hit), in execution order.
pub fn execute_plan_traced(
    wh: &Warehouse,
    jidx: &JoinIndex,
    origin: TableId,
    plan: &PhysicalPlan,
    cache: Option<&SemijoinCache>,
    exec: &ExecConfig,
) -> Result<(RowSet, Vec<StepTrace>), QueryError> {
    let n = wh.table(origin).nrows();
    let total_steps = plan.steps.len() as u64;
    // Each (worker or serial) evaluation polls governance, then measures
    // its own wall time; the coordinator below records the leaves in step
    // order, so the profile structure is identical at any thread count.
    // Fresh bitmaps go through `execute_step_raw` and are committed to
    // the cache only after EVERY step succeeded — an aborted plan leaves
    // the cache exactly as it found it.
    type TimedStep = (Result<(Arc<RowSet>, bool), QueryError>, u64);
    let timed_step = |i: usize, s: &PhysStep| -> TimedStep {
        let t = exec.obs.timer();
        let result = exec
            .check_at("semijoin", i as u64, total_steps)
            .and_then(|()| execute_step_raw(wh, jidx, origin, s, cache))
            .and_then(|(bitmap, hit)| {
                if !hit {
                    exec.charge("semijoin", bitmap.heap_bytes())?;
                }
                Ok((bitmap, hit))
            });
        (result, t.stop())
    };
    let results: Vec<TimedStep> = if exec.is_serial() || plan.steps.len() < 2 {
        plan.steps
            .iter()
            .enumerate()
            .map(|(i, s)| timed_step(i, s))
            .collect()
    } else {
        par_map(exec, &plan.steps, |i, s| timed_step(i, s))
    };
    let obs_on = exec.obs.is_enabled();
    // Metric handles hoisted out of the step loop: one registry lookup
    // per plan instead of one lock + map probe per step.
    let step_hist = exec.obs.histogram_handle("query.semijoin_step_ns");
    let hit_ctr = exec.obs.counter_handle("query.step_cache_hits");
    let miss_ctr = exec.obs.counter_handle("query.step_cache_misses");
    let profiling = exec.obs.is_profiling();
    let mut rows = RowSet::full(n);
    let mut traces = Vec::with_capacity(plan.steps.len());
    let mut fresh: Vec<(StepKey, Arc<RowSet>)> = Vec::with_capacity(plan.steps.len());
    for (step, (result, step_ns)) in plan.steps.iter().zip(results) {
        let (bitmap, cache_hit) = result?;
        if cache.is_some() && !cache_hit {
            fresh.push((step.key(), bitmap.clone()));
        }
        rows.intersect_with(&bitmap)?;
        let est_fraction = step.est_fraction();
        if obs_on {
            if let Some(h) = &step_hist {
                h.record(step_ns);
            }
            if let Some(c) = if cache_hit { &hit_ctr } else { &miss_ctr } {
                c.add(1);
            }
        }
        // Leaf construction (its notes allocate) only pays off while a
        // profile is being collected.
        if profiling {
            exec.obs.leaf(
                if step.n_constraints() > 1 {
                    "fused_scan"
                } else {
                    "semijoin"
                },
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
                    notes: vec![("constraints".into(), step.n_constraints().to_string())],
                },
            );
        }
        traces.push(StepTrace {
            est_fraction,
            est_rows: (est_fraction * n as f64).round() as usize,
            actual_rows: bitmap.len(),
            cache_hit,
            fused: step.n_constraints(),
        });
    }
    // Every step succeeded: publish the fresh bitmaps.
    if let Some(cache) = cache {
        for (key, bitmap) in fresh {
            cache.insert(key, bitmap);
        }
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
        let sels = vec![dim_selection(&wh, "Widget"), tag_selection(&wh, "hot")];
        let mut expect = RowSet::full(wh.fact_rows());
        for s in &sels {
            expect
                .intersect_with(&s.try_eval(&wh, &jidx, fact).unwrap())
                .unwrap();
        }
        let logical = LogicalPlan::from_selections(sels);
        let stats = StatsCatalog::new();
        for cfg in [PlannerConfig::default(), PlannerConfig::naive()] {
            let plan = optimize(&wh, fact, &logical, &cfg, Some(&stats));
            let rows = execute_plan(&wh, &jidx, fact, &plan, None, &ExecConfig::serial()).unwrap();
            assert_eq!(
                rows.iter().collect::<Vec<_>>(),
                expect.iter().collect::<Vec<_>>(),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn reorder_puts_most_selective_first() {
        let wh = fixture();
        let fact = wh.schema().fact_table();
        // Widget selects 2/6 facts, hot tag selects 4/6.
        let logical = LogicalPlan::from_selections(vec![
            tag_selection(&wh, "hot"),
            dim_selection(&wh, "Widget"),
        ]);
        let stats = StatsCatalog::new();
        let cfg = PlannerConfig {
            reorder: true,
            fuse_fact_local: false,
        };
        let plan = optimize(&wh, fact, &logical, &cfg, Some(&stats));
        let fractions: Vec<f64> = plan.steps.iter().map(|s| s.est_fraction()).collect();
        assert!(fractions.windows(2).all(|w| w[0] <= w[1]), "{fractions:?}");
        let PhysStep::Semijoin { node, .. } = &plan.steps[0] else {
            panic!("semijoin step expected");
        };
        assert_eq!(node.selection.attr, wh.col_ref("DIM", "Name").unwrap());
    }

    #[test]
    fn fact_local_predicates_fuse_into_one_step() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let attr = wh.col_ref("FACT", "Score").unwrap();
        let range = Selection::by_range(crate::path::JoinPath::empty(), attr, 2.0, 5.0);
        let logical = LogicalPlan::from_selections(vec![
            tag_selection(&wh, "hot"),
            range,
            dim_selection(&wh, "Gadget"),
        ]);
        let plan = optimize(&wh, fact, &logical, &PlannerConfig::default(), None);
        assert_eq!(plan.steps.len(), 2, "two fact-local predicates fused");
        assert!(plan
            .steps
            .iter()
            .any(|s| matches!(s, PhysStep::FusedScan { nodes, .. } if nodes.len() == 2)));
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
        let logical = LogicalPlan::from_selections(vec![dim_selection(&wh, "Widget")]);
        let plan = optimize(&wh, fact, &logical, &PlannerConfig::default(), None);
        let a = execute_plan(&wh, &jidx, fact, &plan, Some(&cache), &ExecConfig::serial()).unwrap();
        let (_, traces) =
            execute_plan_traced(&wh, &jidx, fact, &plan, Some(&cache), &ExecConfig::serial())
                .unwrap();
        assert!(traces[0].cache_hit);
        assert_eq!(traces[0].actual_rows, a.len());
        assert_eq!(cache.counters(), CacheCounters::new(1, 1, 0));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.counters(), CacheCounters::new(1, 1, 1));
    }

    #[test]
    fn traced_execution_feeds_profile_leaves() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let logical = LogicalPlan::from_selections(vec![
            dim_selection(&wh, "Widget"),
            tag_selection(&wh, "hot"),
        ]);
        let cfg = PlannerConfig {
            reorder: false,
            fuse_fact_local: false,
        };
        let plan = optimize(&wh, fact, &logical, &cfg, None);
        let obs = kdap_obs::Obs::enabled();
        obs.start_profile("q");
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
        let logical = LogicalPlan::from_selections(vec![
            dim_selection(&wh, "Widget"),
            tag_selection(&wh, "hot"),
            tag_selection(&wh, "cold"),
        ]);
        let stats = StatsCatalog::new();
        let plan = optimize(&wh, fact, &logical, &PlannerConfig::default(), Some(&stats));
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
    fn traces_report_estimates_and_actuals() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let logical = LogicalPlan::from_selections(vec![dim_selection(&wh, "Widget")]);
        let stats = StatsCatalog::new();
        let plan = optimize(&wh, fact, &logical, &PlannerConfig::default(), Some(&stats));
        let (_, traces) =
            execute_plan_traced(&wh, &jidx, fact, &plan, None, &ExecConfig::serial()).unwrap();
        assert_eq!(traces.len(), 1);
        // Widget: 1/3 of DIM rows → estimated 2/6 facts; actually 2.
        assert_eq!(traces[0].est_rows, 2);
        assert_eq!(traces[0].actual_rows, 2);
        assert!(!traces[0].cache_hit);
        assert_eq!(traces[0].fused, 1);
    }

    #[test]
    fn invalid_selection_surfaces_typed_error() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        // DIM attribute with an empty path: off the origin table.
        let attr = wh.col_ref("DIM", "Name").unwrap();
        let bad = Selection::by_codes(crate::path::JoinPath::empty(), attr, vec![0]);
        let logical = LogicalPlan::from_selections(vec![bad]);
        let plan = optimize(&wh, fact, &logical, &PlannerConfig::naive(), None);
        let err = execute_plan(&wh, &jidx, fact, &plan, None, &ExecConfig::serial());
        assert!(matches!(err, Err(QueryError::AttrOffPathTarget { .. })));
    }
}
