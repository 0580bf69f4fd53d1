//! Single-pass multi-aggregate facet kernel.
//!
//! The explore phase (§5) ranks *every* candidate group-by attribute over
//! the chosen subspace and each of its roll-up spaces. Done naively that
//! is one group-by scan per attribute per space — each re-scanning the
//! same bitmap, re-deriving the same row mappers, and re-evaluating the
//! measure per row. This module fuses them: **one scan** of the row set
//! feeds the accumulators of *all* facet specs at once, over
//! session-materialized inputs — a [`MeasureVector`] decoded once per
//! session and one pre-joined column per spec. A single-attribute
//! group-by is the one-spec case of the same scan.
//!
//! Every spec reads its attribute as a [`JoinedColumn`]: the column
//! decoded once and joined through every hop of its path after the first
//! (`RowMapper::pre_join`), one dictionary code or float per row of the
//! first edge's parent table. The caller builds it, and the explore
//! pipeline keeps one per `(attr, path)` for the life of its session, so
//! a scan decodes nothing. Low-cardinality categorical attributes
//! accumulate into **dense arrays sized by dictionary cardinality**
//! (`stats[code as usize]`, no hashing); attributes above
//! [`DENSE_GROUP_LIMIT`] fall back to the hash path. Numerical buckets
//! run the dense loop: a bucket spec maps its column's floats through its
//! [`Bucketizer`] once per scan (`NULL_CODE` for NULL or out-of-domain
//! values), so `bucket_of` runs once per parent row, not once per fact
//! row.
//!
//! The scan is row-major per first edge. Specs that share one are folded
//! together: each gathered row loads its parent row once, then each of
//! the edge's specs loads a code and updates `stats[code]` for it.
//!
//! A scan folds one value per group, under the [`Fold`] its caller's
//! aggregation function reads ([`AggFunc::fold`]): the running sum for
//! SUM, AVG and COUNT, the extremum for MIN or MAX. Every group also
//! counts its measure values and its rows, so the same scan answers
//! COUNT (bucket occupancy) beside the function it folded for.
//!
//! The bitmap is cut into fixed 128-word (`AGG_CHUNK_WORDS`) chunks. A
//! chunk that holds no row gets no partial (it would merge as the fold's
//! identity); the others' partials merge in chunk order — in the serial
//! arm too — so results depend only on the data, never on the thread
//! count. That chunk-then-merge order is the engine's floating-point
//! contract: the row-at-a-time oracle in `tests/support/` reproduces it,
//! and `tests/facet_equivalence.rs` holds the scan to it bit for bit.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use kdap_warehouse::{ColRef, Measure, Warehouse};

use crate::aggregate::{AggFunc, Bucketizer, Fold, AGG_CHUNK_WORDS};
use crate::bitmap::RowSet;
use crate::error::QueryError;
use crate::exec::{chunk_ranges, par_map, ExecConfig};
use crate::kernel::NULL_CODE;
use crate::semijoin::{PreJoined, RowMapper};

/// Default dictionary-cardinality cutoff for the dense accumulator path.
///
/// Dense arrays cost `cardinality × size_of::<GroupStats>()` per parallel
/// chunk; 4096 groups keep a partial under 200 KiB while covering every
/// dimension attribute of the synthetic warehouses.
pub const DENSE_GROUP_LIMIT: usize = 4096;

/// The measure decoded to a flat `f64` vector, once per fact table.
///
/// [`Warehouse::eval_measure`] walks the measure expression and the
/// column enums per call; facet construction evaluates it for the same
/// rows dozens of times (once per candidate attribute per space). This
/// materializes it once per session: NULL is stored as NaN, so `get`
/// reproduces `eval_measure` exactly for any measure whose non-null
/// values are non-NaN (a NaN stored *in* the data would be conflated
/// with NULL — acceptable, since a NaN measure value is meaningless to
/// every aggregate anyway).
#[derive(Debug, Clone)]
pub struct MeasureVector {
    values: Vec<f64>,
}

impl MeasureVector {
    /// Decodes `measure` for every fact row of `wh`.
    pub fn build(wh: &Warehouse, measure: &Measure) -> Self {
        let values = (0..wh.fact_rows())
            .map(|row| wh.eval_measure(measure, row).unwrap_or(f64::NAN))
            .collect();
        MeasureVector { values }
    }

    /// The measure value of `row`, `None` when NULL.
    #[inline]
    pub fn get(&self, row: usize) -> Option<f64> {
        let v = self.values[row];
        (!v.is_nan()).then_some(v)
    }

    /// Number of fact rows covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The raw decoded values, one `f64` per fact row with NULL stored as
    /// NaN — the gather source for the batch group-by kernels.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// True when the fact table has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// An attribute column decoded once and pre-joined to its join path's
/// first edge: one value per row of the first edge's parent table (per
/// origin row for the empty path), so a fact row reaches its value with
/// one load of the edge and one of the value.
///
/// A string column holds dictionary codes, [`NULL_CODE`] for NULL; a
/// numeric one holds floats, NaN for NULL. A join that dead-ends on a
/// NULL key reads the same NULL. It shares the first edge with the
/// session's [`JoinIndex`](crate::JoinIndex); what it owns is the values.
#[derive(Debug)]
pub struct JoinedColumn(Joined);

#[derive(Debug)]
enum Joined {
    Codes(PreJoined<u32>),
    Floats(PreJoined<f64>),
}

impl JoinedColumn {
    /// Decodes `attr`'s column and joins it through `mapper`'s hops after
    /// the first: one pass over the attribute's table, one over the first
    /// edge's parent table.
    pub fn new(wh: &Warehouse, attr: ColRef, mapper: &RowMapper) -> Self {
        let col = wh.column(attr);
        let mut codes = Vec::new();
        if col.unpack_codes_into(&mut codes) {
            return JoinedColumn(Joined::Codes(mapper.pre_join(codes, NULL_CODE)));
        }
        // Every column that is not a string column is numeric.
        let mut vals = Vec::new();
        col.unpack_floats_into(&mut vals);
        JoinedColumn(Joined::Floats(mapper.pre_join(vals, f64::NAN)))
    }

    /// Heap bytes of the joined values.
    pub fn heap_bytes(&self) -> u64 {
        match &self.0 {
            Joined::Codes(codes) => codes.heap_bytes(),
            Joined::Floats(vals) => vals.heap_bytes(),
        }
    }
}

/// One group-by requested from the fused scan.
///
/// Every variant that reads an attribute carries the attribute's
/// [`JoinedColumn`], shared with whoever built it, so the scan itself
/// touches no locks, builds no joins and decodes no column. A spec whose
/// column does not hold what it reads (a categorical spec over a numeric
/// column, a numerical one over a string column) reaches no group.
#[derive(Debug, Clone)]
pub enum FacetSpec {
    /// Group by the dictionary code of a categorical attribute.
    Categorical {
        /// The group-by attribute.
        attr: ColRef,
        /// The attribute's column, pre-joined along its path.
        column: Arc<JoinedColumn>,
    },
    /// Group a numerical attribute into basic intervals.
    Buckets {
        /// The group-by attribute.
        attr: ColRef,
        /// The attribute's column, pre-joined along its path.
        column: Arc<JoinedColumn>,
        /// The interval partitioning.
        buckets: Bucketizer,
    },
    /// Min/max of a numerical attribute over the rows (the domain a
    /// [`Bucketizer`] needs, without materializing the projection).
    NumericDomain {
        /// The attribute whose domain is measured.
        attr: ColRef,
        /// The attribute's column, pre-joined along its path.
        column: Arc<JoinedColumn>,
    },
    /// Total aggregate of the measure over the row set (no grouping).
    Total,
}

/// Accumulated state of one group: the scan's fold of the measure, and
/// two counts.
///
/// `rows` counts every row whose join reached a non-null attribute value
/// — independent of whether the measure was NULL — which is what domain
/// projection (`DOM(DS′, attr)`, §5.2) observes. `count` only counts
/// rows that contributed a measure value, which is what the finished
/// group-by maps are keyed by. Both views come out of the same scan.
#[derive(Debug, Clone, Copy)]
pub struct GroupStats {
    /// The scan's [`Fold`] over the group's non-null measure values.
    pub value: f64,
    /// Measure values folded into `value`.
    pub count: u64,
    /// Rows that reached the group, measure-null or not.
    pub rows: u64,
}

impl GroupStats {
    /// A group that has seen no row.
    pub(crate) fn empty(fold: Fold) -> Self {
        GroupStats {
            value: fold.identity(),
            count: 0,
            rows: 0,
        }
    }

    /// Counts one row of the group and folds its measure value `m` (NULL
    /// as NaN, which counts as a row and folds nothing).
    #[inline]
    fn add(&mut self, m: f64, op: impl Fn(f64, f64) -> f64) {
        self.rows += 1;
        if !m.is_nan() {
            self.value = op(self.value, m);
            self.count += 1;
        }
    }

    fn merge(&mut self, other: &GroupStats, fold: Fold) {
        self.value = fold.apply(self.value, other.value);
        self.count += other.count;
        self.rows += other.rows;
    }

    /// The group's aggregate under `func`, which must be a function the
    /// scan's fold answers (`func.fold()`; COUNT under any fold).
    ///
    /// Empty groups follow SQL semantics: `SUM`/`COUNT` yield 0 (what the
    /// score formulas expect for missing segments), while `AVG`/`MIN`/`MAX`
    /// are undefined and yield NaN — surfacing 0.0 there would fabricate a
    /// measure value that never occurred.
    pub fn finish(&self, func: AggFunc) -> f64 {
        match func {
            AggFunc::Sum => self.value,
            AggFunc::Count => self.count as f64,
            _ if self.count == 0 => f64::NAN,
            AggFunc::Avg => self.value / self.count as f64,
            AggFunc::Min | AggFunc::Max => self.value,
        }
    }
}

/// The result of one [`FacetSpec`] after the fused scan.
#[derive(Debug, Clone)]
pub enum FacetGroups {
    /// Categorical groups in a dense array indexed by dictionary code.
    Dense {
        /// One slot per dictionary code.
        stats: Vec<GroupStats>,
    },
    /// Categorical groups in a hash map (cardinality above the cutoff).
    Sparse {
        /// Group stats keyed by dictionary code.
        stats: HashMap<u32, GroupStats>,
    },
    /// Bucketized numerical groups, one slot per basic interval.
    Buckets {
        /// One slot per bucket.
        stats: Vec<GroupStats>,
    },
    /// Observed numerical domain.
    Domain {
        /// Smallest finite value seen (+∞ when none).
        min: f64,
        /// Largest finite value seen (−∞ when none).
        max: f64,
        /// Whether any finite value was seen.
        any: bool,
    },
    /// Ungrouped total over the row set.
    Total {
        /// The single accumulated group.
        stats: GroupStats,
    },
}

impl FacetGroups {
    /// Empty groups for `spec` under `fold`: a categorical spec gets a
    /// dense array of the column's cardinality when that is at most
    /// `dense_limit` ([`dense_slots`]).
    fn new_for(spec: &FacetSpec, wh: &Warehouse, dense_limit: usize, fold: Fold) -> Self {
        let empty = GroupStats::empty(fold);
        match spec {
            FacetSpec::Categorical { .. } => match dense_slots(spec, wh, dense_limit) {
                Some(card) => FacetGroups::Dense {
                    stats: vec![empty; card],
                },
                None => FacetGroups::Sparse {
                    stats: HashMap::new(),
                },
            },
            FacetSpec::Buckets { buckets, .. } => FacetGroups::Buckets {
                stats: vec![empty; buckets.n_buckets()],
            },
            FacetSpec::NumericDomain { .. } => FacetGroups::Domain {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                any: false,
            },
            FacetSpec::Total => FacetGroups::Total { stats: empty },
        }
    }

    /// Folds another partial of the same shape into this one. Callers
    /// merge per-chunk partials in chunk order, which keeps every
    /// group's accumulation order identical to the serial scan.
    fn merge(&mut self, other: &FacetGroups, fold: Fold) {
        match (self, other) {
            (FacetGroups::Dense { stats }, FacetGroups::Dense { stats: os }) => {
                for (m, p) in stats.iter_mut().zip(os) {
                    if p.rows > 0 {
                        m.merge(p, fold);
                    }
                }
            }
            (FacetGroups::Sparse { stats }, FacetGroups::Sparse { stats: os }) => {
                for (code, p) in os {
                    stats
                        .entry(*code)
                        .or_insert_with(|| GroupStats::empty(fold))
                        .merge(p, fold);
                }
            }
            (FacetGroups::Buckets { stats }, FacetGroups::Buckets { stats: os }) => {
                for (m, p) in stats.iter_mut().zip(os) {
                    m.merge(p, fold);
                }
            }
            (
                FacetGroups::Domain { min, max, any },
                FacetGroups::Domain {
                    min: omin,
                    max: omax,
                    any: oany,
                },
            ) => {
                *min = min.min(*omin);
                *max = max.max(*omax);
                *any |= oany;
            }
            (FacetGroups::Total { stats }, FacetGroups::Total { stats: os }) => {
                stats.merge(os, fold);
            }
            _ => unreachable!("partials of one spec share a shape"),
        }
    }

    /// True when this spec ran on the dense array path.
    pub fn is_dense(&self) -> bool {
        matches!(self, FacetGroups::Dense { .. })
    }

    /// Number of non-empty groups (categorical: codes present; buckets:
    /// occupied intervals; total: 0 or 1).
    pub fn n_groups(&self) -> usize {
        match self {
            FacetGroups::Dense { stats } => stats.iter().filter(|g| g.rows > 0).count(),
            FacetGroups::Sparse { stats } => stats.len(),
            FacetGroups::Buckets { stats } => stats.iter().filter(|g| g.count > 0).count(),
            FacetGroups::Domain { any, .. } => usize::from(*any),
            FacetGroups::Total { stats } => usize::from(stats.rows > 0),
        }
    }

    /// Sorted dictionary codes present in the rows — `DOM(DS′, attr)`
    /// (presence is a reached non-null attribute value; the measure may
    /// be NULL).
    pub fn domain(&self) -> Vec<u32> {
        match self {
            FacetGroups::Dense { stats } => stats
                .iter()
                .enumerate()
                .filter(|(_, g)| g.rows > 0)
                .map(|(code, _)| code as u32)
                .collect(),
            FacetGroups::Sparse { stats } => {
                let mut codes: Vec<u32> = stats
                    .iter()
                    .filter(|(_, g)| g.rows > 0)
                    .map(|(code, _)| *code)
                    .collect();
                codes.sort_unstable();
                codes
            }
            _ => Vec::new(),
        }
    }

    /// Finished categorical aggregates keyed by code (groups whose every
    /// measure value was NULL are absent). `func` must be one the scan's
    /// fold answers ([`GroupStats::finish`]).
    pub fn to_map(&self, func: AggFunc) -> HashMap<u32, f64> {
        match self {
            FacetGroups::Dense { stats } => stats
                .iter()
                .enumerate()
                .filter(|(_, g)| g.count > 0)
                .map(|(code, g)| (code as u32, g.finish(func)))
                .collect(),
            FacetGroups::Sparse { stats } => stats
                .iter()
                .filter(|(_, g)| g.count > 0)
                .map(|(code, g)| (*code, g.finish(func)))
                .collect(),
            _ => HashMap::new(),
        }
    }

    /// Finished per-bucket aggregates, one per basic interval (empty
    /// buckets finish as the aggregate of no rows). `func` must be one
    /// the scan's fold answers.
    pub fn to_series(&self, func: AggFunc) -> Vec<f64> {
        match self {
            FacetGroups::Buckets { stats } => stats.iter().map(|g| g.finish(func)).collect(),
            _ => Vec::new(),
        }
    }

    /// An equal-width bucketizer over the observed numerical domain —
    /// [`Bucketizer::equal_width`] of the projected values, without
    /// materializing the projection.
    pub fn bucketizer(&self, n: usize) -> Option<Bucketizer> {
        match self {
            FacetGroups::Domain { min, max, any } => any.then_some(Bucketizer::EqualWidth {
                min: *min,
                max: *max,
                n,
            }),
            _ => None,
        }
    }

    /// Finished total aggregate over the row set, under a `func` the
    /// scan's fold answers.
    pub fn total(&self, func: AggFunc) -> f64 {
        match self {
            FacetGroups::Total { stats } => stats.finish(func),
            _ => f64::NAN,
        }
    }
}

/// The dense array length of a categorical spec: its column's
/// cardinality, when that is at most `dense_limit`.
fn dense_slots(spec: &FacetSpec, wh: &Warehouse, dense_limit: usize) -> Option<usize> {
    match spec {
        FacetSpec::Categorical { attr, .. } => {
            wh.column(*attr).cardinality().filter(|&c| c <= dense_limit)
        }
        _ => None,
    }
}

/// Bytes of the fixed-size group state a chunk partial allocates for
/// `spec`: its dense array or its bucket slots. A hash map starts empty
/// and grows with the data uncharged (see DESIGN.md).
fn fixed_group_bytes(spec: &FacetSpec, wh: &Warehouse, dense_limit: usize) -> u64 {
    let slots = match spec {
        FacetSpec::Buckets { buckets, .. } => buckets.n_buckets(),
        _ => dense_slots(spec, wh, dense_limit).unwrap_or(0),
    };
    (slots * std::mem::size_of::<GroupStats>()) as u64
}

/// What one spec reads in one scan.
enum Input<'a> {
    /// The measure of every gathered row (a total spec).
    Total,
    /// A group code per parent row: dictionary codes, or bucket indices
    /// mapped for this scan.
    Codes(&'a PreJoined<u32>),
    /// A float per parent row (a domain spec).
    Floats(&'a PreJoined<f64>),
    /// A column that does not hold what the spec reads: no row
    /// contributes.
    Nothing,
}

/// The specs of one scan that read through one first edge.
struct Edge<'a> {
    /// Origin row → parent row; `None` for the empty path.
    first: Option<&'a [u32]>,
    /// Rows of the parent table: the slot a `NO_ROW` hop clamps to.
    parent_rows: usize,
    /// Dense categorical and bucket specs, in spec order, folded in one
    /// pass.
    arrays: Vec<usize>,
    /// Hash-map categorical and domain specs, in spec order.
    others: Vec<usize>,
}

/// How one scan reads its specs: each spec's input, the specs that read a
/// column grouped by first edge (in order of first appearance), and the
/// totals.
struct Plan<'a> {
    inputs: Vec<Input<'a>>,
    edges: Vec<Edge<'a>>,
    totals: Vec<usize>,
}

impl<'a> Plan<'a> {
    /// `bucket_codes` holds, per spec, a bucket spec's codes for this
    /// scan ([`bucket_codes`]).
    fn new(
        specs: &'a [FacetSpec],
        bucket_codes: &'a [Option<PreJoined<u32>>],
        wh: &Warehouse,
        dense_limit: usize,
    ) -> Self {
        let mut plan = Plan {
            inputs: Vec::with_capacity(specs.len()),
            edges: Vec::new(),
            totals: Vec::new(),
        };
        for (i, (spec, bucketed)) in specs.iter().zip(bucket_codes).enumerate() {
            let column = match (spec, bucketed) {
                (FacetSpec::Total, _) => {
                    plan.totals.push(i);
                    plan.inputs.push(Input::Total);
                    continue;
                }
                (FacetSpec::Buckets { .. }, Some(codes)) => Some((Input::Codes(codes), true)),
                (FacetSpec::Buckets { .. }, None) => None,
                (FacetSpec::Categorical { column, .. }, _) => match &column.0 {
                    Joined::Codes(codes) => {
                        let dense = dense_slots(spec, wh, dense_limit).is_some();
                        Some((Input::Codes(codes), dense))
                    }
                    Joined::Floats(_) => None,
                },
                (FacetSpec::NumericDomain { column, .. }, _) => match &column.0 {
                    Joined::Floats(vals) => Some((Input::Floats(vals), false)),
                    Joined::Codes(_) => None,
                },
            };
            match column {
                Some((input, array)) => plan.place(i, input, array),
                None => plan.inputs.push(Input::Nothing),
            }
        }
        plan
    }

    /// Appends spec `i`'s `input` (a column) and files it under its first
    /// edge, among the array specs when `array`.
    fn place(&mut self, i: usize, input: Input<'a>, array: bool) {
        let (first, parent_rows) = match input {
            Input::Codes(codes) => (codes.first(), codes.parent_rows()),
            Input::Floats(vals) => (vals.first(), vals.parent_rows()),
            Input::Total | Input::Nothing => unreachable!("only columns are placed"),
        };
        let first = first.map(|f| &f[..]);
        let same = |e: &Edge| {
            e.parent_rows == parent_rows
                && e.first.map(<[u32]>::as_ptr) == first.map(<[u32]>::as_ptr)
        };
        let at = match self.edges.iter().position(same) {
            Some(at) => at,
            None => {
                self.edges.push(Edge {
                    first,
                    parent_rows,
                    arrays: Vec::new(),
                    others: Vec::new(),
                });
                self.edges.len() - 1
            }
        };
        let edge = &mut self.edges[at];
        if array {
            edge.arrays.push(i);
        } else {
            edge.others.push(i);
        }
        self.inputs.push(input);
    }
}

/// A bucket spec's group code per parent row for one scan: its column's
/// floats through its bucketizer, [`NULL_CODE`] for NULL, out-of-domain
/// values and joins that dead-end. `None` for every other spec, and for a
/// bucket spec over a string column.
fn bucket_codes(spec: &FacetSpec) -> Option<PreJoined<u32>> {
    let FacetSpec::Buckets {
        column, buckets, ..
    } = spec
    else {
        return None;
    };
    match &column.0 {
        Joined::Floats(vals) => {
            Some(vals.map(|v| buckets.bucket_of(v).map_or(NULL_CODE, |b| b as u32)))
        }
        Joined::Codes(_) => None,
    }
}

thread_local! {
    /// Per-worker batch buffers: selected row indices, their gathered
    /// measure values and their parent rows on one edge, for one chunk
    /// (≤ 8192 rows = 128 KiB), reused across chunks so the steady-state
    /// scan allocates nothing but its partials.
    static BATCH_SCRATCH: RefCell<(Vec<u32>, Vec<f64>, Vec<u32>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Every array spec of one edge folds a chunk: for each gathered row `k`
/// in ascending order, each spec loads the code of parent row
/// `parents[k]` and, unless it is [`NULL_CODE`], counts the row into
/// `stats[code]` and folds its measure by `op`.
#[inline(always)]
fn fold_arrays(
    groups: &mut [FacetGroups],
    inputs: &[Input],
    arrays: &[usize],
    parents: &[u32],
    meas: &[f64],
    op: impl Fn(f64, f64) -> f64 + Copy,
) {
    // `arrays` is in ascending spec order.
    let mut next = arrays.iter().peekable();
    let mut lanes: Vec<(&[u32], &mut [GroupStats])> = Vec::with_capacity(arrays.len());
    for (i, (g, input)) in groups.iter_mut().zip(inputs).enumerate() {
        if next.next_if_eq(&&i).is_none() {
            continue;
        }
        match (g, input) {
            (
                FacetGroups::Dense { stats } | FacetGroups::Buckets { stats },
                Input::Codes(codes),
            ) => lanes.push((codes.values(), stats.as_mut_slice())),
            _ => unreachable!("array specs read codes into arrays"),
        }
    }
    for (&p, &m) in parents.iter().zip(meas) {
        for (codes, stats) in lanes.iter_mut() {
            let code = codes[p as usize];
            if code != NULL_CODE {
                // A dictionary code is below the column's cardinality, a
                // bucket code below `n_buckets`: both index `stats`.
                stats[code as usize].add(m, op);
            }
        }
    }
}

/// One chunk's gathered rows (`rows`, their measures `meas`) folded into
/// every spec's groups, edge by edge: `parents` is refilled with each
/// row's parent row on the edge, then the edge's specs read it. `op` is
/// `fold`'s operation as a function of its own, so each fold runs its own
/// copy of the loops.
#[inline(always)]
fn fold_chunk(
    groups: &mut [FacetGroups],
    plan: &Plan,
    rows: &[u32],
    meas: &[f64],
    parents: &mut Vec<u32>,
    fold: Fold,
    op: impl Fn(f64, f64) -> f64 + Copy,
) {
    for &i in &plan.totals {
        let FacetGroups::Total { stats } = &mut groups[i] else {
            unreachable!("a total spec folds into a total")
        };
        meas.iter().for_each(|&m| stats.add(m, op));
    }
    for edge in &plan.edges {
        parents.clear();
        match edge.first {
            // `NO_ROW` clamps to the trailing NULL slot.
            Some(first) => {
                let none = edge.parent_rows as u32;
                parents.extend(rows.iter().map(|&r| first[r as usize].min(none)));
            }
            None => parents.extend_from_slice(rows),
        }
        fold_arrays(groups, &plan.inputs, &edge.arrays, parents, meas, op);
        for &i in &edge.others {
            match (&mut groups[i], &plan.inputs[i]) {
                // The hash-map loop of a categorical spec above the dense
                // cutoff: the dense loop keyed by code.
                (FacetGroups::Sparse { stats }, Input::Codes(codes)) => {
                    let codes = codes.values();
                    for (&p, &m) in parents.iter().zip(meas) {
                        let code = codes[p as usize];
                        if code != NULL_CODE {
                            stats
                                .entry(code)
                                .or_insert_with(|| GroupStats::empty(fold))
                                .add(m, op);
                        }
                    }
                }
                (FacetGroups::Domain { min, max, any }, Input::Floats(vals)) => {
                    let vals = vals.values();
                    for &p in parents.iter() {
                        let v = vals[p as usize];
                        if v.is_finite() {
                            *min = min.min(v);
                            *max = max.max(v);
                            *any = true;
                        }
                    }
                }
                _ => unreachable!("groups and inputs were built from the same specs"),
            }
        }
    }
}

/// Scans `rows` once, folding the measure into every spec's groups by
/// `fold`.
///
/// Returns one [`FacetGroups`] per spec, in spec order, whose aggregates
/// finish under any function `fold` answers ([`AggFunc::fold`]).
/// Categorical specs whose dictionary cardinality is at most
/// `dense_limit` use dense arrays; larger ones fall back to hash maps. A
/// column's cardinality is its largest code plus one, so no dictionary
/// code indexes past a dense array. The bitmap is cut into 128-word
/// (`AGG_CHUNK_WORDS`) chunks; those that hold a row are scanned (serially
/// below two of them) into partials that merge in chunk order, so output
/// is independent of the thread count.
///
/// Each chunk runs as a **batch**: the selected row indices are collected
/// into a reusable buffer and their measure values gathered in one pass.
/// Then, per first edge, each row's parent row is gathered once and the
/// edge's specs fold the rows row-major, all in one pass, against their
/// [`JoinedColumn`]s. Every group sees its rows in ascending order
/// and floating-point accumulation stays strictly sequential per group,
/// so the scan produces the row-at-a-time oracle's bits
/// (`tests/simd_equivalence.rs`).
///
/// Governance (when `exec` carries a [`crate::QueryContext`]) is polled
/// per chunk scanned, and the bucket codes and every chunk's accumulator
/// allocation are charged to the memory budget; breaches return
/// [`QueryError::Governed`]. A row set over more rows than `mv` holds is
/// a [`QueryError::UniverseMismatch`].
pub fn multi_group_by_exec(
    wh: &Warehouse,
    specs: &[FacetSpec],
    rows: &RowSet,
    mv: &MeasureVector,
    fold: Fold,
    exec: &ExecConfig,
    dense_limit: usize,
) -> Result<Vec<FacetGroups>, QueryError> {
    exec.check("multi_group_by")?;
    // The scan indexes the measure vector by fact row.
    if rows.universe() > mv.len() {
        return Err(QueryError::UniverseMismatch {
            left: rows.universe(),
            right: mv.len(),
        });
    }
    let bucketed: Vec<Option<PreJoined<u32>>> = specs.iter().map(bucket_codes).collect();
    exec.charge(
        "multi_group_by",
        bucketed.iter().flatten().map(PreJoined::heap_bytes).sum(),
    )?;
    let plan = Plan::new(specs, &bucketed, wh, dense_limit);
    let empty_groups = || -> Vec<FacetGroups> {
        specs
            .iter()
            .map(|s| FacetGroups::new_for(s, wh, dense_limit, fold))
            .collect()
    };
    let accumulate = |range: std::ops::Range<usize>| {
        let mut groups = empty_groups();
        BATCH_SCRATCH.with(|scratch| {
            let (row_buf, meas_buf, parents) = &mut *scratch.borrow_mut();
            rows.collect_rows_in_word_range(range, row_buf);
            // Bounds-checked gather; the entry check makes every index
            // valid, so the check never fires.
            let measures = mv.as_slice();
            meas_buf.clear();
            meas_buf.extend(row_buf.iter().map(|&r| measures[r as usize]));
            let (rows, meas) = (&row_buf[..], &meas_buf[..]);
            let g = &mut groups;
            match fold {
                Fold::Sum => fold_chunk(g, &plan, rows, meas, parents, fold, |a, m| a + m),
                Fold::Min => fold_chunk(g, &plan, rows, meas, parents, fold, f64::min),
                Fold::Max => fold_chunk(g, &plan, rows, meas, parents, fold, f64::max),
            }
        });
        groups
    };
    // A chunk that holds no row gets no partial: it would merge as the
    // fold's identity.
    let ranges: Vec<std::ops::Range<usize>> = chunk_ranges(rows.n_words(), AGG_CHUNK_WORDS)
        .into_iter()
        .filter(|r| rows.any_in_word_range(r.clone()))
        .collect();
    let nchunks = ranges.len() as u64;
    // Fixed-size accumulator state of one chunk partial (dense arrays and
    // bucket slots), charged to the budget before the chunk scans.
    let partial_bytes: u64 = specs
        .iter()
        .map(|s| fixed_group_bytes(s, wh, dense_limit))
        .sum();
    // Each chunk polls governance, then measures its own wall time (a
    // no-op with obs off); the coordinator records them in chunk order.
    let timed = |idx: usize, range: std::ops::Range<usize>| {
        exec.check_at("multi_group_by", idx as u64, nchunks)?;
        exec.charge("multi_group_by", partial_bytes)?;
        let t = exec.obs.timer();
        let groups = accumulate(range);
        Ok::<_, QueryError>((groups, t.stop()))
    };
    // Both arms chunk identically and merge in chunk order, so the result
    // depends only on the data, never on the thread count.
    let partials: Vec<(Vec<FacetGroups>, u64)> = if exec.is_serial() || ranges.len() < 2 {
        ranges
            .iter()
            .enumerate()
            .map(|(i, r)| timed(i, r.clone()))
            .collect::<Result<_, _>>()?
    } else {
        par_map(exec, &ranges, |i, r| timed(i, r.clone()))
            .into_iter()
            .collect::<Result<_, _>>()?
    };
    let mut merged = empty_groups();
    for (partial, _) in &partials {
        for (m, p) in merged.iter_mut().zip(partial) {
            m.merge(p, fold);
        }
    }
    if exec.obs.is_enabled() {
        // One registry lookup for the whole chunk sweep, not one per
        // chunk.
        if let Some(h) = exec.obs.histogram_handle("query.agg_chunk_ns") {
            for (_, chunk_ns) in &partials {
                h.record(*chunk_ns);
            }
        }
        // The dense/hash dispatch decision per categorical spec.
        let dense = merged.iter().filter(|g| g.is_dense()).count();
        let hash = merged
            .iter()
            .filter(|g| matches!(g, FacetGroups::Sparse { .. }))
            .count();
        exec.obs.inc("query.agg_dense_dispatch", dense as u64);
        exec.obs.inc("query.agg_hash_dispatch", hash as u64);
    }
    if exec.obs.is_profiling() {
        let dense = merged.iter().filter(|g| g.is_dense()).count();
        let hash = merged
            .iter()
            .filter(|g| matches!(g, FacetGroups::Sparse { .. }))
            .count();
        exec.obs.leaf(
            "multi_group_by",
            kdap_obs::LeafData {
                wall_ns: partials.iter().map(|(_, ns)| ns).sum(),
                rows_in: Some(rows.len() as u64),
                rows_out: Some(merged.iter().map(|g| g.n_groups() as u64).sum()),
                cache: None,
                notes: vec![
                    ("specs".into(), specs.len().to_string()),
                    ("chunks".into(), partials.len().to_string()),
                    ("dense".into(), dense.to_string()),
                    ("hash".into(), hash.to_string()),
                ],
            },
        );
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::paths_between;
    use crate::semijoin::JoinIndex;
    use kdap_warehouse::{ValueType, WarehouseBuilder};

    /// SALES(5 rows, one with a NULL measure operand) → STORE(3 rows).
    fn store_sales() -> Warehouse {
        let mut b = WarehouseBuilder::new();
        b.table(
            "SALES",
            &[
                ("Id", ValueType::Int, false),
                ("SKey", ValueType::Int, false),
                ("Qty", ValueType::Int, false),
                ("Price", ValueType::Float, false),
            ],
        )
        .unwrap();
        b.table(
            "STORE",
            &[
                ("SKey", ValueType::Int, false),
                ("City", ValueType::Str, true),
                ("SqFt", ValueType::Float, false),
            ],
        )
        .unwrap();
        b.rows(
            "STORE",
            vec![
                vec![1i64.into(), "Columbus".into(), 100.0.into()],
                vec![2i64.into(), "Seattle".into(), 200.0.into()],
                vec![3i64.into(), "Columbus".into(), 300.0.into()],
            ],
        )
        .unwrap();
        b.rows(
            "SALES",
            vec![
                vec![0i64.into(), 1i64.into(), 1i64.into(), 10.0.into()],
                vec![1i64.into(), 1i64.into(), 2i64.into(), 10.0.into()],
                vec![2i64.into(), 2i64.into(), 1i64.into(), 50.0.into()],
                vec![3i64.into(), 3i64.into(), 4i64.into(), 5.0.into()],
                // NULL price: reaches the store, contributes no measure.
                vec![
                    4i64.into(),
                    2i64.into(),
                    1i64.into(),
                    kdap_warehouse::Value::Null,
                ],
            ],
        )
        .unwrap();
        b.edge("SALES.SKey", "STORE.SKey", None, Some("Store"))
            .unwrap();
        b.dimension("Store", &["STORE"], vec![], vec![]).unwrap();
        b.fact("SALES").unwrap();
        b.measure_product("Revenue", "SALES.Price", "SALES.Qty")
            .unwrap();
        b.finish().unwrap()
    }

    fn setup() -> (Warehouse, JoinIndex, crate::path::JoinPath, Measure) {
        let wh = store_sales();
        let idx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let store = wh.table_id("STORE").unwrap();
        let path = paths_between(wh.schema(), fact, store, 4).remove(0);
        let measure = wh.schema().measure_by_name("Revenue").unwrap().clone();
        (wh, idx, path, measure)
    }

    /// Serial SUM-fold scan with the default dense cutoff.
    fn scan(
        wh: &Warehouse,
        specs: &[FacetSpec],
        rows: &RowSet,
        mv: &MeasureVector,
    ) -> Vec<FacetGroups> {
        scan_folding(wh, specs, rows, mv, Fold::Sum)
    }

    fn scan_folding(
        wh: &Warehouse,
        specs: &[FacetSpec],
        rows: &RowSet,
        mv: &MeasureVector,
        fold: Fold,
    ) -> Vec<FacetGroups> {
        multi_group_by_exec(
            wh,
            specs,
            rows,
            mv,
            fold,
            &ExecConfig::serial(),
            DENSE_GROUP_LIMIT,
        )
        .unwrap()
    }

    #[test]
    fn measure_vector_reproduces_eval_measure() {
        let (wh, _, _, measure) = setup();
        let mv = MeasureVector::build(&wh, &measure);
        assert_eq!(mv.len(), wh.fact_rows());
        assert!(!mv.is_empty());
        for row in 0..wh.fact_rows() {
            assert_eq!(mv.get(row), wh.eval_measure(&measure, row), "row {row}");
        }
    }

    #[test]
    fn one_scan_answers_every_spec() {
        let (wh, idx, path, measure) = setup();
        let city = wh.col_ref("STORE", "City").unwrap();
        let sqft = wh.col_ref("STORE", "SqFt").unwrap();
        let all = RowSet::full(wh.fact_rows());
        let mv = MeasureVector::build(&wh, &measure);
        let mapper = idx.row_mapper(&path);
        let domain = FacetSpec::NumericDomain {
            attr: sqft,
            column: JoinedColumn::new(&wh, sqft, &mapper).into(),
        };
        let buckets = scan(&wh, std::slice::from_ref(&domain), &all, &mv)[0]
            .bucketizer(2)
            .unwrap();
        assert_eq!(
            buckets,
            Bucketizer::EqualWidth {
                min: 100.0,
                max: 300.0,
                n: 2
            }
        );
        let specs = vec![
            FacetSpec::Categorical {
                attr: city,
                column: JoinedColumn::new(&wh, city, &mapper).into(),
            },
            FacetSpec::Buckets {
                attr: sqft,
                column: JoinedColumn::new(&wh, sqft, &mapper).into(),
                buckets,
            },
            domain,
            FacetSpec::Total,
        ];
        let dict = wh.column(city).dict().unwrap();
        let columbus = dict.code_of("Columbus").unwrap();
        let seattle = dict.code_of("Seattle").unwrap();
        for dense_limit in [DENSE_GROUP_LIMIT, 0] {
            let exec = ExecConfig::serial();
            let groups =
                multi_group_by_exec(&wh, &specs, &all, &mv, Fold::Sum, &exec, dense_limit).unwrap();
            assert_eq!(groups[0].is_dense(), dense_limit > 0);
            // Columbus: 10 + 20 + 20; Seattle: 50 (+ one NULL-measure row).
            let map = groups[0].to_map(AggFunc::Sum);
            assert_eq!(map.len(), 2);
            assert_eq!(map[&columbus], 50.0);
            assert_eq!(map[&seattle], 50.0);
            let mut codes = vec![columbus, seattle];
            codes.sort_unstable();
            assert_eq!(groups[0].domain(), codes);
            // Buckets are half-open: [100, 200) holds SqFt=100 (10 + 20);
            // [200, 300] holds SqFt=200 and 300 (50 + 20).
            assert_eq!(groups[1].to_series(AggFunc::Sum), vec![30.0, 70.0]);
            assert_eq!(groups[1].to_series(AggFunc::Count), vec![2.0, 2.0]);
            assert_eq!(groups[3].total(AggFunc::Sum), 100.0);
            assert_eq!(groups[3].total(AggFunc::Count), 4.0);
            assert_eq!(groups[3].total(AggFunc::Avg), 25.0);
        }
        // A MIN or MAX scan folds the extremum instead, per group too.
        let min = scan_folding(&wh, &specs, &all, &mv, Fold::Min);
        assert_eq!(min[3].total(AggFunc::Min), 10.0);
        assert_eq!(min[3].total(AggFunc::Count), 4.0);
        assert_eq!(min[1].to_series(AggFunc::Min), vec![10.0, 20.0]);
        let max = scan_folding(&wh, &specs, &all, &mv, Fold::Max);
        assert_eq!(max[3].total(AggFunc::Max), 50.0);
        assert_eq!(max[0].to_map(AggFunc::Max)[&columbus], 20.0);
        // A subset of the rows restricts every group.
        let subset = RowSet::from_rows(wh.fact_rows(), [0, 2]);
        let map = scan(&wh, &specs[..1], &subset, &mv)[0].to_map(AggFunc::Sum);
        assert_eq!(map[&columbus], 10.0);
        assert_eq!(map[&seattle], 50.0);
    }

    #[test]
    fn empty_set_aggregation_semantics() {
        let (wh, _, _, measure) = setup();
        let mv = MeasureVector::build(&wh, &measure);
        let none = RowSet::empty(wh.fact_rows());
        let total = |func: AggFunc| {
            scan_folding(&wh, &[FacetSpec::Total], &none, &mv, func.fold())[0].total(func)
        };
        // SUM/COUNT over nothing are 0, per SQL.
        assert_eq!(total(AggFunc::Sum), 0.0);
        assert_eq!(total(AggFunc::Count), 0.0);
        // MIN/MAX/AVG over nothing are undefined — NaN, never a fake 0.0.
        assert!(total(AggFunc::Min).is_nan());
        assert!(total(AggFunc::Max).is_nan());
        assert!(total(AggFunc::Avg).is_nan());
    }

    #[test]
    fn null_measure_rows_count_for_presence_not_aggregates() {
        let (wh, idx, path, measure) = setup();
        let city = wh.col_ref("STORE", "City").unwrap();
        let mv = MeasureVector::build(&wh, &measure);
        let mapper = idx.row_mapper(&path);
        // Only the NULL-measure fact (row 4, Seattle).
        let only_null = RowSet::from_rows(wh.fact_rows(), [4]);
        let specs = vec![FacetSpec::Categorical {
            attr: city,
            column: JoinedColumn::new(&wh, city, &mapper).into(),
        }];
        let groups = scan(&wh, &specs, &only_null, &mv);
        let seattle = wh.column(city).dict().unwrap().code_of("Seattle").unwrap();
        // Seattle is present in the domain…
        assert_eq!(groups[0].domain(), vec![seattle]);
        assert_eq!(groups[0].n_groups(), 1);
        // …but contributes no aggregate.
        assert!(groups[0].to_map(AggFunc::Sum).is_empty());
    }

    #[test]
    fn threaded_execution_matches_serial() {
        let (wh, idx, path, measure) = setup();
        let city = wh.col_ref("STORE", "City").unwrap();
        let mv = MeasureVector::build(&wh, &measure);
        let mapper = idx.row_mapper(&path);
        let specs = vec![
            FacetSpec::Categorical {
                attr: city,
                column: JoinedColumn::new(&wh, city, &mapper).into(),
            },
            FacetSpec::Total,
        ];
        let all = RowSet::full(wh.fact_rows());
        let serial = scan(&wh, &specs, &all, &mv);
        for threads in [2, 4] {
            let exec = ExecConfig::with_threads(threads);
            let par =
                multi_group_by_exec(&wh, &specs, &all, &mv, Fold::Sum, &exec, DENSE_GROUP_LIMIT)
                    .unwrap();
            assert_eq!(par[0].to_map(AggFunc::Sum), serial[0].to_map(AggFunc::Sum));
            assert_eq!(
                par[1].total(AggFunc::Sum).to_bits(),
                serial[1].total(AggFunc::Sum).to_bits()
            );
        }
    }

    #[test]
    fn a_chunk_that_holds_no_row_is_not_scanned() {
        // SALES(3 chunks of 8192 rows) → STORE(3 rows), measure = price.
        let mut b = WarehouseBuilder::new();
        let cols = [
            ("SKey", ValueType::Int, false),
            ("Price", ValueType::Float, false),
        ];
        b.table("SALES", &cols).unwrap();
        let cols = [
            ("SKey", ValueType::Int, false),
            ("City", ValueType::Str, true),
        ];
        b.table("STORE", &cols).unwrap();
        for (k, city) in ["Columbus", "Seattle", "Austin"].iter().enumerate() {
            b.row("STORE", vec![(k as i64).into(), (*city).into()])
                .unwrap();
        }
        let n = 3 * 8192;
        let sales = (0..n).map(|r| vec![(r as i64 % 3).into(), (r as f64 * 0.1).into()]);
        b.rows("SALES", sales.collect()).unwrap();
        b.edge("SALES.SKey", "STORE.SKey", None, Some("Store"))
            .unwrap();
        b.dimension("Store", &["STORE"], vec![], vec![]).unwrap();
        b.fact("SALES").unwrap();
        b.measure_column("Revenue", "SALES.Price").unwrap();
        let wh = b.finish().unwrap();
        let idx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let store = wh.table_id("STORE").unwrap();
        let path = paths_between(wh.schema(), fact, store, 4).remove(0);
        let city = wh.col_ref("STORE", "City").unwrap();
        let measure = wh.schema().measure_by_name("Revenue").unwrap().clone();
        let mv = MeasureVector::build(&wh, &measure);
        let specs = [
            FacetSpec::Categorical {
                attr: city,
                column: JoinedColumn::new(&wh, city, &idx.row_mapper(&path)).into(),
            },
            FacetSpec::Total,
        ];
        // Rows in the first and the last chunk, none in the middle one.
        let ends = RowSet::from_rows(n, (0..n).filter(|r| r % 8192 < 100 && r / 8192 != 1));
        for (rows, scanned) in [(&ends, 2), (&RowSet::empty(n), 0), (&RowSet::full(n), 3)] {
            for threads in [1, 2] {
                let obs = kdap_obs::Obs::enabled().profiled("q");
                let exec = ExecConfig::with_threads(threads).with_obs(obs.clone());
                let groups = multi_group_by_exec(
                    &wh,
                    &specs,
                    rows,
                    &mv,
                    Fold::Sum,
                    &exec,
                    DENSE_GROUP_LIMIT,
                )
                .unwrap();
                assert_eq!(groups[1].total(AggFunc::Count), rows.len() as f64);
                let histograms = obs.metrics_snapshot().histograms;
                let chunks = histograms.get("query.agg_chunk_ns").map_or(0, |h| h.count);
                assert_eq!(chunks, scanned, "threads={threads}");
                let leaf = &obs.take_profile().unwrap().roots[0];
                let note = leaf.notes.iter().find(|(k, _)| k == "chunks").unwrap();
                assert_eq!(note.1, scanned.to_string(), "threads={threads}");
            }
        }
    }

    #[test]
    fn governed_scan_honors_cancellation_and_budget() {
        use crate::govern::QueryContext;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let (wh, idx, path, measure) = setup();
        let city = wh.col_ref("STORE", "City").unwrap();
        let mv = MeasureVector::build(&wh, &measure);
        let mapper = idx.row_mapper(&path);
        let specs = vec![FacetSpec::Categorical {
            attr: city,
            column: JoinedColumn::new(&wh, city, &mapper).into(),
        }];
        let all = RowSet::full(wh.fact_rows());

        // Pre-cancelled token: the first chunk check aborts the scan.
        let cancel = Arc::new(AtomicBool::new(true));
        let ctx = Arc::new(QueryContext::new(None, None, cancel));
        let exec = ExecConfig::serial().with_govern(ctx);
        let err = multi_group_by_exec(&wh, &specs, &all, &mv, Fold::Sum, &exec, DENSE_GROUP_LIMIT)
            .unwrap_err();
        assert!(matches!(
            err,
            QueryError::Governed {
                breach: crate::govern::Breach::Cancelled,
                stage: "multi_group_by",
                ..
            }
        ));

        // A one-byte budget: the dense partial allocation breaches it.
        let ctx = Arc::new(QueryContext::new(
            None,
            Some(1),
            Arc::new(AtomicBool::new(false)),
        ));
        let exec = ExecConfig::serial().with_govern(ctx);
        let err = multi_group_by_exec(&wh, &specs, &all, &mv, Fold::Sum, &exec, DENSE_GROUP_LIMIT)
            .unwrap_err();
        assert!(matches!(
            err,
            QueryError::Governed {
                breach: crate::govern::Breach::Budget { .. },
                ..
            }
        ));

        // Ungoverned (and generous) runs still succeed.
        let ctx = Arc::new(QueryContext::new(
            None,
            Some(1 << 20),
            Arc::new(AtomicBool::new(false)),
        ));
        let exec = ExecConfig::serial().with_govern(ctx.clone());
        let groups =
            multi_group_by_exec(&wh, &specs, &all, &mv, Fold::Sum, &exec, DENSE_GROUP_LIMIT);
        assert!(groups.is_ok());
        assert!(ctx.charged() > 0, "allocations were charged");
    }
}
