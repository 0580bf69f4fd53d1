//! Single-pass multi-aggregate facet kernel.
//!
//! The explore phase (§5) ranks *every* candidate group-by attribute over
//! the chosen subspace and each of its roll-up spaces. Done naively that
//! is one group-by scan per attribute per space — each re-scanning the
//! same bitmap, re-deriving the same row mappers, and re-evaluating the
//! measure per row. This module fuses them: **one scan** of the row set
//! feeds the accumulators of *all* facet specs at once, over
//! session-materialized inputs — a [`MeasureVector`] decoded once per
//! session and [`RowMapper`]s sharing the arrays of the session's
//! [`JoinIndex`](crate::JoinIndex). A single-attribute group-by is the
//! one-spec case of the same scan.
//!
//! Low-cardinality categorical attributes accumulate into **dense arrays
//! sized by dictionary cardinality** (`stats[code as usize]`, no hashing);
//! attributes above [`DENSE_GROUP_LIMIT`] fall back to the hash path.
//! Numerical buckets run the same loop: a scan's predecode turns the
//! attribute column into one bucket code per attribute-table row
//! ([`Bucketizer::bucket_of`], `NULL_CODE` for NULL or out-of-domain
//! values), so the per-fact-row work of every array-backed spec is one
//! `stats[code]` accumulation and `bucket_of` runs once per dimension row,
//! not once per fact row. The raw [`Accumulator`]s are kept per group, so
//! one scan answers every aggregation function afterwards (e.g. SUM for
//! the series *and* COUNT for bucket occupancy).
//!
//! The bitmap is cut into fixed [`AGG_CHUNK_WORDS`]-word chunks whose
//! partials merge in chunk order — in the serial arm too — so results
//! depend only on the data, never on the thread count. That chunk-then-
//! merge order is the engine's floating-point contract: the row-at-a-time
//! oracle in `tests/support/` reproduces it, and
//! `tests/facet_equivalence.rs` holds the scan to it bit for bit.

use std::cell::RefCell;
use std::collections::HashMap;

use kdap_warehouse::{ColRef, Measure, Warehouse};

use crate::aggregate::{Accumulator, AggFunc, Bucketizer, AGG_CHUNK_WORDS};
use crate::bitmap::RowSet;
use crate::error::QueryError;
use crate::exec::{chunk_ranges, par_map, ExecConfig};
use crate::kernel::{self, KernelTier, NULL_CODE};
use crate::semijoin::RowMapper;

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

/// One group-by requested from the fused scan.
///
/// Every variant that reads an attribute carries its own fact→target row
/// mapper (sharing the arrays of the session's
/// [`JoinIndex`](crate::JoinIndex)), so the scan itself touches no locks
/// and builds no joins.
#[derive(Debug, Clone)]
pub enum FacetSpec {
    /// Group by the dictionary code of a categorical attribute.
    Categorical {
        /// The group-by attribute.
        attr: ColRef,
        /// Fact row → attribute-table row.
        mapper: RowMapper,
    },
    /// Group a numerical attribute into basic intervals.
    Buckets {
        /// The group-by attribute.
        attr: ColRef,
        /// Fact row → attribute-table row.
        mapper: RowMapper,
        /// The interval partitioning.
        buckets: Bucketizer,
    },
    /// Min/max of a numerical attribute over the rows (the domain a
    /// [`Bucketizer`] needs, without materializing the projection).
    NumericDomain {
        /// The attribute whose domain is measured.
        attr: ColRef,
        /// Fact row → attribute-table row.
        mapper: RowMapper,
    },
    /// Total aggregate of the measure over the row set (no grouping).
    Total,
}

/// Accumulated state of one group: the measure accumulator plus a
/// presence count.
///
/// `rows` counts every row whose join reached a non-null attribute value
/// — independent of whether the measure was NULL — which is what domain
/// projection (`DOM(DS′, attr)`, §5.2) observes. `acc.count` only counts
/// rows that contributed a measure value, which is what the finished
/// group-by maps are keyed by. Both views come out of the same scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupStats {
    /// Measure accumulator over the group's non-null-measure rows.
    pub acc: Accumulator,
    /// Rows that reached the group, measure-null or not.
    pub rows: u64,
}

impl GroupStats {
    fn merge(&mut self, other: &GroupStats) {
        self.acc.merge(&other.acc);
        self.rows += other.rows;
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
    /// Empty groups for `spec`; `dense_size` (when set) replaces the column
    /// statistics as the dense-array size for categorical specs — the
    /// stale-statistics simulation hook used by the OOB-promotion tests.
    fn new_for_sized(
        spec: &FacetSpec,
        wh: &Warehouse,
        dense_limit: usize,
        dense_size: Option<usize>,
    ) -> Self {
        match spec {
            FacetSpec::Categorical { attr, .. } => {
                let card = match dense_size {
                    Some(n) => Some(n),
                    None => wh.column(*attr).cardinality(),
                };
                match card.filter(|&c| c <= dense_limit) {
                    Some(card) => FacetGroups::Dense {
                        stats: vec![GroupStats::default(); card],
                    },
                    None => FacetGroups::Sparse {
                        stats: HashMap::new(),
                    },
                }
            }
            FacetSpec::Buckets { buckets, .. } => FacetGroups::Buckets {
                stats: vec![GroupStats::default(); buckets.n_buckets()],
            },
            FacetSpec::NumericDomain { .. } => FacetGroups::Domain {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                any: false,
            },
            FacetSpec::Total => FacetGroups::Total {
                stats: GroupStats::default(),
            },
        }
    }

    /// Folds another partial of the same shape into this one. Callers
    /// merge per-chunk partials in chunk order, which keeps every
    /// group's accumulation order identical to the serial scan.
    ///
    /// Categorical partials may arrive in *mixed* shapes: a chunk that
    /// saw a dictionary code beyond the dense array (stale statistics)
    /// falls back to the hash path mid-scan, so one partial can be
    /// `Sparse` while its siblings stayed `Dense`. The merge promotes
    /// itself to `Sparse` in that case — code-keyed accumulation is
    /// shape-independent, so the result is unchanged.
    fn merge(&mut self, other: &FacetGroups) {
        if matches!(
            (&*self, other),
            (FacetGroups::Dense { .. }, FacetGroups::Sparse { .. })
        ) {
            promote_to_sparse(self);
        }
        match (self, other) {
            (FacetGroups::Dense { stats }, FacetGroups::Dense { stats: os }) => {
                for (m, p) in stats.iter_mut().zip(os) {
                    if p.rows > 0 {
                        m.merge(p);
                    }
                }
            }
            (FacetGroups::Sparse { stats }, FacetGroups::Sparse { stats: os }) => {
                for (code, p) in os {
                    stats.entry(*code).or_default().merge(p);
                }
            }
            (FacetGroups::Sparse { stats }, FacetGroups::Dense { stats: os }) => {
                for (code, p) in os.iter().enumerate() {
                    if p.rows > 0 {
                        stats.entry(code as u32).or_default().merge(p);
                    }
                }
            }
            (FacetGroups::Buckets { stats }, FacetGroups::Buckets { stats: os }) => {
                for (m, p) in stats.iter_mut().zip(os) {
                    m.merge(p);
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
                stats.merge(os);
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
            FacetGroups::Buckets { stats } => stats.iter().filter(|g| g.acc.count > 0).count(),
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
    /// measure value was NULL are absent).
    pub fn to_map(&self, func: AggFunc) -> HashMap<u32, f64> {
        match self {
            FacetGroups::Dense { stats } => stats
                .iter()
                .enumerate()
                .filter(|(_, g)| g.acc.count > 0)
                .map(|(code, g)| (code as u32, g.acc.finish(func)))
                .collect(),
            FacetGroups::Sparse { stats } => stats
                .iter()
                .filter(|(_, g)| g.acc.count > 0)
                .map(|(code, g)| (*code, g.acc.finish(func)))
                .collect(),
            _ => HashMap::new(),
        }
    }

    /// Finished per-bucket aggregates, one per basic interval (empty
    /// buckets finish as the aggregate of no rows).
    pub fn to_series(&self, func: AggFunc) -> Vec<f64> {
        match self {
            FacetGroups::Buckets { stats } => stats.iter().map(|g| g.acc.finish(func)).collect(),
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

    /// Finished total aggregate over the row set.
    pub fn total(&self, func: AggFunc) -> f64 {
        match self {
            FacetGroups::Total { stats } => stats.acc.finish(func),
            _ => f64::NAN,
        }
    }

    /// Heap bytes of the group state — what the memory budget charges.
    pub(crate) fn heap_bytes(&self) -> u64 {
        let unit = std::mem::size_of::<GroupStats>() as u64;
        match self {
            FacetGroups::Dense { stats } | FacetGroups::Buckets { stats } => {
                stats.len() as u64 * unit
            }
            // Hash maps grow with the data; charge the entries themselves
            // (bucket overhead is uncharged — see DESIGN.md).
            FacetGroups::Sparse { stats } => stats.len() as u64 * (unit + 4),
            FacetGroups::Domain { .. } | FacetGroups::Total { .. } => 0,
        }
    }
}

/// Converts a dense categorical partial to the hash representation,
/// carrying every touched group over. Used when a dictionary code walks
/// past the dense array (stale statistics) and by mixed-shape merges.
fn promote_to_sparse(g: &mut FacetGroups) {
    if let FacetGroups::Dense { stats } = g {
        let sparse: HashMap<u32, GroupStats> = stats
            .iter()
            .enumerate()
            .filter(|(_, s)| s.rows > 0)
            .map(|(code, s)| (code as u32, *s))
            .collect();
        *g = FacetGroups::Sparse { stats: sparse };
    }
}

/// One spec's attribute column, predecoded once per scan.
enum DecodedCol {
    /// Total spec, or a column the spec cannot decode (e.g. a categorical
    /// spec over a numeric column) — no row contributes.
    Missing,
    /// Group codes per attribute-table row, [`NULL_CODE`] where no group
    /// applies: dictionary codes for a categorical spec, bucket indices for
    /// a bucket spec (NULL and out-of-domain values are `NULL_CODE`).
    Codes(Vec<u32>),
    /// Float values per attribute-table row, NULL as NaN (domain specs).
    Floats(Vec<f64>),
}

thread_local! {
    /// Per-worker batch buffers: selected row indices and their gathered
    /// measure values for one chunk (≤ 8192 rows = 96 KiB), reused across
    /// chunks so the steady-state scan allocates nothing.
    static BATCH_SCRATCH: RefCell<(Vec<u32>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The array-backed accumulation loop every dense categorical and every
/// bucket spec runs: gathered row `k` adds into `stats[codes[t]]`, where
/// `t` is the attribute-table row it maps to, from row `start` on. Rows
/// that map nowhere or whose code is [`NULL_CODE`] are skipped. Returns
/// the first row whose code lies beyond `stats` (stale statistics),
/// leaving it and every later row untouched.
fn accumulate_codes(
    stats: &mut [GroupStats],
    codes: &[u32],
    mapper: &RowMapper,
    row_buf: &[u32],
    meas_buf: &[f64],
    start: usize,
) -> Option<usize> {
    for k in start..row_buf.len() {
        let Some(t) = mapper.get(row_buf[k] as usize) else {
            continue;
        };
        let code = codes[t as usize];
        if code == NULL_CODE {
            continue;
        }
        let Some(s) = stats.get_mut(code as usize) else {
            return Some(k);
        };
        s.rows += 1;
        let m = meas_buf[k];
        if !m.is_nan() {
            s.acc.add(m);
        }
    }
    None
}

/// Categorical accumulation over one chunk's gathered rows. The dense
/// loop runs bounds-checked: the first code beyond the dense array
/// (possible only with stale column statistics) bumps `oob`, promotes the
/// partial to the hash path and resumes sparsely from the same row.
fn batch_categorical(
    g: &mut FacetGroups,
    codes: &[u32],
    mapper: &RowMapper,
    row_buf: &[u32],
    meas_buf: &[f64],
    oob: &mut u64,
) {
    let len = row_buf.len();
    let mut k = 0;
    loop {
        match g {
            FacetGroups::Dense { stats } => {
                let Some(stopped) = accumulate_codes(stats, codes, mapper, row_buf, meas_buf, k)
                else {
                    return;
                };
                k = stopped;
                *oob += 1;
                promote_to_sparse(g);
                // Row k is re-handled by the sparse arm.
            }
            FacetGroups::Sparse { stats } => {
                while k < len {
                    let row = row_buf[k] as usize;
                    let m = meas_buf[k];
                    k += 1;
                    let Some(t) = mapper.get(row) else {
                        continue;
                    };
                    let code = codes[t as usize];
                    if code == NULL_CODE {
                        continue;
                    }
                    let s = stats.entry(code).or_default();
                    s.rows += 1;
                    if !m.is_nan() {
                        s.acc.add(m);
                    }
                }
                return;
            }
            _ => unreachable!("categorical groups are dense or sparse"),
        }
    }
}

/// Scans `rows` once, feeding every spec's accumulators.
///
/// Returns one [`FacetGroups`] per spec, in spec order. Categorical specs
/// whose dictionary cardinality is at most `dense_limit` use dense
/// arrays; larger ones fall back to hash maps. A dictionary code that
/// nonetheless walks past a dense array (stale statistics) promotes that
/// spec to the hash path mid-scan instead of indexing out of bounds.
/// The bitmap is cut into [`AGG_CHUNK_WORDS`]-word chunks (run serially
/// below two chunks) whose partials merge in chunk order, so output is
/// independent of the thread count.
///
/// Each chunk runs as a **batch**: the selected row indices are collected
/// into a reusable buffer, their measure values gathered in one pass
/// against predecoded attribute columns (bulk-unpacked through the
/// dispatched [`kernel::unpack_words`]), and the per-spec accumulation
/// runs as a tight loop per spec over those buffers. Every gathered row
/// is visited in ascending order and floating-point accumulation stays
/// strictly sequential per group, so every kernel tier produces the same
/// bits (`tests/simd_equivalence.rs`).
///
/// Governance (when `exec` carries a [`crate::QueryContext`]) is polled
/// per chunk, and every chunk's accumulator allocation is charged to the
/// memory budget; breaches return [`QueryError::Governed`]. A row set
/// over more rows than `mv` holds is a [`QueryError::UniverseMismatch`].
pub fn multi_group_by_exec(
    wh: &Warehouse,
    specs: &[FacetSpec],
    rows: &RowSet,
    mv: &MeasureVector,
    exec: &ExecConfig,
    dense_limit: usize,
) -> Result<Vec<FacetGroups>, QueryError> {
    multi_group_by_exec_sized(wh, specs, rows, mv, exec, dense_limit, None)
}

/// [`multi_group_by_exec`] with an explicit dense-array size override for
/// categorical specs, simulating stale column statistics (dense arrays
/// smaller than the live code range) so tests can drive the mid-scan
/// OOB promotion path deterministically. Not part of the stable API.
#[doc(hidden)]
pub fn multi_group_by_exec_sized(
    wh: &Warehouse,
    specs: &[FacetSpec],
    rows: &RowSet,
    mv: &MeasureVector,
    exec: &ExecConfig,
    dense_limit: usize,
    dense_size: Option<usize>,
) -> Result<Vec<FacetGroups>, QueryError> {
    exec.check("multi_group_by")?;
    // The scan indexes the measure vector by fact row.
    if rows.universe() > mv.len() {
        return Err(QueryError::UniverseMismatch {
            left: rows.universe(),
            right: mv.len(),
        });
    }
    // Predecode each spec's attribute column once per scan (codes with a
    // NULL sentinel, floats with NaN) so chunk workers only gather. A
    // bucket spec's values become bucket codes here, once per
    // attribute-table row rather than once per fact row.
    let mut decoded_bytes = 0u64;
    let decoded: Vec<DecodedCol> = specs
        .iter()
        .map(|s| match s {
            FacetSpec::Categorical { attr, .. } => {
                let mut codes = Vec::new();
                // Numeric columns have no codes: no row contributes.
                if wh.column(*attr).unpack_codes_into(&mut codes) {
                    decoded_bytes += codes.len() as u64 * 4;
                    DecodedCol::Codes(codes)
                } else {
                    DecodedCol::Missing
                }
            }
            FacetSpec::Buckets { attr, buckets, .. } => {
                let mut vals = Vec::new();
                if wh.column(*attr).unpack_floats_into(&mut vals) {
                    decoded_bytes += vals.len() as u64 * 4;
                    DecodedCol::Codes(
                        vals.iter()
                            .map(|&v| buckets.bucket_of(v).map_or(NULL_CODE, |b| b as u32))
                            .collect(),
                    )
                } else {
                    DecodedCol::Missing
                }
            }
            FacetSpec::NumericDomain { attr, .. } => {
                let mut vals = Vec::new();
                if wh.column(*attr).unpack_floats_into(&mut vals) {
                    decoded_bytes += vals.len() as u64 * 8;
                    DecodedCol::Floats(vals)
                } else {
                    DecodedCol::Missing
                }
            }
            FacetSpec::Total => DecodedCol::Missing,
        })
        .collect();
    exec.charge("multi_group_by", decoded_bytes)?;
    let accumulate = |range: std::ops::Range<usize>| {
        let mut groups: Vec<FacetGroups> = specs
            .iter()
            .map(|s| FacetGroups::new_for_sized(s, wh, dense_limit, dense_size))
            .collect();
        let mut oob = 0u64;
        BATCH_SCRATCH.with(|scratch| {
            let (row_buf, meas_buf) = &mut *scratch.borrow_mut();
            rows.collect_rows_in_word_range(range, row_buf);
            if row_buf.is_empty() {
                return;
            }
            // Bounds-checked gather; the entry check makes every index
            // valid, so the check never fires.
            let measures = mv.as_slice();
            meas_buf.clear();
            meas_buf.extend(row_buf.iter().map(|&r| measures[r as usize]));
            for (i, spec) in specs.iter().enumerate() {
                let g = &mut groups[i];
                match (spec, &decoded[i]) {
                    (FacetSpec::Categorical { mapper, .. }, DecodedCol::Codes(codes)) => {
                        batch_categorical(g, codes, mapper, row_buf, meas_buf, &mut oob);
                    }
                    (FacetSpec::Buckets { mapper, .. }, DecodedCol::Codes(codes)) => {
                        let FacetGroups::Buckets { stats } = g else {
                            unreachable!("groups[i] was built from specs[i]")
                        };
                        // `bucket_of` only returns indices below
                        // `n_buckets`, the length of `stats`.
                        let stopped = accumulate_codes(stats, codes, mapper, row_buf, meas_buf, 0);
                        assert_eq!(stopped, None, "bucket codes index their own array");
                    }
                    (FacetSpec::NumericDomain { mapper, .. }, DecodedCol::Floats(vals)) => {
                        let FacetGroups::Domain { min, max, any } = g else {
                            unreachable!("groups[i] was built from specs[i]")
                        };
                        for &row in row_buf.iter() {
                            let Some(t) = mapper.get(row as usize) else {
                                continue;
                            };
                            let v = vals[t as usize];
                            if v.is_finite() {
                                *min = min.min(v);
                                *max = max.max(v);
                                *any = true;
                            }
                        }
                    }
                    (FacetSpec::Total, _) => {
                        let FacetGroups::Total { stats } = g else {
                            unreachable!("groups[i] was built from specs[i]")
                        };
                        for &m in meas_buf.iter() {
                            stats.rows += 1;
                            if !m.is_nan() {
                                stats.acc.add(m);
                            }
                        }
                    }
                    (_, DecodedCol::Missing) => {}
                    _ => unreachable!("decoded[i] was built from specs[i]"),
                }
            }
        });
        (groups, oob)
    };
    let nwords = rows.n_words();
    let ranges = chunk_ranges(nwords, AGG_CHUNK_WORDS);
    let nchunks = ranges.len() as u64;
    // Fixed-size accumulator state of one chunk partial (dense arrays and
    // bucket slots), charged to the budget before the chunk scans.
    let partial_bytes: u64 = specs
        .iter()
        .map(|s| FacetGroups::new_for_sized(s, wh, dense_limit, dense_size).heap_bytes())
        .sum();
    // Each chunk polls governance, then measures its own wall time (a
    // no-op with obs off); the coordinator records them in chunk order.
    let timed = |idx: usize, range: std::ops::Range<usize>| {
        exec.check_at("multi_group_by", idx as u64, nchunks)?;
        exec.charge("multi_group_by", partial_bytes)?;
        let t = exec.obs.timer();
        let (groups, oob) = accumulate(range);
        Ok::<_, QueryError>((groups, oob, t.stop()))
    };
    // Both arms chunk identically and merge in chunk order, so the result
    // depends only on the data, never on the thread count.
    let partials: Vec<(Vec<FacetGroups>, u64, u64)> =
        if exec.is_serial() || nwords < 2 * AGG_CHUNK_WORDS {
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
    let mut merged: Vec<FacetGroups> = specs
        .iter()
        .map(|s| FacetGroups::new_for_sized(s, wh, dense_limit, dense_size))
        .collect();
    for (partial, _, _) in &partials {
        for (m, p) in merged.iter_mut().zip(partial) {
            m.merge(p);
        }
    }
    let oob_total: u64 = partials.iter().map(|(_, oob, _)| oob).sum();
    if exec.obs.is_enabled() {
        // One registry lookup for the whole chunk sweep, not one per
        // chunk.
        if let Some(h) = exec.obs.histogram_handle("query.agg_chunk_ns") {
            for (_, _, chunk_ns) in &partials {
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
        // Which kernel tier the unpack kernels dispatched to.
        exec.obs.inc(tier_metric_name(kernel::active_tier()), 1);
        if oob_total > 0 {
            exec.obs.inc("query.agg_dense_oob_fallback", oob_total);
        }
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
                wall_ns: partials.iter().map(|(_, _, ns)| ns).sum(),
                rows_in: Some(rows.len() as u64),
                rows_out: Some(merged.iter().map(|g| g.n_groups() as u64).sum()),
                cache: None,
                notes: vec![
                    ("specs".into(), specs.len().to_string()),
                    ("chunks".into(), partials.len().to_string()),
                    ("dense".into(), dense.to_string()),
                    ("hash".into(), hash.to_string()),
                    ("kernel".into(), kernel::active_tier().name().to_string()),
                ],
            },
        );
    }
    Ok(merged)
}

/// The per-tier dispatch counter name as a static string, so the hot
/// path never formats one.
fn tier_metric_name(tier: KernelTier) -> &'static str {
    match tier {
        KernelTier::Scalar => "query.kernel_tier.scalar",
        KernelTier::Avx2 => "query.kernel_tier.avx2",
    }
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

    /// Serial scan with the default dense cutoff.
    fn scan(
        wh: &Warehouse,
        specs: &[FacetSpec],
        rows: &RowSet,
        mv: &MeasureVector,
    ) -> Vec<FacetGroups> {
        multi_group_by_exec(
            wh,
            specs,
            rows,
            mv,
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
            mapper: mapper.clone(),
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
                mapper: mapper.clone(),
            },
            FacetSpec::Buckets {
                attr: sqft,
                mapper: mapper.clone(),
                buckets,
            },
            domain,
            FacetSpec::Total,
        ];
        let dict = wh.column(city).dict().unwrap();
        let columbus = dict.code_of("Columbus").unwrap();
        let seattle = dict.code_of("Seattle").unwrap();
        for dense_limit in [DENSE_GROUP_LIMIT, 0] {
            let groups =
                multi_group_by_exec(&wh, &specs, &all, &mv, &ExecConfig::serial(), dense_limit)
                    .unwrap();
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
            assert_eq!(groups[3].total(AggFunc::Min), 10.0);
            assert_eq!(groups[3].total(AggFunc::Max), 50.0);
        }
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
        let total = &scan(&wh, &[FacetSpec::Total], &none, &mv)[0];
        // SUM/COUNT over nothing are 0, per SQL.
        assert_eq!(total.total(AggFunc::Sum), 0.0);
        assert_eq!(total.total(AggFunc::Count), 0.0);
        // MIN/MAX/AVG over nothing are undefined — NaN, never a fake 0.0.
        assert!(total.total(AggFunc::Min).is_nan());
        assert!(total.total(AggFunc::Max).is_nan());
        assert!(total.total(AggFunc::Avg).is_nan());
    }

    #[test]
    fn null_measure_rows_count_for_presence_not_aggregates() {
        let (wh, idx, path, measure) = setup();
        let city = wh.col_ref("STORE", "City").unwrap();
        let mv = MeasureVector::build(&wh, &measure);
        let mapper = idx.row_mapper(&path);
        // Only the NULL-measure fact (row 4, Seattle).
        let only_null = RowSet::from_rows(wh.fact_rows(), [4]);
        let specs = vec![FacetSpec::Categorical { attr: city, mapper }];
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
                mapper: mapper.clone(),
            },
            FacetSpec::Total,
        ];
        let all = RowSet::full(wh.fact_rows());
        let serial = scan(&wh, &specs, &all, &mv);
        for threads in [2, 4] {
            let exec = ExecConfig::with_threads(threads);
            let par =
                multi_group_by_exec(&wh, &specs, &all, &mv, &exec, DENSE_GROUP_LIMIT).unwrap();
            assert_eq!(par[0].to_map(AggFunc::Sum), serial[0].to_map(AggFunc::Sum));
            assert_eq!(
                par[1].total(AggFunc::Sum).to_bits(),
                serial[1].total(AggFunc::Sum).to_bits()
            );
        }
    }

    /// Feeds `(code, measure)` pairs through [`batch_categorical`] as one
    /// chunk of rows `0..n` under the identity row mapper.
    fn feed(g: &mut FacetGroups, touches: &[(u32, Option<f64>)], oob: &mut u64) {
        let codes: Vec<u32> = touches.iter().map(|(c, _)| *c).collect();
        let meas: Vec<f64> = touches.iter().map(|(_, m)| m.unwrap_or(f64::NAN)).collect();
        let rows: Vec<u32> = (0..touches.len() as u32).collect();
        batch_categorical(g, &codes, &RowMapper::default(), &rows, &meas, oob);
    }

    #[test]
    fn out_of_range_code_promotes_to_sparse_instead_of_panicking() {
        // A dense partial sized for 2 codes sees code 7 — the stale-stats
        // scenario. It must fall back to the hash path, keeping every
        // previously accumulated group.
        let mut g = FacetGroups::Dense {
            stats: vec![GroupStats::default(); 2],
        };
        let mut oob = 0;
        feed(&mut g, &[(1, Some(10.0))], &mut oob);
        assert!(g.is_dense());
        feed(&mut g, &[(7, Some(5.0)), (1, None)], &mut oob);
        assert_eq!(oob, 1);
        assert!(!g.is_dense());
        let map = g.to_map(AggFunc::Sum);
        assert_eq!(map.get(&1), Some(&10.0));
        assert_eq!(map.get(&7), Some(&5.0));
        assert_eq!(g.domain(), vec![1, 7]);
        // Presence of the measure-null touch survived the promotion.
        let FacetGroups::Sparse { stats } = &g else {
            panic!("expected sparse")
        };
        assert_eq!(stats[&1].rows, 2);
    }

    #[test]
    fn mixed_shape_partials_merge_to_the_same_totals() {
        // Chunk 1 stayed dense, chunk 2 fell back to sparse: the merge
        // must promote and lose nothing, in either merge order.
        let mut oob = 0;
        let mut dense = FacetGroups::Dense {
            stats: vec![GroupStats::default(); 2],
        };
        feed(&mut dense, &[(0, Some(3.0))], &mut oob);
        let mut sparse = FacetGroups::Sparse {
            stats: HashMap::new(),
        };
        feed(&mut sparse, &[(0, Some(4.0)), (9, Some(1.0))], &mut oob);

        let mut a = dense.clone();
        a.merge(&sparse);
        let map = a.to_map(AggFunc::Sum);
        assert_eq!(map.get(&0), Some(&7.0));
        assert_eq!(map.get(&9), Some(&1.0));

        let mut b = sparse.clone();
        b.merge(&dense);
        assert_eq!(b.to_map(AggFunc::Sum), map);
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
        let specs = vec![FacetSpec::Categorical { attr: city, mapper }];
        let all = RowSet::full(wh.fact_rows());

        // Pre-cancelled token: the first chunk check aborts the scan.
        let cancel = Arc::new(AtomicBool::new(true));
        let ctx = Arc::new(QueryContext::new(None, None, cancel));
        let exec = ExecConfig::serial().with_govern(ctx);
        let err =
            multi_group_by_exec(&wh, &specs, &all, &mv, &exec, DENSE_GROUP_LIMIT).unwrap_err();
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
        let err =
            multi_group_by_exec(&wh, &specs, &all, &mv, &exec, DENSE_GROUP_LIMIT).unwrap_err();
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
        let groups = multi_group_by_exec(&wh, &specs, &all, &mv, &exec, DENSE_GROUP_LIMIT);
        assert!(groups.is_ok());
        assert!(ctx.charged() > 0, "allocations were charged");
    }
}
