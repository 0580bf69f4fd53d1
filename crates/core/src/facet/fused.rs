//! The explore pipeline: single-pass vectorized facet aggregation.
//!
//! Scoring one candidate attribute at a time would issue one group-by
//! scan per candidate per space, each re-scanning the subspace bitmap,
//! re-deriving the fact→dimension row mapper, and re-evaluating the
//! measure expression row by row. This module answers a whole exploration
//! with a handful of fused scans over session-materialized inputs:
//!
//! 1. **Scan A** over DS′: the total aggregate, every categorical
//!    candidate's group stats, and every numerical candidate's domain —
//!    one pass.
//! 2. **Scan B** over DS′ (only when numerical candidates exist): the
//!    per-basic-interval stats of every numerical candidate, using the
//!    bucketizers derived from scan A. The same stats answer both the
//!    aggregation series and the §5.2.1 occupancy filter.
//! 3. **One scan per roll-up space**: totals plus every candidate's group
//!    stats — shared by attribute scoring (Eq. 1) *and* instance ranking
//!    (Eq. 2).
//!
//! Every scan folds only what the request's aggregation function reads
//! (`cfg.agg`'s [`Fold`](kdap_query::Fold)).
//!
//! A row set that selects every fact is the whole dataspace DS — the
//! roll-up of a constraint with no parent level is ALL — and its group-bys
//! are the same for every query of the session under one fold. Every scan
//! therefore goes through one helper that, over DS, takes what
//! [`DataspaceGroups`] holds for its specs and scans only the rest
//! (nothing at all when the memo covers every spec). A bucket spec's
//! bucketizer comes from DS′'s domain, so the memo keeps one bucket
//! group-by per numerical candidate and fold, under the widest bucketizer
//! it has seen: the entry converges to the DS-wide split, the
//! bucketizer of every subspace whose domain spans the attribute's. Each
//! spec accumulates independently of the others in a scan, so a
//! memoized group is bit-equal to a fresh one.
//!
//! Candidate `(attr, path)` pairs are deduplicated into one spec each, and
//! the measure is decoded once into a [`MeasureVector`]. Each candidate's
//! attribute column is decoded once per session too: [`JoinedColumns`]
//! keeps it pre-joined to the path's first edge ([`JoinedColumn`]), one
//! entry per `(attr, path)`, built on first use and inserted whole. So a scan pays for its rows: it decodes no column and
//! joins no tail; a bucket spec maps its column's floats through its
//! bucketizer once per scan. The scoring math
//! ([`categorical_correlation`], [`numeric_worst_correlation`],
//! [`rank_instances_from`]) is shared with the one-scan-per-facet
//! reference in [`per_facet`](super::per_facet), which
//! `tests/facet_equivalence.rs` holds this pipeline to field for field.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

use kdap_obs::LeafData;
use kdap_query::{
    multi_group_by_exec, AggFunc, Bucketizer, ExecConfig, FacetGroups, FacetSpec, Fold, JoinIndex,
    JoinPath, JoinedColumn, MeasureVector, RowSet, DENSE_GROUP_LIMIT,
};
use kdap_warehouse::{AttrKind, ColRef, Warehouse};

use crate::error::KdapError;
use crate::facet::attr_rank::{
    assemble_ranked, categorical_correlation, collect_attr_tasks, numeric_worst_correlation,
    AttrTask, NumericSeries, RankedAttr,
};
use crate::facet::instance_rank::rank_instances_from;
use crate::facet::{
    numeric_entries, push_facet_attr, Exploration, FacetConfig, FacetEntry, FacetPanel,
};
use crate::interpret::StarNet;
use crate::plan::Planner;
use crate::rollup::try_rollup_spaces_planned;

/// What one memo entry aggregated over the whole dataspace, and under
/// which fold.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    Total(Fold),
    Categorical(ColRef, JoinPath, Fold),
    /// A numerical candidate: its domain and its bucket group-by.
    Numerical(ColRef, JoinPath, Fold),
}

/// The group-bys over DS of one [`GroupKey`].
#[derive(Debug, Default)]
struct Memoized {
    /// The total's or a categorical candidate's groups, or a numerical
    /// candidate's domain.
    groups: Option<Arc<FacetGroups>>,
    /// A numerical candidate's bucket group-by, under the widest
    /// bucketizer a scan over DS has asked for.
    buckets: Option<(Bucketizer, Arc<FacetGroups>)>,
}

impl Memoized {
    /// The memoized groups of `spec`, if held (a bucket spec's only under
    /// its own bucketizer).
    fn get(&self, spec: &FacetSpec) -> Option<Arc<FacetGroups>> {
        match spec {
            FacetSpec::Buckets { buckets, .. } => {
                let (held, groups) = self.buckets.as_ref()?;
                (held == buckets).then(|| Arc::clone(groups))
            }
            _ => self.groups.clone(),
        }
    }

    /// Keeps `groups`, just computed for `spec` over DS. A bucket
    /// group-by replaces the held one only when its bucketizer spans the
    /// held one's domain, so the entry widens toward the DS-wide split.
    fn put(&mut self, spec: &FacetSpec, groups: &Arc<FacetGroups>) {
        match spec {
            FacetSpec::Buckets { buckets, .. } => {
                let (lo, hi) = buckets.span();
                let widens = self.buckets.as_ref().is_none_or(|(held, _)| {
                    let (held_lo, held_hi) = held.span();
                    held != buckets && lo <= held_lo && held_hi <= hi
                });
                if widens {
                    self.buckets = Some((buckets.clone(), Arc::clone(groups)));
                }
            }
            _ => {
                self.groups.get_or_insert_with(|| Arc::clone(groups));
            }
        }
    }
}

/// The session's memo of group-bys over the whole dataspace DS: one entry
/// per `(attr, path)` candidate and fold plus the fold's total, so its
/// size is bounded by the schema, not by traffic. A group-by is inserted
/// whole, as soon as the scan that computed it returned.
#[derive(Debug, Default)]
pub struct DataspaceGroups {
    memo: Mutex<HashMap<GroupKey, Memoized>>,
}

impl DataspaceGroups {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<GroupKey, Memoized>> {
        // Entries are inserted whole, so a panic elsewhere cannot leave
        // one half-written.
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of memo entries.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

/// The session's attribute columns pre-joined to their paths' first edges
/// ([`JoinedColumn`]): one entry per `(attr, path)` candidate, so, like
/// [`DataspaceGroups`], its size is bounded by the schema, not by
/// traffic. A column is built on its first use and
/// inserted whole.
#[derive(Debug, Default)]
pub struct JoinedColumns {
    memo: Mutex<HashMap<(ColRef, JoinPath), Arc<JoinedColumn>>>,
}

impl JoinedColumns {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(ColRef, JoinPath), Arc<JoinedColumn>>> {
        // Entries are inserted whole, so a panic elsewhere cannot leave
        // one half-written.
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of memo entries.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// The column of every slot's `(attr, path)`, in slot order: held
    /// ones from the memo, the rest built. What was built is polled and
    /// charged as the scans' set-up (`multi_group_by`) before any of it
    /// is inserted, so a request cancelled or over budget there leaves no
    /// entry.
    fn get_all(
        &self,
        wh: &Warehouse,
        jidx: &JoinIndex,
        slots: &[(ColRef, JoinPath, AttrKind)],
        exec: &ExecConfig,
    ) -> Result<Vec<Arc<JoinedColumn>>, KdapError> {
        let held: Vec<Option<Arc<JoinedColumn>>> = {
            let memo = self.lock();
            slots
                .iter()
                .map(|(attr, path, _)| memo.get(&(*attr, path.clone())).cloned())
                .collect()
        };
        let mut built: Vec<((ColRef, JoinPath), Arc<JoinedColumn>)> = Vec::new();
        let mut out = Vec::with_capacity(slots.len());
        for (&(attr, ref path, _), held) in slots.iter().zip(held) {
            let column = match held {
                Some(column) => column,
                None => match built.iter().find(|((a, p), _)| *a == attr && p == path) {
                    Some((_, column)) => Arc::clone(column),
                    None => {
                        let column = JoinedColumn::new(wh, attr, &jidx.row_mapper(path));
                        let column = Arc::new(column);
                        built.push(((attr, path.clone()), Arc::clone(&column)));
                        column
                    }
                },
            };
            out.push(column);
        }
        if !built.is_empty() {
            exec.check("multi_group_by")?;
            exec.charge(
                "multi_group_by",
                built.iter().map(|(_, column)| column.heap_bytes()).sum(),
            )?;
            let mut memo = self.lock();
            for (key, column) in built {
                memo.entry(key).or_insert(column);
            }
        }
        Ok(out)
    }
}

/// The specs of one fused scan, each with its memo key.
#[derive(Default)]
struct ScanSpecs {
    specs: Vec<FacetSpec>,
    keys: Vec<GroupKey>,
}

impl ScanSpecs {
    /// Appends `spec`, returning its index in the scan's results.
    fn push(&mut self, spec: FacetSpec, key: GroupKey) -> usize {
        self.specs.push(spec);
        self.keys.push(key);
        self.specs.len() - 1
    }
}

/// Runs every fused scan of one explore under one fold: over the whole
/// dataspace it serves memoized specs from the session memo and inserts
/// what it computes.
struct Scanner<'a> {
    wh: &'a Warehouse,
    mv: &'a MeasureVector,
    fold: Fold,
    exec: &'a ExecConfig,
    memo: &'a DataspaceGroups,
}

impl Scanner<'_> {
    /// The groups of `scan.specs` over `rows`, in spec order, and how many
    /// of them came from the memo.
    fn scan(
        &self,
        scan: &ScanSpecs,
        rows: &RowSet,
    ) -> Result<(Vec<Arc<FacetGroups>>, usize), KdapError> {
        let n_facts = self.wh.fact_rows();
        if rows.universe() != n_facts || rows.len() != n_facts {
            let groups = self.run(&scan.specs, rows)?;
            return Ok((groups.into_iter().map(Arc::new).collect(), 0));
        }
        let mut out: Vec<Option<Arc<FacetGroups>>> = {
            let memo = self.memo.lock();
            scan.keys
                .iter()
                .zip(&scan.specs)
                .map(|(key, spec)| memo.get(key)?.get(spec))
                .collect()
        };
        let memo_specs = out.iter().filter(|g| g.is_some()).count();
        let missing: Vec<usize> = (0..out.len()).filter(|&i| out[i].is_none()).collect();
        if !missing.is_empty() {
            let specs: Vec<FacetSpec> = missing.iter().map(|&i| scan.specs[i].clone()).collect();
            let computed = self.run(&specs, rows)?;
            let mut memo = self.memo.lock();
            for (i, groups) in missing.into_iter().zip(computed) {
                let groups = Arc::new(groups);
                memo.entry(scan.keys[i].clone())
                    .or_default()
                    .put(&scan.specs[i], &groups);
                out[i] = Some(groups);
            }
        }
        Ok((out.into_iter().flatten().collect(), memo_specs))
    }

    fn run(&self, specs: &[FacetSpec], rows: &RowSet) -> Result<Vec<FacetGroups>, KdapError> {
        Ok(multi_group_by_exec(
            self.wh,
            specs,
            rows,
            self.mv,
            self.fold,
            self.exec,
            DENSE_GROUP_LIMIT,
        )?)
    }
}

/// The fused-scan results of one deduplicated `(attr, path)` candidate.
enum SlotData {
    Categorical {
        /// `DOM(DS′, attr)` — sorted codes present in the subspace.
        dom: Vec<u32>,
        /// DS′ group-by map under `cfg.agg`.
        x_map: HashMap<u32, f64>,
        /// Per-roll-up group-by maps, aligned with the roll-up order.
        y_maps: Vec<HashMap<u32, f64>>,
    },
    Numerical {
        /// `None` when the attribute has no finite value in DS′.
        series: Option<NumSlot>,
    },
}

struct NumSlot {
    buckets: Bucketizer,
    /// DS′ per-interval series under `cfg.agg`.
    x: Vec<f64>,
    /// DS′ per-interval COUNT series (§5.2.1 occupancy).
    occupancy: Vec<f64>,
    /// Per-roll-up per-interval series, aligned with the roll-up order.
    rup_ys: Vec<Vec<f64>>,
}

/// The explore phase over an already-materialized subspace: aggregates
/// `sub` and builds its dynamic facets. While a tree is recorded, each
/// deduplicated facet spec adds a zero-time `facet` leaf noting its
/// attribute, join path, kernel (`dense`, `hash` or `buckets`) and
/// group count in the subspace.
///
/// The roll-up spaces are materialized on `exec` under an
/// `explore.rollups` span, through `planner`'s semi-join cache, which
/// they share with the materialization of the subspace; scans fan out
/// over `exec`'s workers and poll its governance context.
/// Scans over the whole dataspace read `memo` and insert each group-by
/// they computed as soon as its scan returns. Every candidate reads its
/// column from `columns`, which builds and keeps the ones it lacks.
/// Results are identical for every thread count and memo state.
#[allow(clippy::too_many_arguments)]
pub fn explore_subspace(
    wh: &Warehouse,
    jidx: &JoinIndex,
    net: &StarNet,
    sub: &RowSet,
    mv: &MeasureVector,
    cfg: &FacetConfig,
    planner: &Planner,
    exec: &ExecConfig,
    memo: &DataspaceGroups,
    columns: &JoinedColumns,
) -> Result<Exploration, KdapError> {
    let schema = wh.schema();
    let obs = exec.obs.clone();
    let fold = cfg.agg.fold();
    let scanner = Scanner {
        wh,
        mv,
        fold,
        exec,
        memo,
    };
    let rups = {
        let _s = obs.span("explore.rollups");
        try_rollup_spaces_planned(wh, jidx, net, planner, exec)?
    };
    let n_rups = rups.len();

    // Hit codes per attribute (to pin hit instances).
    let mut hit_codes: HashMap<ColRef, HashSet<u32>> = HashMap::new();
    for c in &net.constraints {
        hit_codes
            .entry(c.group.attr)
            .or_default()
            .extend(c.group.codes());
    }

    let mut dims: Vec<&kdap_warehouse::Dimension> = schema.dimensions().iter().collect();
    dims.sort_by(|a, b| a.name.cmp(&b.name));
    let tasks: Vec<(usize, AttrTask)> = dims
        .iter()
        .enumerate()
        .flat_map(|(di, dim)| {
            collect_attr_tasks(wh, net, dim)
                .into_iter()
                .map(move |t| (di, t))
        })
        .collect();

    // Deduplicate tasks into one spec slot per (attr, path, kind): the
    // promoted copy of a hit attribute and its declared-candidate copy
    // aggregate identically, so they share one set of accumulators.
    let mut slot_of: HashMap<(ColRef, JoinPath, bool), usize> = HashMap::new();
    let mut slots: Vec<(ColRef, JoinPath, AttrKind)> = Vec::new();
    for (_, task) in &tasks {
        let key = (
            task.attr,
            task.path.clone(),
            task.kind == AttrKind::Numerical,
        );
        slot_of.entry(key).or_insert_with(|| {
            slots.push((task.attr, task.path.clone(), task.kind));
            slots.len() - 1
        });
    }
    let columns = columns.get_all(wh, jidx, &slots, exec)?;

    let categorical = |i: usize| {
        let (attr, path, _) = &slots[i];
        let spec = FacetSpec::Categorical {
            attr: *attr,
            column: Arc::clone(&columns[i]),
        };
        (spec, GroupKey::Categorical(*attr, path.clone(), fold))
    };
    let numerical_key = |i: usize| GroupKey::Numerical(slots[i].0, slots[i].1.clone(), fold);
    let buckets = |i: usize, bz: &Bucketizer| FacetSpec::Buckets {
        attr: slots[i].0,
        column: Arc::clone(&columns[i]),
        buckets: bz.clone(),
    };

    // Scan A over DS′: total + categorical groups + numerical domains.
    let mut specs_a = ScanSpecs::default();
    specs_a.push(FacetSpec::Total, GroupKey::Total(fold));
    let mut a_idx: Vec<usize> = Vec::with_capacity(slots.len());
    for (i, (attr, _, kind)) in slots.iter().enumerate() {
        let (spec, key) = match kind {
            AttrKind::Categorical => categorical(i),
            AttrKind::Numerical => (
                FacetSpec::NumericDomain {
                    attr: *attr,
                    column: Arc::clone(&columns[i]),
                },
                numerical_key(i),
            ),
        };
        a_idx.push(specs_a.push(spec, key));
    }
    let groups_a = {
        let s = obs.span("explore.scan_a");
        s.rows_in(sub.len() as u64);
        s.note("specs", specs_a.specs.len());
        let (groups, memo_specs) = scanner.scan(&specs_a, sub)?;
        s.note("memo_specs", memo_specs);
        groups
    };
    let total_aggregate = groups_a[0].total(cfg.agg);

    // Scan B over DS′: bucketized numerical groups, with bucketizers
    // derived from the scan-A domains.
    let mut specs_b = ScanSpecs::default();
    let mut b_idx: Vec<Option<usize>> = vec![None; slots.len()];
    let mut bucketizers: Vec<Option<Bucketizer>> = vec![None; slots.len()];
    for (i, (_, _, kind)) in slots.iter().enumerate() {
        if *kind == AttrKind::Numerical {
            if let Some(bz) = groups_a[a_idx[i]].bucketizer(cfg.n_basic_intervals) {
                b_idx[i] = Some(specs_b.push(buckets(i, &bz), numerical_key(i)));
                bucketizers[i] = Some(bz);
            }
        }
    }
    let groups_b = if specs_b.specs.is_empty() {
        Vec::new()
    } else {
        let s = obs.span("explore.scan_b");
        s.rows_in(sub.len() as u64);
        s.note("specs", specs_b.specs.len());
        let (groups, memo_specs) = scanner.scan(&specs_b, sub)?;
        s.note("memo_specs", memo_specs);
        groups
    };

    // One fused scan per roll-up space: total + every live candidate.
    // Empty-domain categoricals and domain-less numericals are skipped —
    // their tasks fail scoring regardless of the roll-up series.
    let mut specs_r = ScanSpecs::default();
    specs_r.push(FacetSpec::Total, GroupKey::Total(fold));
    let mut r_idx: Vec<Option<usize>> = vec![None; slots.len()];
    for (i, (_, _, kind)) in slots.iter().enumerate() {
        match kind {
            AttrKind::Categorical => {
                if groups_a[a_idx[i]].n_groups() > 0 {
                    let (spec, key) = categorical(i);
                    r_idx[i] = Some(specs_r.push(spec, key));
                }
            }
            AttrKind::Numerical => {
                if let Some(bz) = &bucketizers[i] {
                    r_idx[i] = Some(specs_r.push(buckets(i, bz), numerical_key(i)));
                }
            }
        }
    }
    let rup_results: Vec<Vec<Arc<FacetGroups>>> = {
        let s = obs.span("explore.rollup_scans");
        s.note("rollups", n_rups);
        let mut memo_specs = 0;
        let mut results = Vec::with_capacity(n_rups);
        for rup in &rups {
            let (groups, from_memo) = scanner.scan(&specs_r, rup)?;
            memo_specs += from_memo;
            results.push(groups);
        }
        s.note("memo_specs", memo_specs);
        results
    };
    let rup_totals: Vec<f64> = rup_results.iter().map(|g| g[0].total(cfg.agg)).collect();

    // Derive every slot's maps/series once; tasks and stage-2 ranking
    // both read them.
    let slot_data: Vec<SlotData> = slots
        .iter()
        .enumerate()
        .map(|(i, (_, _, kind))| match kind {
            AttrKind::Categorical => {
                let g = &groups_a[a_idx[i]];
                let y_maps = match r_idx[i] {
                    Some(ri) => rup_results.iter().map(|r| r[ri].to_map(cfg.agg)).collect(),
                    None => Vec::new(),
                };
                SlotData::Categorical {
                    dom: g.domain(),
                    x_map: g.to_map(cfg.agg),
                    y_maps,
                }
            }
            AttrKind::Numerical => SlotData::Numerical {
                series: b_idx[i].map(|bi| {
                    let g = &groups_b[bi];
                    // Infallible: b_idx[i] is Some only when a bucketizer
                    // was built, which also registered the roll-up spec.
                    #[allow(clippy::expect_used)]
                    let ri = r_idx[i].expect("bucketized slots scan every roll-up");
                    #[allow(clippy::expect_used)]
                    NumSlot {
                        buckets: bucketizers[i].clone().expect("bucketizer built"),
                        x: g.to_series(cfg.agg),
                        occupancy: g.to_series(AggFunc::Count),
                        rup_ys: rup_results
                            .iter()
                            .map(|r| r[ri].to_series(cfg.agg))
                            .collect(),
                    }
                }),
            },
        })
        .collect();

    // Stage 1: score every task from its slot's precomputed data.
    let score_span = obs.span("explore.score");
    let task_slots: Vec<usize> = tasks
        .iter()
        .map(|(_, t)| slot_of[&(t.attr, t.path.clone(), t.kind == AttrKind::Numerical)])
        .collect();
    let results: Vec<Option<RankedAttr>> = tasks
        .iter()
        .zip(&task_slots)
        .map(|((_, task), &si)| match &slot_data[si] {
            SlotData::Categorical { dom, x_map, y_maps } => {
                if dom.is_empty() {
                    return None;
                }
                categorical_correlation(dom, x_map, y_maps).map(|correlation| RankedAttr {
                    attr: task.attr,
                    kind: task.kind,
                    path: task.path.clone(),
                    correlation,
                    score: cfg.mode.attr_score(correlation),
                    promoted: task.promoted,
                    numeric: None,
                })
            }
            SlotData::Numerical { series: None } => None,
            SlotData::Numerical { series: Some(ns) } => {
                numeric_worst_correlation(&ns.x, &ns.occupancy, &ns.rup_ys).map(
                    |(correlation, rup_series)| RankedAttr {
                        attr: task.attr,
                        kind: task.kind,
                        path: task.path.clone(),
                        correlation,
                        score: cfg.mode.attr_score(correlation),
                        promoted: task.promoted,
                        numeric: Some(NumericSeries {
                            bucketizer: ns.buckets.clone(),
                            ds: ns.x.clone(),
                            rup: rup_series,
                        }),
                    },
                )
            }
        })
        .collect();

    // Reassemble the per-dimension rankings and select the top-k
    // attributes.
    let mut per_dim: Vec<(Vec<AttrTask>, Vec<Option<RankedAttr>>)> =
        (0..dims.len()).map(|_| (Vec::new(), Vec::new())).collect();
    for ((di, task), result) in tasks.iter().zip(results) {
        per_dim[*di].0.push(task.clone());
        per_dim[*di].1.push(result);
    }
    let mut selected: Vec<(usize, RankedAttr)> = Vec::new();
    for (di, (dim, (dim_tasks, dim_results))) in dims.iter().zip(per_dim).enumerate() {
        let ranked = assemble_ranked(dim, cfg, &dim_tasks, dim_results);
        for ra in ranked.into_iter().take(cfg.top_k_attrs) {
            selected.push((di, ra));
        }
    }
    score_span.rows_in(task_slots.len() as u64);
    score_span.rows_out(selected.len() as u64);
    drop(score_span);

    // Stage 2: entries of every selected attribute — pure math over the
    // scan results, no further scans.
    let entries_span = obs.span("explore.entries");
    let empty = HashSet::new();
    let mut panels: Vec<FacetPanel> = Vec::new();
    for (di, ra) in selected.iter() {
        let entries: Vec<FacetEntry> = match (&ra.kind, &ra.numeric) {
            (AttrKind::Categorical, _) => {
                let si = slot_of[&(ra.attr, ra.path.clone(), false)];
                let SlotData::Categorical { dom, x_map, y_maps } = &slot_data[si] else {
                    unreachable!("categorical tasks map to categorical slots")
                };
                let hits = hit_codes.get(&ra.attr).unwrap_or(&empty);
                let rup_data: Vec<(f64, &HashMap<u32, f64>)> =
                    rup_totals.iter().copied().zip(y_maps.iter()).collect();
                rank_instances_from(
                    wh,
                    ra.attr,
                    dom,
                    x_map,
                    total_aggregate,
                    &rup_data,
                    cfg,
                    hits,
                )
                .into_iter()
                .take(cfg.top_k_instances)
                .map(FacetEntry::from)
                .collect()
            }
            (AttrKind::Numerical, Some(series)) => numeric_entries(series, cfg),
            (AttrKind::Numerical, None) => Vec::new(),
        };
        push_facet_attr(&mut panels, wh, &dims[*di].name, ra, entries);
    }

    entries_span.rows_out(panels.iter().map(|p| p.attrs.len() as u64).sum());
    drop(entries_span);

    if obs.is_profiling() {
        let fact = schema.fact_table();
        for (i, (attr, path, kind)) in slots.iter().enumerate() {
            let (kernel, groups) = match (kind, b_idx[i]) {
                (AttrKind::Categorical, _) => {
                    let g = &groups_a[a_idx[i]];
                    (if g.is_dense() { "dense" } else { "hash" }, g.n_groups())
                }
                (AttrKind::Numerical, Some(bi)) => ("buckets", groups_b[bi].n_groups()),
                // No finite value in DS′: no bucket spec was scanned.
                (AttrKind::Numerical, None) => continue,
            };
            obs.leaf(
                "facet",
                LeafData {
                    notes: vec![
                        ("attr".into(), wh.col_name(*attr)),
                        ("path".into(), path.display(wh, fact)),
                        ("kernel".into(), kernel.into()),
                        ("groups".into(), groups.to_string()),
                    ],
                    ..LeafData::default()
                },
            );
        }
    }

    Ok(Exploration {
        subspace_size: sub.len(),
        total_aggregate,
        panels,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    use kdap_query::{paths_between, QueryContext, MAX_PATH_LEN};

    use super::*;
    use crate::testutil::ebiz_fixture;

    /// Every declared group-by candidate of the fixture, on its first
    /// path from the fact table, each slot twice.
    fn slots(wh: &Warehouse) -> Vec<(ColRef, JoinPath, AttrKind)> {
        let schema = wh.schema();
        let mut slots = Vec::new();
        for dim in schema.dimensions() {
            for g in &dim.groupby_candidates {
                let paths = paths_between(schema, schema.fact_table(), g.attr.table, MAX_PATH_LEN);
                let slot = (g.attr, paths[0].clone(), g.kind);
                slots.push(slot.clone());
                slots.push(slot);
            }
        }
        assert!(!slots.is_empty(), "the fixture declares candidates");
        slots
    }

    fn governed(ctx: QueryContext) -> ExecConfig {
        ExecConfig::serial().with_govern(Arc::new(ctx))
    }

    /// Columns are polled and charged before any is inserted: a cancel at
    /// their poll (the first of the call) or a budget they overrun leaves
    /// the memo empty, and a call that passes both inserts one column per
    /// distinct `(attr, path)`, shared by the slots that repeat it.
    #[test]
    fn columns_are_inserted_only_after_their_poll_and_charge() {
        let fx = ebiz_fixture();
        let slots = slots(&fx.wh);
        let limits = |budget| QueryContext::new(None, budget, Arc::new(AtomicBool::new(false)));

        let columns = JoinedColumns::default();
        let cancelled = governed(limits(None).cancel_at_poll(1));
        let err = columns.get_all(&fx.wh, &fx.jidx, &slots, &cancelled);
        assert!(matches!(
            err,
            Err(KdapError::Cancelled {
                stage: "multi_group_by"
            })
        ));
        assert_eq!(columns.len(), 0);
        let over_budget = governed(limits(Some(1)));
        let err = columns.get_all(&fx.wh, &fx.jidx, &slots, &over_budget);
        assert!(matches!(err, Err(KdapError::BudgetExceeded { .. })));
        assert_eq!(columns.len(), 0);

        let out = columns
            .get_all(&fx.wh, &fx.jidx, &slots, &ExecConfig::serial())
            .unwrap();
        assert_eq!(columns.len(), slots.len() / 2);
        for pair in out.chunks(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
        // Held columns are neither polled nor charged again.
        let strict = governed(limits(Some(1)).cancel_at_poll(1));
        let again = columns.get_all(&fx.wh, &fx.jidx, &slots, &strict).unwrap();
        assert!(out.iter().zip(&again).all(|(a, b)| Arc::ptr_eq(a, b)));
    }
}
