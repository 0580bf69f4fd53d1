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
//! A row set that selects every fact is the whole dataspace DS — the
//! roll-up of a constraint with no parent level is ALL — and its group-bys
//! are the same for every query of the session. Every scan therefore goes
//! through one helper that, over DS, takes the total, categorical and
//! numeric-domain specs from [`DataspaceGroups`] and scans only the rest
//! (nothing at all when the memo covers every spec). Bucket specs are
//! never memoized: their bucketizer comes from DS′'s domain. Each spec
//! accumulates independently of the others in a scan, so a memoized group
//! is bit-equal to a fresh one.
//!
//! Candidate `(attr, path)` pairs are deduplicated into one spec each, the
//! measure is decoded once into a [`MeasureVector`], and row mappers
//! share the arrays of the session's `JoinIndex`. The scoring math
//! ([`categorical_correlation`], [`numeric_worst_correlation`],
//! [`rank_instances_from`]) is shared with the one-scan-per-facet
//! reference in [`per_facet`](super::per_facet), which
//! `tests/facet_equivalence.rs` holds this pipeline to field for field.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

use kdap_query::{
    multi_group_by_exec, AggFunc, Bucketizer, ExecConfig, FacetGroups, FacetSpec, JoinIndex,
    JoinPath, MeasureVector, RowMapper, RowSet, DENSE_GROUP_LIMIT,
};
use kdap_warehouse::{AttrKind, ColRef, Warehouse};

use crate::error::KdapError;
use crate::explain::{ExploreReport, FacetScanChoice};
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
use crate::subspace::Subspace;

/// What one memoized whole-dataspace group-by aggregated.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    Total,
    Categorical(ColRef, JoinPath),
    NumericDomain(ColRef, JoinPath),
}

/// The session's memo of group-bys over the whole dataspace DS: at most
/// one entry per `(attr, path)` candidate plus the total, so its size is
/// bounded by the schema, not by traffic. A group-by is inserted whole,
/// as soon as the scan that computed it returned.
#[derive(Debug, Default)]
pub struct DataspaceGroups {
    memo: Mutex<HashMap<GroupKey, Arc<FacetGroups>>>,
}

impl DataspaceGroups {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<GroupKey, Arc<FacetGroups>>> {
        // Entries are inserted whole, so a panic elsewhere cannot leave
        // one half-written.
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of memoized group-bys.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

/// The specs of one fused scan, each with its memo key (`None` for a
/// bucket spec, which is never memoized).
#[derive(Default)]
struct ScanSpecs {
    specs: Vec<FacetSpec>,
    keys: Vec<Option<GroupKey>>,
}

impl ScanSpecs {
    /// Appends `spec`, returning its index in the scan's results.
    fn push(&mut self, spec: FacetSpec, key: Option<GroupKey>) -> usize {
        self.specs.push(spec);
        self.keys.push(key);
        self.specs.len() - 1
    }
}

/// Runs every fused scan of one explore: over the whole dataspace it
/// serves memoized specs from the session memo and inserts what it
/// computes.
struct Scanner<'a> {
    wh: &'a Warehouse,
    mv: &'a MeasureVector,
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
                .map(|key| memo.get(key.as_ref()?).cloned())
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
                if let Some(key) = &scan.keys[i] {
                    memo.entry(key.clone())
                        .or_insert_with(|| Arc::clone(&groups));
                }
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
        dense: bool,
        groups: usize,
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
    groups: usize,
}

/// The explore phase over an already-materialized subspace: aggregates
/// `sub`, builds its dynamic facets, and reports the scan accounting.
///
/// The roll-up spaces are compiled and executed through `planner`,
/// sharing its semi-join cache with the plan that materialized the
/// subspace; scans fan out over `exec`'s workers and poll its governance
/// context. Scans over the whole dataspace read `memo` and insert each
/// group-by they computed as soon as its scan returns. Results are
/// identical for every thread count and memo state.
#[allow(clippy::too_many_arguments)]
pub fn explore_subspace(
    wh: &Warehouse,
    jidx: &JoinIndex,
    net: &StarNet,
    sub: &Subspace,
    mv: &MeasureVector,
    cfg: &FacetConfig,
    planner: &Planner,
    exec: &ExecConfig,
    memo: &DataspaceGroups,
) -> Result<(Exploration, ExploreReport), KdapError> {
    let schema = wh.schema();
    let obs = exec.obs.clone();
    let scanner = Scanner { wh, mv, exec, memo };
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
    let mappers: Vec<RowMapper> = slots
        .iter()
        .map(|(_, path, _)| jidx.row_mapper(path))
        .collect();

    let categorical = |i: usize| {
        let (attr, path, _) = &slots[i];
        let spec = FacetSpec::Categorical {
            attr: *attr,
            mapper: mappers[i].clone(),
        };
        (spec, Some(GroupKey::Categorical(*attr, path.clone())))
    };
    let buckets = |i: usize, bz: &Bucketizer| FacetSpec::Buckets {
        attr: slots[i].0,
        mapper: mappers[i].clone(),
        buckets: bz.clone(),
    };

    // Scan A over DS′: total + categorical groups + numerical domains.
    let mut specs_a = ScanSpecs::default();
    specs_a.push(FacetSpec::Total, Some(GroupKey::Total));
    let mut a_idx: Vec<usize> = Vec::with_capacity(slots.len());
    for (i, (attr, path, kind)) in slots.iter().enumerate() {
        let (spec, key) = match kind {
            AttrKind::Categorical => categorical(i),
            AttrKind::Numerical => (
                FacetSpec::NumericDomain {
                    attr: *attr,
                    mapper: mappers[i].clone(),
                },
                Some(GroupKey::NumericDomain(*attr, path.clone())),
            ),
        };
        a_idx.push(specs_a.push(spec, key));
    }
    let groups_a = {
        let s = obs.span("explore.scan_a");
        s.rows_in(sub.len() as u64);
        s.note("specs", specs_a.specs.len());
        let (groups, memo_specs) = scanner.scan(&specs_a, &sub.rows)?;
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
                b_idx[i] = Some(specs_b.push(buckets(i, &bz), None));
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
        let (groups, memo_specs) = scanner.scan(&specs_b, &sub.rows)?;
        s.note("memo_specs", memo_specs);
        groups
    };

    // One fused scan per roll-up space: total + every live candidate.
    // Empty-domain categoricals and domain-less numericals are skipped —
    // their tasks fail scoring regardless of the roll-up series.
    let mut specs_r = ScanSpecs::default();
    specs_r.push(FacetSpec::Total, Some(GroupKey::Total));
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
                    r_idx[i] = Some(specs_r.push(buckets(i, bz), None));
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
            let (groups, from_memo) = scanner.scan(&specs_r, &rup.rows)?;
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
                    dense: g.is_dense(),
                    groups: g.n_groups(),
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
                        groups: g.n_groups(),
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
            SlotData::Categorical {
                dom, x_map, y_maps, ..
            } => {
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
                let SlotData::Categorical {
                    dom, x_map, y_maps, ..
                } = &slot_data[si]
                else {
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

    let report = build_report(
        wh,
        &slots,
        &slot_data,
        &task_slots,
        &selected,
        n_rups,
        !specs_b.specs.is_empty(),
    );

    Ok((
        Exploration {
            subspace_size: sub.len(),
            total_aggregate,
            panels,
        },
        report,
    ))
}

/// Scan accounting: what the fused pipeline did versus what one scan per
/// facet per space would have cost for the same exploration.
fn build_report(
    wh: &Warehouse,
    slots: &[(ColRef, JoinPath, AttrKind)],
    slot_data: &[SlotData],
    task_slots: &[usize],
    selected: &[(usize, RankedAttr)],
    n_rups: usize,
    scanned_buckets: bool,
) -> ExploreReport {
    // Per-facet cost, task by task (the old pipeline evaluated every
    // task, duplicates included): a categorical candidate paid a domain
    // projection, a subspace group-by, and one group-by per roll-up —
    // unless its domain was empty, where it stopped after the projection.
    // A numerical candidate paid a projection, two subspace bucket
    // group-bys (series + occupancy) and one per roll-up — or just the
    // projection when the domain was empty. Each selected categorical
    // attribute then paid a fresh projection, subspace total + group-by,
    // and a total + group-by per roll-up in stage 2.
    let mut scans_old = 1; // the subspace total aggregate
    for &si in task_slots {
        scans_old += match &slot_data[si] {
            SlotData::Categorical { dom, .. } if dom.is_empty() => 1,
            SlotData::Categorical { .. } => 2 + n_rups,
            SlotData::Numerical { series: None } => 1,
            SlotData::Numerical { series: Some(_) } => 3 + n_rups,
        };
    }
    for (_, ra) in selected {
        if ra.kind == AttrKind::Categorical {
            scans_old += 3 + 2 * n_rups;
        }
    }
    let scans_fused = 1 + usize::from(scanned_buckets) + n_rups;

    let facets = slots
        .iter()
        .zip(slot_data)
        .filter_map(|((attr, _, _), data)| match data {
            SlotData::Categorical { dense, groups, .. } => Some(FacetScanChoice {
                attr: wh.col_name(*attr),
                kernel: if *dense { "dense" } else { "hash" },
                groups: *groups,
            }),
            SlotData::Numerical { series: Some(ns) } => Some(FacetScanChoice {
                attr: wh.col_name(*attr),
                kernel: "buckets",
                groups: ns.groups,
            }),
            SlotData::Numerical { series: None } => None,
        })
        .collect();

    ExploreReport {
        rollups: n_rups,
        candidates: task_slots.len(),
        scans_fused,
        scans_old,
        facets,
        subspace_cache: None,
        semijoin_cache: None,
    }
}
