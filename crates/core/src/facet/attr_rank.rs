//! Group-by attribute ranking via roll-up partitioning (paper §5.2).
//!
//! Each candidate attribute partitions both DS′ and RUP(DS′); the two
//! aggregation series are compared by Pearson correlation (Eq. 1). Only
//! segments that exist in DS′ participate (`PAR(RUP(DS′), attr)` is
//! restricted to `DOM(DS′, attr)`). With several roll-up spaces the worst
//! (lowest) correlation is kept. Hit-group attributes of the dimension are
//! *promoted*: always shown, independent of their score (§5.2.1).

use std::collections::HashMap;

use kdap_query::{paths_between, Bucketizer, JoinPath};
use kdap_warehouse::{AttrKind, ColRef, Dimension, Warehouse};

use crate::facet::FacetConfig;
use crate::interest::{combine_correlations, pearson};
use crate::interpret::StarNet;

/// Basic-interval series of a numerical candidate, kept for the display
/// merge phase (Algorithm 2 runs on these without further DBMS access).
#[derive(Debug, Clone)]
pub struct NumericSeries {
    /// The basic-interval partitioning of the domain.
    pub bucketizer: Bucketizer,
    /// Aggregation per basic interval over DS′.
    pub ds: Vec<f64>,
    /// Aggregation per basic interval over the worst-correlated RUP space.
    pub rup: Vec<f64>,
}

/// One ranked group-by candidate.
#[derive(Debug, Clone)]
pub struct RankedAttr {
    /// The candidate attribute.
    pub attr: ColRef,
    /// Categorical or numerical.
    pub kind: AttrKind,
    /// The join path used to reach the attribute from the fact table.
    pub path: JoinPath,
    /// Combined (worst-case) correlation against the roll-up spaces.
    pub correlation: f64,
    /// Interestingness under the configured mode.
    pub score: f64,
    /// True for hit-group attributes, which are always selected.
    pub promoted: bool,
    /// Present for numerical candidates.
    pub numeric: Option<NumericSeries>,
}

/// Chooses the join path used to evaluate an attribute of `dim`.
///
/// Paths are restricted to those entering `dim` (so a Customer-dimension
/// attribute on the shared LOC table is not reached through the Store
/// join). When the star net already constrains this dimension, the path
/// sharing the longest prefix with that constraint is preferred — a
/// buyer-city constraint makes buyer-side facets, not seller-side ones.
pub fn path_for_attr(
    wh: &Warehouse,
    net: &StarNet,
    dim: &Dimension,
    attr_table: kdap_warehouse::TableId,
) -> Option<JoinPath> {
    let schema = wh.schema();
    let fact = schema.fact_table();
    let mut paths: Vec<JoinPath> =
        paths_between(schema, fact, attr_table, kdap_query::MAX_PATH_LEN)
            .into_iter()
            .filter(|p| p.dimension(schema) == Some(dim.id) || (p.is_empty() && attr_table == fact))
            .collect();
    if paths.is_empty() {
        return None;
    }
    let constraint_paths: Vec<&JoinPath> = net
        .constraints
        .iter()
        .filter(|c| c.path.dimension(schema) == Some(dim.id))
        .map(|c| &c.path)
        .collect();
    if !constraint_paths.is_empty() {
        paths.sort_by_key(|p| {
            let best_shared = constraint_paths
                .iter()
                .map(|cp| shared_prefix(p, cp))
                .max()
                .unwrap_or(0);
            (std::cmp::Reverse(best_shared), p.len())
        });
    } else {
        paths.sort_by_key(|p| p.len());
    }
    paths.into_iter().next()
}

fn shared_prefix(a: &JoinPath, b: &JoinPath) -> usize {
    a.edges()
        .iter()
        .zip(b.edges())
        .take_while(|(x, y)| x == y)
        .count()
}

/// One attribute-evaluation unit of work: a promoted (hit) attribute with
/// the constraint's own path, or a declared group-by candidate with its
/// chosen path. Tasks are collected up front so the explore phase can
/// deduplicate them into scan specs before scoring.
#[derive(Debug, Clone)]
pub(crate) struct AttrTask {
    pub attr: ColRef,
    pub kind: AttrKind,
    pub path: JoinPath,
    pub promoted: bool,
}

/// Collects the evaluation tasks of one dimension: promoted hit
/// attributes first (constraint paths), then declared candidates in
/// schema order (preferred paths). Duplicates are resolved at assembly.
pub(crate) fn collect_attr_tasks(wh: &Warehouse, net: &StarNet, dim: &Dimension) -> Vec<AttrTask> {
    let schema = wh.schema();
    let fact = schema.fact_table();
    let mut tasks = Vec::new();
    for c in &net.constraints {
        if c.path.dimension(schema) == Some(dim.id) {
            let kind = dim
                .groupby_candidates
                .iter()
                .find(|g| g.attr == c.group.attr)
                .map(|g| g.kind)
                .unwrap_or(AttrKind::Categorical);
            tasks.push(AttrTask {
                attr: c.group.attr,
                kind,
                path: c.path.clone(),
                promoted: true,
            });
        }
    }
    for cand in &dim.groupby_candidates {
        let Some(path) = path_for_attr(wh, net, dim, cand.attr.table) else {
            continue;
        };
        debug_assert_eq!(path.target_table(schema, fact), cand.attr.table);
        tasks.push(AttrTask {
            attr: cand.attr,
            kind: cand.kind,
            path,
            promoted: false,
        });
    }
    tasks
}

/// Assembles evaluated tasks into the final per-dimension ranking:
/// first successful evaluation per attribute wins (promoted tasks come
/// first in task order), then the configured ordering policy applies.
pub(crate) fn assemble_ranked(
    dim: &Dimension,
    cfg: &FacetConfig,
    tasks: &[AttrTask],
    results: Vec<Option<RankedAttr>>,
) -> Vec<RankedAttr> {
    let mut out: Vec<RankedAttr> = Vec::new();
    let mut covered: Vec<ColRef> = Vec::new();
    for (task, result) in tasks.iter().zip(results) {
        if covered.contains(&task.attr) {
            continue;
        }
        if let Some(r) = result {
            covered.push(task.attr);
            out.push(r);
        }
    }
    sort_ranked(dim, cfg, &mut out);
    out
}

/// Sorts a ranking in place: promoted first (they anchor navigation),
/// then by the configured ordering policy (§7: dynamic / consistent /
/// hybrid).
fn sort_ranked(dim: &Dimension, cfg: &FacetConfig, out: &mut [RankedAttr]) {
    let declared_pos = |attr: ColRef| -> usize {
        dim.groupby_candidates
            .iter()
            .position(|g| g.attr == attr)
            .unwrap_or(usize::MAX)
    };
    match cfg.order {
        crate::facet::FacetOrder::Dynamic => out.sort_by(|a, b| {
            b.promoted.cmp(&a.promoted).then(
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        }),
        crate::facet::FacetOrder::Consistent => out.sort_by(|a, b| {
            b.promoted
                .cmp(&a.promoted)
                .then(declared_pos(a.attr).cmp(&declared_pos(b.attr)))
        }),
        crate::facet::FacetOrder::Hybrid { pinned } => out.sort_by(|a, b| {
            let key = |r: &RankedAttr| {
                let pos = declared_pos(r.attr);
                // Pinned attributes stay in declaration order ahead of
                // the dynamic tail.
                (if pos < pinned { pos } else { pinned }, pos < pinned)
            };
            b.promoted.cmp(&a.promoted).then_with(|| {
                let (ka, pa) = key(a);
                let (kb, pb) = key(b);
                ka.cmp(&kb).then(pb.cmp(&pa)).then_with(|| {
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
            })
        }),
    }
}

/// The Eq. 1 correlation of one categorical attribute from precomputed
/// group-by maps: the DS′ and RUP series are built over `DOM(DS′, attr)`
/// only (segments absent from DS′ are not compared) and combined to the
/// worst case. Shared by the explore pipeline (which reads the maps out
/// of one fused scan) and the per-facet reference (one scan per map).
pub(crate) fn categorical_correlation(
    dom: &[u32],
    x_map: &HashMap<u32, f64>,
    y_maps: &[HashMap<u32, f64>],
) -> Option<f64> {
    let x: Vec<f64> = dom.iter().map(|c| *x_map.get(c).unwrap_or(&0.0)).collect();
    let corrs = y_maps.iter().map(|y_map| {
        // Restrict to DOM(DS′, attr) — segments absent from DS′ are not
        // compared.
        let y: Vec<f64> = dom.iter().map(|c| *y_map.get(c).unwrap_or(&0.0)).collect();
        pearson(&x, &y)
    });
    combine_correlations(corrs)
}

/// The worst (lowest) correlation of one bucketized numerical attribute
/// from precomputed per-interval series, restricted to intervals occupied
/// in DS′ (§5.2.1). Returns the correlation together with the full series
/// of the worst roll-up space (the display merge needs it).
pub(crate) fn numeric_worst_correlation(
    x: &[f64],
    occupancy: &[f64],
    rup_ys: &[Vec<f64>],
) -> Option<(f64, Vec<f64>)> {
    // §5.2.1: correlate only over basic intervals that exist in DS′
    // (occupied by at least one subspace fact).
    let occupied: Vec<usize> = occupancy
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0.0)
        .map(|(i, _)| i)
        .collect();
    let xs: Vec<f64> = occupied.iter().map(|&i| x[i]).collect();
    let mut worst: Option<(f64, &Vec<f64>)> = None;
    for y in rup_ys {
        let ys: Vec<f64> = occupied.iter().map(|&i| y[i]).collect();
        let corr = pearson(&xs, &ys);
        if worst.as_ref().is_none_or(|(w, _)| corr < *w) {
            worst = Some((corr, y));
        }
    }
    worst.map(|(corr, y)| (corr, y.clone()))
}
