//! The per-facet explore pipeline: one single-spec scan per candidate
//! attribute per space — the shape the explore phase had before its scans
//! were fused. Nothing in the engine calls it; it is kept, hidden from
//! the docs, as the whole-exploration reference `tests/facet_equivalence.rs`
//! holds [`explore_subspace`](super::explore_subspace) to field for field.
//! (It lives here rather than under `tests/` because it shares the
//! crate-private scoring helpers with the production pipeline.)
//!
//! It runs serially and ungoverned without a semi-join cache, and shares
//! only the scan kernel, task collection and the pure scoring math with
//! production — none of the spec deduplication or scan sharing it is
//! there to check.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use kdap_query::{
    multi_group_by_exec, AggFunc, ExecConfig, FacetGroups, FacetSpec, JoinIndex, JoinPath,
    JoinedColumn, MeasureVector, RowSet, DENSE_GROUP_LIMIT,
};
use kdap_warehouse::{AttrKind, ColRef, Dimension, Warehouse};

use crate::facet::attr_rank::{
    assemble_ranked, categorical_correlation, collect_attr_tasks, numeric_worst_correlation,
    AttrTask, NumericSeries, RankedAttr,
};
use crate::facet::instance_rank::{rank_instances_from, RankedInstance};
use crate::facet::{numeric_entries, push_facet_attr, Exploration, FacetConfig, FacetEntry};
use crate::interpret::StarNet;
use crate::rollup::rollup_spaces;

/// One single-spec scan of `rows` under `cfg.agg`'s fold — the
/// per-facet pipeline's unit of work.
fn scan(
    wh: &Warehouse,
    spec: FacetSpec,
    rows: &RowSet,
    mv: &MeasureVector,
    cfg: &FacetConfig,
) -> FacetGroups {
    // Infallible: a serial ungoverned config cannot breach any limit, and
    // one spec in yields one group set out.
    #[allow(clippy::expect_used)]
    multi_group_by_exec(
        wh,
        &[spec],
        rows,
        mv,
        cfg.agg.fold(),
        &ExecConfig::serial(),
        DENSE_GROUP_LIMIT,
    )
    .expect("ungoverned scan")
    .pop()
    .expect("one spec, one result")
}

/// Explores `sub` facet by facet.
pub fn explore_per_facet(
    wh: &Warehouse,
    jidx: &JoinIndex,
    net: &StarNet,
    sub: &RowSet,
    mv: &MeasureVector,
    cfg: &FacetConfig,
) -> Exploration {
    let schema = wh.schema();
    let rups = rollup_spaces(wh, jidx, net);
    let total_aggregate = scan(wh, FacetSpec::Total, sub, mv, cfg).total(cfg.agg);

    // Hit codes per attribute (to pin hit instances).
    let mut hit_codes: HashMap<ColRef, HashSet<u32>> = HashMap::new();
    for c in &net.constraints {
        hit_codes
            .entry(c.group.attr)
            .or_default()
            .extend(c.group.codes());
    }

    let mut dims: Vec<&Dimension> = schema.dimensions().iter().collect();
    dims.sort_by(|a, b| a.name.cmp(&b.name));

    let mut panels = Vec::new();
    let empty = HashSet::new();
    for dim in dims {
        let ranked = rank_dimension_attrs(wh, jidx, net, sub, &rups, dim, mv, cfg);
        for ra in ranked.into_iter().take(cfg.top_k_attrs) {
            let entries = match (&ra.kind, &ra.numeric) {
                (AttrKind::Categorical, _) => {
                    let hits = hit_codes.get(&ra.attr).unwrap_or(&empty);
                    rank_instances(wh, jidx, sub, &rups, &ra.path, ra.attr, mv, cfg, hits)
                        .into_iter()
                        .take(cfg.top_k_instances)
                        .map(FacetEntry::from)
                        .collect()
                }
                (AttrKind::Numerical, Some(series)) => numeric_entries(series, cfg),
                (AttrKind::Numerical, None) => Vec::new(),
            };
            push_facet_attr(&mut panels, wh, &dim.name, &ra, entries);
        }
    }

    Exploration {
        subspace_size: sub.len(),
        total_aggregate,
        panels,
    }
}

/// Ranks the group-by candidates of one dimension against the roll-up
/// spaces. Promoted (hit) attributes come first; the rest are ordered by
/// descending interestingness.
#[allow(clippy::too_many_arguments)]
pub fn rank_dimension_attrs(
    wh: &Warehouse,
    jidx: &JoinIndex,
    net: &StarNet,
    sub: &RowSet,
    rups: &[RowSet],
    dim: &Dimension,
    mv: &MeasureVector,
    cfg: &FacetConfig,
) -> Vec<RankedAttr> {
    let tasks = collect_attr_tasks(wh, net, dim);
    let results: Vec<Option<RankedAttr>> = tasks
        .iter()
        .map(|t| evaluate_attr_task(wh, jidx, sub, rups, mv, cfg, t))
        .collect();
    assemble_ranked(dim, cfg, &tasks, results)
}

/// Scores one task against the roll-up spaces.
fn evaluate_attr_task(
    wh: &Warehouse,
    jidx: &JoinIndex,
    sub: &RowSet,
    rups: &[RowSet],
    mv: &MeasureVector,
    cfg: &FacetConfig,
    task: &AttrTask,
) -> Option<RankedAttr> {
    let scored = match task.kind {
        AttrKind::Categorical => {
            score_categorical(wh, jidx, sub, rups, &task.path, task.attr, mv, cfg)
                .map(|corr| (corr, None))
        }
        AttrKind::Numerical => score_numerical(wh, jidx, sub, rups, &task.path, task.attr, mv, cfg)
            .map(|(corr, series)| (corr, Some(series))),
    };
    scored.map(|(correlation, numeric)| RankedAttr {
        attr: task.attr,
        kind: task.kind,
        path: task.path.clone(),
        correlation,
        score: cfg.mode.attr_score(correlation),
        promoted: task.promoted,
        numeric,
    })
}

#[allow(clippy::too_many_arguments)]
fn score_categorical(
    wh: &Warehouse,
    jidx: &JoinIndex,
    sub: &RowSet,
    rups: &[RowSet],
    path: &JoinPath,
    attr: ColRef,
    mv: &MeasureVector,
    cfg: &FacetConfig,
) -> Option<f64> {
    let column = JoinedColumn::new(wh, attr, &jidx.row_mapper(path)).into();
    let spec = FacetSpec::Categorical { attr, column };
    let ds = scan(wh, spec.clone(), sub, mv, cfg);
    let dom = ds.domain();
    if dom.is_empty() {
        return None;
    }
    let y_maps: Vec<HashMap<u32, f64>> = rups
        .iter()
        .map(|rup| scan(wh, spec.clone(), rup, mv, cfg).to_map(cfg.agg))
        .collect();
    categorical_correlation(&dom, &ds.to_map(cfg.agg), &y_maps)
}

#[allow(clippy::too_many_arguments)]
fn score_numerical(
    wh: &Warehouse,
    jidx: &JoinIndex,
    sub: &RowSet,
    rups: &[RowSet],
    path: &JoinPath,
    attr: ColRef,
    mv: &MeasureVector,
    cfg: &FacetConfig,
) -> Option<(f64, NumericSeries)> {
    let column: Arc<JoinedColumn> = JoinedColumn::new(wh, attr, &jidx.row_mapper(path)).into();
    let domain = FacetSpec::NumericDomain {
        attr,
        column: Arc::clone(&column),
    };
    let bucketizer = scan(wh, domain, sub, mv, cfg).bucketizer(cfg.n_basic_intervals)?;
    let spec = FacetSpec::Buckets {
        attr,
        column,
        buckets: bucketizer.clone(),
    };
    let ds = scan(wh, spec.clone(), sub, mv, cfg);
    let x = ds.to_series(cfg.agg);
    let occupancy = ds.to_series(AggFunc::Count);
    let rup_ys: Vec<Vec<f64>> = rups
        .iter()
        .map(|rup| scan(wh, spec.clone(), rup, mv, cfg).to_series(cfg.agg))
        .collect();
    let (corr, rup_series) = numeric_worst_correlation(&x, &occupancy, &rup_ys)?;
    Some((
        corr,
        NumericSeries {
            bucketizer,
            ds: x,
            rup: rup_series,
        },
    ))
}

/// Ranks the instances of one categorical attribute.
#[allow(clippy::too_many_arguments)]
pub fn rank_instances(
    wh: &Warehouse,
    jidx: &JoinIndex,
    sub: &RowSet,
    rups: &[RowSet],
    path: &JoinPath,
    attr: ColRef,
    mv: &MeasureVector,
    cfg: &FacetConfig,
    hit_codes: &HashSet<u32>,
) -> Vec<RankedInstance> {
    let column = JoinedColumn::new(wh, attr, &jidx.row_mapper(path)).into();
    let spec = FacetSpec::Categorical { attr, column };
    let ds = scan(wh, spec.clone(), sub, mv, cfg);
    let g_ds = scan(wh, FacetSpec::Total, sub, mv, cfg).total(cfg.agg);

    // Per roll-up space: total and per-category aggregates.
    let rup_data: Vec<(f64, HashMap<u32, f64>)> = rups
        .iter()
        .map(|rup| {
            (
                scan(wh, FacetSpec::Total, rup, mv, cfg).total(cfg.agg),
                scan(wh, spec.clone(), rup, mv, cfg).to_map(cfg.agg),
            )
        })
        .collect();
    let rup_refs: Vec<(f64, &HashMap<u32, f64>)> = rup_data.iter().map(|(g, m)| (*g, m)).collect();
    rank_instances_from(
        wh,
        attr,
        &ds.domain(),
        &ds.to_map(cfg.agg),
        g_ds,
        &rup_refs,
        cfg,
        hit_codes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interest::InterestMode;
    use crate::interpret::{generate_star_nets, GenConfig};
    use crate::subspace::materialize;
    use crate::testutil::{ebiz_fixture, Fixture};

    fn setup(fx: &Fixture) -> (StarNet, RowSet, Vec<RowSet>) {
        let net = generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default())
            .into_iter()
            .find(|n| n.display(&fx.wh).contains("STORE → LOC"))
            .unwrap();
        let sub = materialize(&fx.wh, &fx.jidx, &net);
        let rups = rollup_spaces(&fx.wh, &fx.jidx, &net);
        (net, sub, rups)
    }

    fn revenue(fx: &Fixture) -> MeasureVector {
        let measure = fx.wh.schema().measure_by_name("Revenue").unwrap();
        MeasureVector::build(&fx.wh, measure)
    }

    fn rank(fx: &Fixture, mode: InterestMode, hit_codes: &HashSet<u32>) -> Vec<RankedInstance> {
        let (_, sub, rups) = setup(fx);
        let attr = fx.wh.col_ref("PGROUP", "GroupName").unwrap();
        let fact = fx.wh.schema().fact_table();
        let path = kdap_query::paths_between(fx.wh.schema(), fact, attr.table, 8).remove(0);
        let cfg = FacetConfig {
            mode,
            ..FacetConfig::default()
        };
        rank_instances(
            &fx.wh,
            &fx.jidx,
            &sub,
            &rups,
            &path,
            attr,
            &revenue(fx),
            &cfg,
            hit_codes,
        )
    }

    #[test]
    fn shares_sum_to_one_over_the_domain() {
        let fx = ebiz_fixture();
        let ranked = rank(&fx, InterestMode::Surprise, &HashSet::new());
        assert!(!ranked.is_empty());
        let total_share: f64 = ranked.iter().map(|r| r.share).sum();
        assert!((total_share - 1.0).abs() < 1e-9, "got {total_share}");
    }

    #[test]
    fn eq2_deviation_is_share_minus_rollup_share() {
        let fx = ebiz_fixture();
        // The Columbus-store net rolls up city→state (Ohio), which in the
        // fixture is the same subspace — every deviation is exactly 0.
        let ranked = rank(&fx, InterestMode::Surprise, &HashSet::new());
        for r in &ranked {
            assert!(r.deviation.abs() < 1e-12, "{}: {}", r.label, r.deviation);
        }
    }

    #[test]
    fn hit_instances_are_pinned_first() {
        let fx = ebiz_fixture();
        let attr = fx.wh.col_ref("PGROUP", "GroupName").unwrap();
        let plasma = fx
            .wh
            .column(attr)
            .dict()
            .unwrap()
            .code_of("Plasma Displays")
            .unwrap();
        let hits: HashSet<u32> = [plasma].into_iter().collect();
        let ranked = rank(&fx, InterestMode::Surprise, &hits);
        assert_eq!(ranked[0].label.as_ref(), "Plasma Displays");
        assert!(ranked[0].is_hit);
        assert!(ranked[1..].iter().all(|r| !r.is_hit));
    }

    #[test]
    fn modes_invert_the_ordering_key() {
        let fx = ebiz_fixture();
        let s = rank(&fx, InterestMode::Surprise, &HashSet::new());
        let b = rank(&fx, InterestMode::Bellwether, &HashSet::new());
        for (x, y) in s.iter().zip(&b) {
            // Same deviations, negated ranking keys.
            let y2 = b.iter().find(|r| r.code == x.code).unwrap();
            assert!((x.score + y2.score).abs() < 1e-12);
            let _ = y;
        }
    }

    #[test]
    fn empty_subspace_yields_no_instances() {
        let fx = ebiz_fixture();
        let attr = fx.wh.col_ref("PGROUP", "GroupName").unwrap();
        let fact = fx.wh.schema().fact_table();
        let path = kdap_query::paths_between(fx.wh.schema(), fact, attr.table, 8).remove(0);
        let empty = RowSet::empty(fx.wh.fact_rows());
        let ranked = rank_instances(
            &fx.wh,
            &fx.jidx,
            &empty,
            &[],
            &path,
            attr,
            &revenue(&fx),
            &FacetConfig::default(),
            &HashSet::new(),
        );
        assert!(ranked.is_empty());
    }
}
