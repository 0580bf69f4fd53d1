//! Subspace materialization: evaluating a star net into the fact-row set
//! DS′ it denotes.
//!
//! Every constraint of the star net is a hit group applied along a join
//! path; constraints AND together on the fact table (slice semantics),
//! while the hits inside one group OR together. Hit groups on the fact
//! table itself select fact points directly (§4.2).
//!
//! Each constraint's selection semi-joins down its own path into a fact
//! bitmap (through the [`Planner`]'s semi-join cache when it has one), and
//! [`and_selections`] ANDs the bitmaps in net order.

use kdap_query::{and_selections, ExecConfig, JoinIndex, RowSet, Selection};
use kdap_warehouse::Warehouse;

use crate::error::KdapError;
use crate::interpret::StarNet;
use crate::plan::Planner;

/// Materializes a star net into its subspace, serially and without a
/// semi-join cache.
///
/// Panics if a constraint is malformed (attribute off its path's target
/// table) — impossible for nets produced by the interpreter. Use
/// [`materialize_planned`] for a fallible variant.
pub fn materialize(wh: &Warehouse, jidx: &JoinIndex, net: &StarNet) -> RowSet {
    #[allow(clippy::expect_used)]
    materialize_planned(wh, jidx, net, &Planner::default(), &ExecConfig::serial())
        .expect("star-net constraints evaluate on the fact table")
}

/// Materializes a star net through a [`Planner`]'s semi-join cache, when
/// it has one: the one-conjunction case of [`and_selections`], so the
/// result is identical for every thread count. Recorded as a
/// `materialize` span holding one `semijoin` leaf per constraint, with
/// the subspace size as its `rows_out`.
pub fn materialize_planned(
    wh: &Warehouse,
    jidx: &JoinIndex,
    net: &StarNet,
    planner: &Planner,
    exec: &ExecConfig,
) -> Result<RowSet, KdapError> {
    let span = exec.obs.span("materialize");
    let fact = wh.schema().fact_table();
    let selections: Vec<Selection> = net.constraints.iter().map(|c| c.selection()).collect();
    let rows = and_selections(wh, jidx, fact, &[selections], planner.cache(), exec)?.remove(0);
    span.rows_out(rows.len() as u64);
    Ok(rows)
}

/// Aggregates `measure` over `rows`: the ungrouped one-spec case of the
/// group-by scan, a test oracle for the facet pipeline's totals.
#[cfg(test)]
pub(crate) fn aggregate(
    wh: &Warehouse,
    rows: &RowSet,
    measure: &kdap_warehouse::Measure,
    func: kdap_query::AggFunc,
) -> f64 {
    use kdap_query::{multi_group_by_exec, FacetSpec, MeasureVector, DENSE_GROUP_LIMIT};
    let mv = MeasureVector::build(wh, measure);
    let exec = ExecConfig::serial();
    let total = [FacetSpec::Total];
    multi_group_by_exec(wh, &total, rows, &mv, func.fold(), &exec, DENSE_GROUP_LIMIT)
        .map_or(f64::NAN, |groups| groups[0].total(func))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::{generate_star_nets, GenConfig};
    use crate::rank::{rank_star_nets, RankMethod};
    use crate::testutil::ebiz_fixture;

    /// Helper: materialize the top-ranked interpretation of a query.
    fn top_subspace(query: &[&str]) -> (RowSet, f64) {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(&fx.wh, &fx.index, query, &GenConfig::default());
        let ranked = rank_star_nets(nets, RankMethod::Standard);
        let sub = materialize(&fx.wh, &fx.jidx, &ranked[0].net);
        let measure = fx.wh.schema().measure_by_name("Revenue").unwrap().clone();
        let agg = aggregate(&fx.wh, &sub, &measure, kdap_query::AggFunc::Sum);
        (sub, agg)
    }

    #[test]
    fn store_city_constraint_slices_fact_rows() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default());
        // Find the store-path interpretation.
        let store_net = nets
            .iter()
            .find(|n| n.display(&fx.wh).contains("STORE → LOC"))
            .expect("store-path net exists");
        let sub = materialize(&fx.wh, &fx.jidx, store_net);
        // Transactions 1 and 3 happen in the Columbus store → items
        // 1,2,5,6 (fact rows 0,1,4,5).
        assert_eq!(sub.iter().collect::<Vec<_>>(), vec![0, 1, 4, 5]);
    }

    #[test]
    fn holiday_interpretation_differs_from_city() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default());
        let holiday_net = nets
            .iter()
            .find(|n| n.display(&fx.wh).contains("HOLIDAY"))
            .unwrap();
        let sub = materialize(&fx.wh, &fx.jidx, holiday_net);
        // Only transaction 1 falls on Columbus Day → items 1,2.
        assert_eq!(sub.iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn conjunction_of_two_keywords() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "plasma"],
            &GenConfig::default(),
        );
        let store_net = nets
            .iter()
            .find(|n| {
                let d = n.display(&fx.wh);
                d.contains("STORE → LOC") && d.contains("Plasma")
            })
            .unwrap();
        let sub = materialize(&fx.wh, &fx.jidx, store_net);
        // Columbus-store items that are Plasma products: item 6 only
        // (fact row 5).
        assert_eq!(sub.iter().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn aggregation_over_subspace() {
        let (sub, agg) = top_subspace(&["seattle"]);
        // Seattle matches the store city (1 path, 1 hit) and Alice's
        // customer city (2 paths). The top-ranked net is deterministic;
        // whatever it is, the aggregate must equal the sum over its rows.
        assert!(!sub.is_empty());
        assert!(agg > 0.0);
    }

    #[test]
    fn parallel_materialization_matches_serial() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "plasma"],
            &GenConfig::default(),
        );
        for threads in [2usize, 4, 8] {
            let exec = kdap_query::ExecConfig::with_threads(threads);
            for net in &nets {
                let serial = materialize(&fx.wh, &fx.jidx, net);
                let parallel =
                    materialize_planned(&fx.wh, &fx.jidx, net, &Planner::cached(), &exec).unwrap();
                assert_eq!(
                    serial.iter().collect::<Vec<_>>(),
                    parallel.iter().collect::<Vec<_>>()
                );
            }
        }
    }

    /// A net holding one constraint twice: its `materialize` subtree,
    /// clocks zeroed, from a fresh cached planner.
    fn repeated_constraint_tree(threads: usize) -> kdap_obs::ProfileNode {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default());
        let c = nets[0].constraints[0].clone();
        let net = crate::interpret::StarNet {
            constraints: vec![c.clone(), c],
        };
        let obs = kdap_obs::Obs::disabled().recording("repeat");
        let exec = ExecConfig::with_threads(threads).with_obs(obs.clone());
        materialize_planned(&fx.wh, &fx.jidx, &net, &Planner::cached(), &exec).unwrap();
        let mut tree = obs.take_profile().unwrap().roots.remove(0);
        tree.wall_ns = 0;
        tree.children.iter_mut().for_each(|leaf| leaf.wall_ns = 0);
        tree
    }

    #[test]
    fn a_repeated_constraints_cache_outcome_does_not_depend_on_scheduling() {
        let serial = repeated_constraint_tree(1);
        assert_eq!(
            serial.stage_names(),
            vec!["materialize", "  semijoin", "  semijoin"]
        );
        assert_eq!(serial.children[0], serial.children[1]);
        assert_eq!(serial.children[1].cache, Some(kdap_obs::CacheOutcome::Miss));
        for _ in 0..50 {
            assert_eq!(repeated_constraint_tree(4), serial);
        }
    }

    #[test]
    fn empty_net_denotes_whole_dataspace() {
        let fx = ebiz_fixture();
        let net = crate::interpret::StarNet {
            constraints: vec![],
        };
        let sub = materialize(&fx.wh, &fx.jidx, &net);
        assert_eq!(sub, RowSet::full(fx.wh.fact_rows()));
        assert_eq!(sub.len(), 6);
    }

    #[test]
    fn cached_planner_matches_uncached() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "lcd"],
            &GenConfig::default(),
        );
        let planner = Planner::cached();
        for _pass in 0..2 {
            for net in &nets {
                let uncached = materialize(&fx.wh, &fx.jidx, net);
                let planned =
                    materialize_planned(&fx.wh, &fx.jidx, net, &planner, &ExecConfig::serial())
                        .unwrap();
                assert_eq!(uncached, planned);
            }
        }
        assert!(planner.cache_counters().unwrap().hits > 0);
    }
}
