//! Roll-up partitioning: computing the background space RUP(DS′)
//! (paper §5.2.1).
//!
//! For each *hitted* dimension, the subspace is enlarged by generalizing
//! the hit-group constraint one hierarchy level up: "Mountain Bikes"
//! (subcategory) rolls up to its category "Bikes"; "California" (state)
//! rolls up to its country. When the hit attribute sits at the top of its
//! hierarchy — or is not a hierarchy level at all — the constraint is
//! dropped entirely, i.e. the dimension rolls up to ALL.

use std::collections::BTreeSet;

use kdap_query::{
    and_selections, paths_between, ExecConfig, JoinIndex, JoinPath, RowSet, Selection,
};
use kdap_warehouse::{ColRef, Warehouse};

use crate::error::KdapError;
use crate::interpret::{Constraint, StarNet};
use crate::plan::Planner;

/// The rolled-up form of one constraint.
#[derive(Debug, Clone)]
pub enum Rollup {
    /// Replace the constraint by an exact selection at the parent
    /// hierarchy level (e.g. Subcategory ∈ {Mountain Bikes} → Category ∈
    /// {Bikes}).
    Parent(Constraint),
    /// No level above: the constraint is removed (roll up to ALL).
    Drop,
}

/// Computes the roll-up of `c` using the hierarchies of its dimension.
pub fn rollup_constraint(wh: &Warehouse, jidx: &JoinIndex, c: &Constraint) -> Rollup {
    let schema = wh.schema();
    let Some(dim_id) = c.path.dimension(schema) else {
        // Fact-table hits and untagged paths have no dimension to roll
        // up along.
        return Rollup::Drop;
    };
    if c.group.numeric.is_some() {
        // Numeric-range constraints have no categorical hierarchy to
        // climb; roll up to ALL.
        return Rollup::Drop;
    }
    let dim = schema.dimension(dim_id);
    let attr = c.group.attr;
    let Some(hierarchy) = dim.hierarchy_containing(attr) else {
        return Rollup::Drop;
    };
    let Some(parent_attr) = hierarchy.parent_level(attr) else {
        return Rollup::Drop;
    };
    parent_codes(wh, jidx, attr, &c.group.codes(), parent_attr)
        .filter(|(_, codes)| !codes.is_empty())
        .and_then(|(sub_path, codes)| {
            Constraint::exact(wh, parent_attr, c.path.extend(&sub_path), &codes)
        })
        .map_or(Rollup::Drop, Rollup::Parent)
}

/// Maps the selected instances of `attr` to the distinct values of the
/// parent-level attribute, returning the connecting sub-path (empty when
/// both levels live in one table) and the parent codes.
fn parent_codes(
    wh: &Warehouse,
    jidx: &JoinIndex,
    attr: ColRef,
    codes: &[u32],
    parent_attr: ColRef,
) -> Option<(JoinPath, Vec<u32>)> {
    let selected_rows = wh.column(attr).rows_with_codes(codes);
    let parent_col = wh.column(parent_attr);
    // Levels in one table: the empty path, whose mapper is the identity.
    // Snowflake: walk child → parent edges.
    let paths = paths_between(wh.schema(), attr.table, parent_attr.table, 4);
    let sub_path = paths.into_iter().next()?;
    let mapper = jidx.row_mapper(&sub_path);
    let set: BTreeSet<u32> = selected_rows
        .iter()
        .filter_map(|&r| parent_col.get_code(mapper.get(r)? as usize))
        .collect();
    Some((sub_path, set.into_iter().collect()))
}

/// Materializes one roll-up space per hitted constraint: the star net with
/// that constraint generalized (others unchanged). When the net has no
/// constraint at all, the full dataspace serves as the single background
/// space. Serial, without a semi-join cache.
///
/// Panics if a constraint is malformed — impossible for nets produced by
/// the interpreter; governed callers use [`try_rollup_spaces_planned`].
pub fn rollup_spaces(wh: &Warehouse, jidx: &JoinIndex, net: &StarNet) -> Vec<RowSet> {
    #[allow(clippy::expect_used)]
    try_rollup_spaces_planned(wh, jidx, net, &Planner::default(), &ExecConfig::serial())
        .expect("roll-up selections evaluate on the fact table")
}

/// The selections of the net with constraint `i` generalized: the other
/// constraints' selections unchanged, constraint `i` replaced by its
/// parent-level selection (or removed when it rolls up to ALL).
fn rolled_selections(wh: &Warehouse, jidx: &JoinIndex, net: &StarNet, i: usize) -> Vec<Selection> {
    let rolled = rollup_constraint(wh, jidx, &net.constraints[i]);
    let mut selections: Vec<Selection> = Vec::with_capacity(net.constraints.len());
    for (j, other) in net.constraints.iter().enumerate() {
        if j != i {
            selections.push(other.selection());
            continue;
        }
        match &rolled {
            Rollup::Drop => {} // constraint removed: dimension rolls up to ALL
            Rollup::Parent(parent) => selections.push(parent.selection()),
        }
    }
    selections
}

/// Fallible roll-up materialization: one [`and_selections`] call on
/// `exec` through `planner`'s semi-join cache, one conjunction (the
/// rolled net) per constraint, in constraint order. With the cache, a
/// selection the spaces share with each other or with the subspace is
/// looked up, or evaluated, once; each adds a `semijoin` leaf to the
/// caller's span.
pub fn try_rollup_spaces_planned(
    wh: &Warehouse,
    jidx: &JoinIndex,
    net: &StarNet,
    planner: &Planner,
    exec: &ExecConfig,
) -> Result<Vec<RowSet>, KdapError> {
    if net.constraints.is_empty() {
        return Ok(vec![RowSet::full(wh.fact_rows())]);
    }
    let conjunctions: Vec<Vec<Selection>> = (0..net.constraints.len())
        .map(|i| rolled_selections(wh, jidx, net, i))
        .collect();
    let fact = wh.schema().fact_table();
    let spaces = and_selections(wh, jidx, fact, &conjunctions, planner.cache(), exec)?;
    Ok(spaces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::{generate_star_nets, GenConfig};
    use crate::subspace::materialize;
    use crate::testutil::ebiz_fixture;

    fn net_containing(fx: &crate::testutil::Fixture, query: &[&str], needle: &str) -> StarNet {
        generate_star_nets(&fx.wh, &fx.index, query, &GenConfig::default())
            .into_iter()
            .find(|n| n.display(&fx.wh).contains(needle))
            .expect("interpretation present")
    }

    #[test]
    fn city_rolls_up_to_state() {
        let fx = ebiz_fixture();
        let net = net_containing(&fx, &["columbus"], "STORE → LOC");
        let c = &net.constraints[0];
        match rollup_constraint(&fx.wh, &fx.jidx, c) {
            Rollup::Parent(parent) => {
                assert_eq!(parent.group.attr, fx.wh.col_ref("LOC", "State").unwrap());
                let values: Vec<&str> = parent.group.hits.iter().map(|h| &*h.value).collect();
                assert_eq!(values, vec!["Ohio"]);
                // Path got one hop longer? No: State lives in the same
                // LOC table, so the path is unchanged.
                assert_eq!(parent.path, c.path);
            }
            Rollup::Drop => panic!("expected parent rollup"),
        }
    }

    #[test]
    fn product_name_rolls_up_to_group_across_tables() {
        let fx = ebiz_fixture();
        let net = net_containing(&fx, &["plasma", "tv"], "PROD.Name");
        let c = net
            .constraints
            .iter()
            .find(|c| c.group.attr == fx.wh.col_ref("PROD", "Name").unwrap())
            .unwrap();
        match rollup_constraint(&fx.wh, &fx.jidx, c) {
            Rollup::Parent(parent) => {
                assert_eq!(
                    parent.group.attr,
                    fx.wh.col_ref("PGROUP", "GroupName").unwrap()
                );
                assert_eq!(parent.path.len(), c.path.len() + 1, "one extra hop");
            }
            Rollup::Drop => panic!("expected parent rollup"),
        }
    }

    #[test]
    fn top_level_hit_rolls_up_to_all() {
        let fx = ebiz_fixture();
        // PGROUP.GroupName is the top level of the Product hierarchy.
        let net = net_containing(&fx, &["lcd"], "PGROUP");
        let c = &net.constraints[0];
        assert!(matches!(
            rollup_constraint(&fx.wh, &fx.jidx, c),
            Rollup::Drop
        ));
    }

    #[test]
    fn non_level_attribute_rolls_up_to_all() {
        let fx = ebiz_fixture();
        // Customer names are not part of any hierarchy.
        let net = net_containing(&fx, &["alice"], "CUST.Name");
        let c = &net.constraints[0];
        assert!(matches!(
            rollup_constraint(&fx.wh, &fx.jidx, c),
            Rollup::Drop
        ));
    }

    #[test]
    fn rollup_space_contains_the_subspace() {
        let fx = ebiz_fixture();
        let net = net_containing(&fx, &["columbus"], "STORE → LOC");
        let sub = materialize(&fx.wh, &fx.jidx, &net);
        let spaces = rollup_spaces(&fx.wh, &fx.jidx, &net);
        assert_eq!(spaces.len(), 1);
        for row in sub.iter() {
            assert!(spaces[0].contains(row), "RUP ⊇ DS′");
        }
        // In the fixture, Columbus is the only Ohio city, so the rollup
        // space equals the subspace here — still a valid superset.
        assert!(spaces[0].len() >= sub.len());
    }

    #[test]
    fn dropped_constraint_yields_full_space() {
        let fx = ebiz_fixture();
        let net = net_containing(&fx, &["lcd"], "PGROUP");
        let spaces = rollup_spaces(&fx.wh, &fx.jidx, &net);
        assert_eq!(spaces.len(), 1);
        assert_eq!(spaces[0].len(), fx.wh.fact_rows());
    }

    #[test]
    fn two_hitted_dimensions_give_two_rollup_spaces() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "lcd"],
            &GenConfig::default(),
        );
        let net = nets
            .iter()
            .find(|n| n.display(&fx.wh).contains("STORE → LOC"))
            .unwrap();
        let spaces = rollup_spaces(&fx.wh, &fx.jidx, net);
        assert_eq!(spaces.len(), 2);
    }

    #[test]
    fn empty_net_falls_back_to_full_dataspace() {
        let fx = ebiz_fixture();
        let net = StarNet {
            constraints: vec![],
        };
        let spaces = rollup_spaces(&fx.wh, &fx.jidx, &net);
        assert_eq!(spaces.len(), 1);
        assert_eq!(spaces[0].len(), fx.wh.fact_rows());
    }
}
