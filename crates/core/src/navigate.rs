//! OLAP navigation over star nets: drill-down, roll-up, and dropping a
//! constraint.
//!
//! The paper's facets "enable seamless incorporation of existing OLAP
//! navigational operations — each attribute instance may serve as an
//! entry point for drill-down operations to more detailed subspaces"
//! (§3). These helpers derive a new star net from an existing one, and
//! `refine` applies a request's ordered [`Refine`] steps with them —
//! the one place a facet entry is turned back into a constraint.

use kdap_query::{JoinIndex, JoinPath};
use kdap_warehouse::{AttrKind, ColRef, Warehouse};

use crate::api::Refine;
use crate::error::KdapError;
use crate::facet::attr_rank::collect_attr_tasks;
use crate::interpret::{Constraint, StarNet};
use crate::rollup::{rollup_constraint, Rollup};

/// Drill-down: narrows the subspace to the fact points whose `attr`
/// (reached via `path`) carries one of `codes`. Returns `None` when
/// `attr` is not dictionary-coded or a code lies outside its dictionary.
///
/// When the net already constrains the same `(attr, path)`, the existing
/// constraint is *replaced* — drilling from the "Bikes" category facet
/// into "Mountain Bikes" must not AND the two into an empty slice of
/// incomparable levels; picking an instance of the displayed facet always
/// means "focus on exactly this".
pub fn drill_down(
    wh: &Warehouse,
    net: &StarNet,
    attr: ColRef,
    path: &JoinPath,
    codes: Vec<u32>,
) -> Option<StarNet> {
    let drilled = Constraint::exact(wh, attr, path.clone(), &codes)?;
    let mut constraints: Vec<Constraint> = net
        .constraints
        .iter()
        .filter(|c| !(c.group.attr == attr && &c.path == path))
        .cloned()
        .collect();
    constraints.push(drilled);
    Some(StarNet { constraints })
}

/// Roll-up: generalizes the `idx`-th constraint one hierarchy level
/// (Subcategory = Mountain Bikes → Category = Bikes), or removes it when
/// it is already at the top. Returns `None` when `idx` is out of range.
pub fn roll_up(wh: &Warehouse, jidx: &JoinIndex, net: &StarNet, idx: usize) -> Option<StarNet> {
    let rolled = rollup_constraint(wh, jidx, net.constraints.get(idx)?);
    let mut constraints = net.constraints.clone();
    match rolled {
        Rollup::Parent(parent) => constraints[idx] = parent,
        Rollup::Drop => {
            constraints.remove(idx);
        }
    }
    Some(StarNet { constraints })
}

/// Removes the `idx`-th constraint entirely (navigating back out of a
/// drill). Returns `None` when out of range.
pub fn remove_constraint(net: &StarNet, idx: usize) -> Option<StarNet> {
    if idx >= net.constraints.len() {
        return None;
    }
    let mut constraints = net.constraints.clone();
    constraints.remove(idx);
    Some(StarNet { constraints })
}

/// Applies a request's `refine` steps to `net`, in order. A drill names
/// its facet the way an exploration displays it — dimension, `Table.Column`
/// attribute, instance label — and is resolved against the same
/// [`collect_attr_tasks`] list the facet scan of the net-so-far runs, so
/// the constraint it adds follows the join path the clicked entry was
/// aggregated on. The first step that does not apply is a
/// [`KdapError::BadRefine`] carrying its 1-based position; nothing is
/// materialized here.
pub(crate) fn refine(
    wh: &Warehouse,
    jidx: &JoinIndex,
    net: &StarNet,
    steps: &[Refine],
) -> Result<StarNet, KdapError> {
    let mut net = net.clone();
    for (i, step) in steps.iter().enumerate() {
        let bad = |reason: String| KdapError::BadRefine {
            step: i + 1,
            reason,
        };
        let no_constraint = |n: &usize| bad(format!("no constraint #{n}"));
        net = match step {
            Refine::Drill {
                dimension,
                attr,
                value,
            } => {
                let dim = wh
                    .schema()
                    .dimension_by_name(dimension)
                    .ok_or_else(|| bad(format!("unknown dimension `{dimension}`")))?;
                let task = collect_attr_tasks(wh, &net, dim)
                    .into_iter()
                    .find(|t| wh.col_name(t.attr) == *attr)
                    .ok_or_else(|| bad(format!("dimension `{dimension}` has no facet `{attr}`")))?;
                let dict = wh
                    .column(task.attr)
                    .dict()
                    .filter(|_| task.kind == AttrKind::Categorical)
                    .ok_or_else(|| {
                        bad(format!(
                            "`{attr}` is a numeric-range facet; ranges are refined via a new \
                             query, not drill"
                        ))
                    })?;
                dict.code_of(value)
                    .and_then(|code| drill_down(wh, &net, task.attr, &task.path, vec![code]))
                    .ok_or_else(|| bad(format!("`{attr}` has no instance `{value}`")))?
            }
            Refine::Up(n) => {
                roll_up(wh, jidx, &net, n.wrapping_sub(1)).ok_or_else(|| no_constraint(n))?
            }
            Refine::Drop(n) => {
                remove_constraint(&net, n.wrapping_sub(1)).ok_or_else(|| no_constraint(n))?
            }
        };
    }
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::{generate_star_nets, GenConfig};
    use crate::subspace::materialize;
    use crate::testutil::ebiz_fixture;

    fn store_net(fx: &crate::testutil::Fixture) -> StarNet {
        generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default())
            .into_iter()
            .find(|n| n.display(&fx.wh).contains("STORE → LOC"))
            .unwrap()
    }

    #[test]
    fn drill_down_shrinks_the_subspace() {
        let fx = ebiz_fixture();
        let net = store_net(&fx);
        let before = materialize(&fx.wh, &fx.jidx, &net);
        // Drill into the "LCD Projectors" product group.
        let attr = fx.wh.col_ref("PGROUP", "GroupName").unwrap();
        let code = fx
            .wh
            .column(attr)
            .dict()
            .unwrap()
            .code_of("LCD Projectors")
            .unwrap();
        let path =
            kdap_query::paths_between(fx.wh.schema(), fx.wh.schema().fact_table(), attr.table, 8)
                .remove(0);
        let drilled = drill_down(&fx.wh, &net, attr, &path, vec![code]).unwrap();
        let after = materialize(&fx.wh, &fx.jidx, &drilled);
        assert!(after.len() < before.len());
        assert!(!after.is_empty());
        for row in after.rows.iter() {
            assert!(before.rows.contains(row), "drill-down is a refinement");
        }
    }

    #[test]
    fn drill_down_replaces_same_attribute_constraint() {
        let fx = ebiz_fixture();
        let net = store_net(&fx);
        let attr = net.constraints[0].group.attr;
        let path = net.constraints[0].path.clone();
        let seattle = fx
            .wh
            .column(attr)
            .dict()
            .unwrap()
            .code_of("Seattle")
            .unwrap();
        let moved = drill_down(&fx.wh, &net, attr, &path, vec![seattle]).unwrap();
        // Still one constraint (replaced, not stacked).
        assert_eq!(moved.n_groups(), 1);
        let sub = materialize(&fx.wh, &fx.jidx, &moved);
        assert!(!sub.is_empty(), "Columbus→Seattle refocus is non-empty");
    }

    #[test]
    fn roll_up_enlarges_the_subspace() {
        let fx = ebiz_fixture();
        let net = store_net(&fx);
        let before = materialize(&fx.wh, &fx.jidx, &net);
        let rolled = roll_up(&fx.wh, &fx.jidx, &net, 0).unwrap();
        let after = materialize(&fx.wh, &fx.jidx, &rolled);
        assert!(after.len() >= before.len());
        // City rolled up to State: the constraint survives at parent level.
        assert_eq!(rolled.n_groups(), 1);
        assert_eq!(
            rolled.constraints[0].group.attr,
            fx.wh.col_ref("LOC", "State").unwrap()
        );
        assert!(roll_up(&fx.wh, &fx.jidx, &net, 9).is_none());
    }

    #[test]
    fn roll_up_at_top_level_drops_the_constraint() {
        let fx = ebiz_fixture();
        let net = generate_star_nets(&fx.wh, &fx.index, &["lcd"], &GenConfig::default())
            .into_iter()
            .find(|n| n.display(&fx.wh).contains("PGROUP"))
            .unwrap();
        let rolled = roll_up(&fx.wh, &fx.jidx, &net, 0).unwrap();
        assert_eq!(rolled.n_groups(), 0);
        let sub = materialize(&fx.wh, &fx.jidx, &rolled);
        assert_eq!(sub.len(), fx.wh.fact_rows(), "rolled up to ALL");
    }

    #[test]
    fn drill_on_a_new_attribute_and_remove_are_inverses() {
        let fx = ebiz_fixture();
        let net = store_net(&fx);
        let attr = fx.wh.col_ref("HOLIDAY", "Event").unwrap();
        let code = fx
            .wh
            .column(attr)
            .dict()
            .unwrap()
            .code_of("Columbus Day")
            .unwrap();
        let path =
            kdap_query::paths_between(fx.wh.schema(), fx.wh.schema().fact_table(), attr.table, 8)
                .remove(0);
        let drilled = drill_down(&fx.wh, &net, attr, &path, vec![code]).unwrap();
        assert_eq!(drilled.n_groups(), net.n_groups() + 1);
        let sub_drilled = materialize(&fx.wh, &fx.jidx, &drilled);
        let sub_orig = materialize(&fx.wh, &fx.jidx, &net);
        assert!(sub_drilled.len() <= sub_orig.len());
        let back = remove_constraint(&drilled, drilled.n_groups() - 1).unwrap();
        assert_eq!(materialize(&fx.wh, &fx.jidx, &back).rows, sub_orig.rows);
        assert!(remove_constraint(&net, 99).is_none());
        // A code outside the dictionary is no constraint at all.
        assert!(drill_down(&fx.wh, &net, attr, &path, vec![u32::MAX]).is_none());
    }

    fn drill(dimension: &str, attr: &str, value: &str) -> Refine {
        Refine::Drill {
            dimension: dimension.into(),
            attr: attr.into(),
            value: value.into(),
        }
    }

    #[test]
    fn refine_applies_steps_in_order_on_the_facets_own_path() {
        let fx = ebiz_fixture();
        let net = store_net(&fx);
        let steps = [
            drill("Product", "PGROUP.GroupName", "LCD Projectors"),
            Refine::Up(1),
            Refine::Drop(2),
        ];
        let refined = refine(&fx.wh, &fx.jidx, &net, &steps).unwrap();
        // City rolled up to State; the drilled product group was dropped.
        assert_eq!(refined.n_groups(), 1);
        assert_eq!(
            refined.constraints[0].group.attr,
            fx.wh.col_ref("LOC", "State").unwrap()
        );
        // A drill on the hit attribute follows the constraint's own path
        // (and so replaces it), whatever the first path to LOC is.
        let moved = refine(
            &fx.wh,
            &fx.jidx,
            &net,
            &[drill("Store", "LOC.City", "Seattle")],
        )
        .unwrap();
        assert_eq!(moved.n_groups(), 1);
        assert_eq!(moved.constraints[0].path, net.constraints[0].path);
        assert_eq!(&*moved.constraints[0].group.hits[0].value, "Seattle");
    }

    #[test]
    fn refine_names_the_first_step_that_does_not_apply() {
        let fx = ebiz_fixture();
        let net = store_net(&fx);
        let ok = drill("Product", "PGROUP.GroupName", "LCD Projectors");
        for (steps, position, needle) in [
            (
                vec![drill("Nope", "LOC.City", "Seattle")],
                1,
                "unknown dimension",
            ),
            (vec![drill("Store", "PROD.Name", "x")], 1, "has no facet"),
            (
                vec![drill("Store", "LOC.City", "Atlantis")],
                1,
                "no instance",
            ),
            (
                vec![drill("Product", "PROD.ListPrice", "1 – 2")],
                1,
                "numeric-range facet",
            ),
            (vec![ok.clone(), Refine::Up(3)], 2, "no constraint #3"),
            (vec![ok.clone(), Refine::Drop(0)], 2, "no constraint #0"),
            (vec![ok, Refine::Drop(usize::MAX)], 2, "no constraint"),
        ] {
            match refine(&fx.wh, &fx.jidx, &net, &steps) {
                Err(KdapError::BadRefine { step, reason }) => {
                    assert_eq!(step, position, "{steps:?}");
                    assert!(reason.contains(needle), "{steps:?} → {reason}");
                }
                other => panic!("{steps:?} → {other:?}"),
            }
        }
    }
}
