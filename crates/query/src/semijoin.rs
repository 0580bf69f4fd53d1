//! Semi-join propagation along join paths, plus fact→dimension row
//! mapping — the executor primitives behind subspace materialization and
//! group-by aggregation.

use std::collections::HashMap;
use std::sync::Arc;

use kdap_warehouse::{ColRef, EdgeId, FkEdge, KeyRows, TableId, Warehouse};

use crate::bitmap::RowSet;
use crate::error::QueryError;
use crate::path::{paths_from, JoinPath, MAX_PATH_LEN};

/// "No parent row": the child's key is NULL.
const NO_ROW: u32 = u32::MAX;

/// An origin→target row mapper along one join path: `get(origin_row)` is
/// the row of the path's target table the origin row joins to, `None`
/// when the join dead-ends on a NULL key.
///
/// A mapper owns nothing sized by its origin table: it shares the arrays
/// of the [`JoinIndex`] it came from, so a clone is two reference-count
/// bumps and a lookup at most two array loads. The representation is
/// private to this module; the default mapper is the empty path's, the
/// identity.
#[derive(Debug, Clone, Default)]
pub struct RowMapper {
    /// The path's first edge, child row → parent row; `None` for the
    /// empty path.
    first: Option<Arc<[u32]>>,
    /// Every further hop, composed into one array over the first edge's
    /// parent table; `None` for paths of at most one edge.
    tail: Option<Arc<[u32]>>,
}

impl RowMapper {
    /// The target-table row that `row` of the origin table joins to.
    #[inline]
    pub fn get(&self, row: usize) -> Option<u32> {
        let Some(first) = &self.first else {
            return Some(row as u32);
        };
        let at = first[row];
        if at == NO_ROW {
            return None;
        }
        let at = match &self.tail {
            Some(tail) => tail[at as usize],
            None => at,
        };
        (at != NO_ROW).then_some(at)
    }
}

/// One FK edge `child.fk → parent.pk`, resolved to row ids.
struct EdgeIndex {
    /// Child row → parent row, [`NO_ROW`] for a NULL key: the mapping
    /// *up* from fact rows to dimension attributes, and the one array the
    /// semi-join *down* scans.
    parent_of: Arc<[u32]>,
    /// Rows of the parent table.
    parent_rows: usize,
}

/// Every FK edge of a warehouse resolved to row ids, once.
///
/// Immutable after [`JoinIndex::build`]: no query builds, locks or counts
/// anything here, and a [`RowMapper`] for any enumerated path is assembled
/// from the index's own arrays without allocating one.
pub struct JoinIndex {
    /// Indexed by [`EdgeId`].
    edges: Vec<EdgeIndex>,
    /// The hops after the first of every simple path of three to
    /// [`MAX_PATH_LEN`] edges, composed into one array over the table
    /// they start at (a dimension table) and keyed by those hops.
    tails: HashMap<Vec<EdgeId>, Arc<[u32]>>,
}

impl JoinIndex {
    /// Resolves every edge of `wh`. One temporary [`KeyRows`] per distinct
    /// parent key column is shared by the edges into it (role-playing
    /// ones such as Buyer/Seller) and dropped before the next is built.
    pub fn build(wh: &Warehouse) -> Self {
        let schema = wh.schema();
        let mut by_parent: Vec<&FkEdge> = schema.edges().iter().collect();
        by_parent.sort_by_key(|e| e.parent);
        let mut edges: Vec<(EdgeId, EdgeIndex)> = Vec::with_capacity(by_parent.len());
        for group in by_parent.chunk_by(|a, b| a.parent == b.parent) {
            let parent_col = wh.column(group[0].parent);
            // Infallible: `WarehouseBuilder::finish` rejects a repeated
            // parent key with this same check.
            #[allow(clippy::expect_used)]
            let row_of_key = KeyRows::build(parent_col).expect("a parent key names one row");
            for edge in group {
                let index = index_edge(wh, edge.child, parent_col.len(), &row_of_key);
                edges.push((edge.id, index));
            }
        }
        edges.sort_by_key(|(id, _)| *id);
        let mut idx = JoinIndex {
            edges: edges.into_iter().map(|(_, index)| index).collect(),
            tails: HashMap::new(),
        };
        // A tail starts where a first edge ends: at a parent table.
        let mut starts: Vec<TableId> = by_parent.iter().map(|e| e.parent.table).collect();
        starts.dedup();
        for start in starts {
            for tail in paths_from(schema, start, MAX_PATH_LEN - 1)
                .into_values()
                .flatten()
            {
                if tail.len() >= 2 {
                    let composed = idx.compose(tail.edges());
                    idx.tails.insert(tail.edges().to_vec(), composed);
                }
            }
        }
        idx
    }

    /// Semi-joins a set of *target-table* rows back down `path` to the
    /// path's origin table, returning the origin rows that reach any of
    /// them. With the empty path this is just `target_rows` itself. A
    /// set that is not over the rows of the path's target table is a
    /// [`QueryError::UniverseMismatch`].
    ///
    /// One pass over the first edge's `parent_of`, against a mask of the
    /// parent rows the rest of the path takes into `target_rows`: every
    /// non-null key names exactly one parent row.
    pub fn rows_reaching(
        &self,
        path: &JoinPath,
        target_rows: &RowSet,
    ) -> Result<RowSet, QueryError> {
        let Some((first, rest)) = path.edges().split_first() else {
            return Ok(target_rows.clone());
        };
        let target_universe = self.edges[rest.last().unwrap_or(first).0 as usize].parent_rows;
        if target_rows.universe() != target_universe {
            return Err(QueryError::UniverseMismatch {
                left: target_rows.universe(),
                right: target_universe,
            });
        }
        let selected = target_rows.to_words();
        let tail = self.tail(rest);
        let first = &self.edges[first.0 as usize];
        let n = first.parent_rows;
        let mut hit: Vec<u8> = (0..n)
            .map(|p| {
                let t = tail.as_ref().map_or(p, |tail| tail[p] as usize);
                // `NO_ROW` lies past the last word.
                u8::from(selected.get(t / 64).is_some_and(|w| w >> (t % 64) & 1 == 1))
            })
            .collect();
        // One trailing 0 absorbs `NO_ROW`, which the pass clamps to `n`;
        // slicing to `n + 1` lets the compiler drop the bounds check.
        hit.push(0);
        let hit = &hit[..=n];
        let mut words = Vec::with_capacity(first.parent_of.len().div_ceil(64));
        for rows in first.parent_of.chunks(64) {
            let mut w = 0u64;
            for (k, &p) in rows.iter().enumerate() {
                w |= u64::from(hit[(p as usize).min(n)]) << k;
            }
            words.push(w);
        }
        RowSet::from_words(first.parent_of.len(), words)
    }

    /// The origin→target row mapper of `path` (a valid chain, as
    /// [`JoinPath::new`] guarantees). Only a path [`JoinIndex::build`] did
    /// not foresee — longer than [`MAX_PATH_LEN`], or of three or more
    /// hops and revisiting a table — composes an array here, and it is
    /// not kept.
    pub fn row_mapper(&self, path: &JoinPath) -> RowMapper {
        let Some((first, rest)) = path.edges().split_first() else {
            return RowMapper::default();
        };
        RowMapper {
            first: Some(self.edges[first.0 as usize].parent_of.clone()),
            tail: self.tail(rest),
        }
    }

    /// The hops after a path's first edge, as one array over the first
    /// edge's parent table; `None` when there are none.
    fn tail(&self, rest: &[EdgeId]) -> Option<Arc<[u32]>> {
        match rest {
            [] => None,
            [second] => Some(self.edges[second.0 as usize].parent_of.clone()),
            _ => Some(match self.tails.get(rest) {
                Some(composed) => composed.clone(),
                None => self.compose(rest),
            }),
        }
    }

    /// The hops of the non-empty `chain` applied in order, as one array
    /// over the rows of the table it starts at.
    fn compose(&self, chain: &[EdgeId]) -> Arc<[u32]> {
        let hop = |e: &EdgeId| &self.edges[e.0 as usize].parent_of;
        chain[1..].iter().fold(hop(&chain[0]).clone(), |so_far, e| {
            // `NO_ROW` lies past the end of every array, so it maps to itself.
            let next = |&p: &u32| hop(e).get(p as usize).copied().unwrap_or(NO_ROW);
            so_far.iter().map(next).collect()
        })
    }
}

/// Resolves every key of `child` through `row_of_key`.
fn index_edge(
    wh: &Warehouse,
    child: ColRef,
    parent_rows: usize,
    row_of_key: &KeyRows,
) -> EdgeIndex {
    let child_col = wh.column(child);
    let mut parent_of = Vec::with_capacity(child_col.len());
    child_col.for_each_int(|_, key| {
        parent_of.push(key.and_then(|k| row_of_key.get(k)).unwrap_or(NO_ROW));
    });
    EdgeIndex {
        parent_of: parent_of.into(),
        parent_rows,
    }
}

/// A selection predicate over a subspace: rows of `attr`'s table whose
/// dictionary code is in `codes`, reached from the origin table via
/// `path`. This is exactly one hit group applied along one join path.
///
/// The numeric-range predicate supports the paper's future-work extension
/// of treating measure/numeric attributes as hit candidates (§7).
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Join path from the origin (fact) table to the attribute's table.
    pub path: JoinPath,
    /// The constrained attribute.
    pub attr: ColRef,
    /// Which target rows qualify.
    pub predicate: Predicate,
}

/// The row predicate of a [`Selection`].
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Dictionary codes of the selected attribute instances
    /// (OR-semantics within one selection, as within one hit group).
    Codes(Vec<u32>),
    /// Numeric attribute value within `[lo, hi]` (inclusive).
    Range {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
}

impl Selection {
    /// Categorical selection by dictionary codes.
    pub fn by_codes(path: JoinPath, attr: ColRef, codes: Vec<u32>) -> Self {
        Selection {
            path,
            attr,
            predicate: Predicate::Codes(codes),
        }
    }

    /// Numeric selection by inclusive value range.
    pub fn by_range(path: JoinPath, attr: ColRef, lo: f64, hi: f64) -> Self {
        Selection {
            path,
            attr,
            predicate: Predicate::Range { lo, hi },
        }
    }

    /// Evaluates the selection: origin-table rows whose joined target row
    /// satisfies the predicate. An attribute off the path's target table
    /// is a typed [`QueryError`].
    pub fn try_eval(
        &self,
        wh: &Warehouse,
        idx: &JoinIndex,
        origin: TableId,
    ) -> Result<RowSet, QueryError> {
        let target = self.path.target_table(wh.schema(), origin);
        if self.attr.table != target {
            return Err(QueryError::AttrOffPathTarget {
                attr_table: self.attr.table.0,
                target_table: target.0,
            });
        }
        let col = wh.column(self.attr);
        let matching: Vec<usize> = match &self.predicate {
            Predicate::Codes(codes) => col.rows_with_codes(codes),
            Predicate::Range { lo, hi } => {
                let mut rows = Vec::new();
                col.for_each_float(|r, v| {
                    if v.is_some_and(|v| v >= *lo && v <= *hi) {
                        rows.push(r);
                    }
                });
                rows
            }
        };
        let target_rows = RowSet::from_rows(wh.table(target).nrows(), matching);
        idx.rows_reaching(&self.path, &target_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::paths_between;
    use kdap_warehouse::{ValueType, WarehouseBuilder};

    /// FACT(4 rows) → DIM(2 rows) → OUTER(2 rows)
    fn snowflake() -> Warehouse {
        let mut b = WarehouseBuilder::new();
        b.table(
            "FACT",
            &[
                ("Id", ValueType::Int, false),
                ("DKey", ValueType::Int, false),
            ],
        )
        .unwrap();
        b.table(
            "DIM",
            &[
                ("DKey", ValueType::Int, false),
                ("OKey", ValueType::Int, false),
                ("Name", ValueType::Str, true),
            ],
        )
        .unwrap();
        b.table(
            "OUTER",
            &[
                ("OKey", ValueType::Int, false),
                ("Region", ValueType::Str, true),
            ],
        )
        .unwrap();
        b.rows(
            "OUTER",
            vec![
                vec![10i64.into(), "West".into()],
                vec![20i64.into(), "East".into()],
            ],
        )
        .unwrap();
        b.rows(
            "DIM",
            vec![
                vec![1i64.into(), 10i64.into(), "Widget".into()],
                vec![2i64.into(), 20i64.into(), "Gadget".into()],
            ],
        )
        .unwrap();
        b.rows(
            "FACT",
            vec![
                vec![100i64.into(), 1i64.into()],
                vec![101i64.into(), 1i64.into()],
                vec![102i64.into(), 2i64.into()],
                vec![103i64.into(), 2i64.into()],
            ],
        )
        .unwrap();
        b.edge("FACT.DKey", "DIM.DKey", None, Some("D")).unwrap();
        b.edge("DIM.OKey", "OUTER.OKey", None, None).unwrap();
        b.dimension("D", &["DIM", "OUTER"], vec![], vec![]).unwrap();
        b.fact("FACT").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn semijoin_one_hop() {
        let wh = snowflake();
        let idx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let dim = wh.table_id("DIM").unwrap();
        let path = paths_between(wh.schema(), fact, dim, 4).remove(0);
        let attr = wh.col_ref("DIM", "Name").unwrap();
        let code = wh.column(attr).dict().unwrap().code_of("Widget").unwrap();
        let sel = Selection::by_codes(path, attr, vec![code]);
        let rows = sel.try_eval(&wh, &idx, fact).unwrap();
        assert_eq!(rows.iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn semijoin_two_hops() {
        let wh = snowflake();
        let idx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let outer = wh.table_id("OUTER").unwrap();
        let path = paths_between(wh.schema(), fact, outer, 4).remove(0);
        let attr = wh.col_ref("OUTER", "Region").unwrap();
        let code = wh.column(attr).dict().unwrap().code_of("East").unwrap();
        let sel = Selection::by_codes(path, attr, vec![code]);
        let rows = sel.try_eval(&wh, &idx, fact).unwrap();
        assert_eq!(rows.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn empty_path_selection_on_origin() {
        let wh = snowflake();
        let idx = JoinIndex::build(&wh);
        let dim = wh.table_id("DIM").unwrap();
        let attr = wh.col_ref("DIM", "Name").unwrap();
        let code = wh.column(attr).dict().unwrap().code_of("Gadget").unwrap();
        let sel = Selection::by_codes(JoinPath::empty(), attr, vec![code]);
        let rows = sel.try_eval(&wh, &idx, dim).unwrap();
        assert_eq!(rows.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn or_semantics_within_selection() {
        let wh = snowflake();
        let idx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let dim = wh.table_id("DIM").unwrap();
        let path = paths_between(wh.schema(), fact, dim, 4).remove(0);
        let attr = wh.col_ref("DIM", "Name").unwrap();
        let dict = wh.column(attr).dict().unwrap();
        let sel = Selection::by_codes(
            path,
            attr,
            vec![
                dict.code_of("Widget").unwrap(),
                dict.code_of("Gadget").unwrap(),
            ],
        );
        assert_eq!(sel.try_eval(&wh, &idx, fact).unwrap().len(), 4);
    }

    #[test]
    fn row_mapper_follows_joins() {
        let wh = snowflake();
        let idx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let (dim, outer) = (wh.table_id("DIM").unwrap(), wh.table_id("OUTER").unwrap());
        let two_hops = paths_between(wh.schema(), fact, outer, 4).remove(0);
        let mapping = idx.row_mapper(&two_hops);
        let targets: Vec<_> = (0..4).map(|r| mapping.get(r)).collect();
        assert_eq!(targets, vec![Some(0), Some(0), Some(1), Some(1)]);
        // Nothing is built per call: mappers through the same first edge
        // share the index's own array for it.
        let one_hop = idx.row_mapper(&paths_between(wh.schema(), fact, dim, 4).remove(0));
        assert!(Arc::ptr_eq(
            mapping.first.as_ref().unwrap(),
            one_hop.first.as_ref().unwrap()
        ));
        assert!(one_hop.tail.is_none());
    }

    #[test]
    fn empty_path_mapper_is_the_identity_without_an_array() {
        let idx = JoinIndex::build(&snowflake());
        let identity = idx.row_mapper(&JoinPath::empty());
        assert!(identity.first.is_none() && identity.tail.is_none());
        assert_eq!(identity.get(3), Some(3));
    }

    /// T0(fact) → T1 → … → T`hops`, three rows per table: row `r` joins
    /// to row `(r + 1) % 3` of the next table, except that T`i` row 2 has
    /// a NULL key for odd `i`.
    fn chain(hops: usize) -> Warehouse {
        let mut b = WarehouseBuilder::new();
        for t in 0..=hops {
            let cols = [
                ("Key", ValueType::Int, false),
                ("Next", ValueType::Int, false),
            ];
            b.table(&format!("T{t}"), &cols).unwrap();
            for r in 0..3i64 {
                let next = if t % 2 == 1 && r == 2 {
                    kdap_warehouse::Value::Null
                } else {
                    ((r + 1) % 3).into()
                };
                b.row(&format!("T{t}"), vec![r.into(), next]).unwrap();
            }
        }
        for t in 0..hops {
            b.edge(
                &format!("T{t}.Next"),
                &format!("T{}.Key", t + 1),
                None,
                None,
            )
            .unwrap();
        }
        b.fact("T0").unwrap();
        b.finish().unwrap()
    }

    /// Follows the chain's key columns row by row.
    fn walk_chain(wh: &Warehouse, hops: usize, row: usize) -> Option<u32> {
        (0..hops).try_fold(row as u32, |at, t| {
            let next = wh.col_ref(&format!("T{t}"), "Next").unwrap();
            wh.column(next).get_int(at as usize).map(|k| k as u32)
        })
    }

    #[test]
    fn long_paths_use_precomposed_tails_or_compose_on_the_spot() {
        // The tail of a path of up to MAX_PATH_LEN edges is pre-composed;
        // one more hop leaves a tail one edge too long for that.
        for hops in [3, MAX_PATH_LEN, MAX_PATH_LEN + 1] {
            let wh = chain(hops);
            let idx = JoinIndex::build(&wh);
            let fact = wh.schema().fact_table();
            let edges = (0..hops as u32).map(EdgeId).collect();
            let path = JoinPath::new(wh.schema(), fact, edges).unwrap();
            assert_eq!(
                idx.tails.contains_key(&path.edges()[1..]),
                hops <= MAX_PATH_LEN
            );
            let mapper = idx.row_mapper(&path);
            for row in 0..3 {
                assert_eq!(mapper.get(row), walk_chain(&wh, hops, row), "{hops} hops");
            }
            // Down the same tail: every subset of the target's three rows.
            for picked in 0..8u32 {
                let targets = (0..3).filter(|t| picked >> t & 1 == 1);
                let reaching = idx
                    .rows_reaching(&path, &RowSet::from_rows(3, targets))
                    .unwrap();
                let want: Vec<usize> = (0..3)
                    .filter(|&r| walk_chain(&wh, hops, r).is_some_and(|t| picked >> t & 1 == 1))
                    .collect();
                assert_eq!(reaching.iter().collect::<Vec<_>>(), want, "{hops} hops");
            }
            if hops <= MAX_PATH_LEN {
                let again = idx.row_mapper(&path);
                assert!(Arc::ptr_eq(
                    mapper.tail.as_ref().unwrap(),
                    again.tail.as_ref().unwrap()
                ));
            }
        }
    }

    #[test]
    fn rows_reaching_rejects_a_set_over_the_wrong_universe() {
        let wh = snowflake();
        let idx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let outer = wh.table_id("OUTER").unwrap();
        let path = paths_between(wh.schema(), fact, outer, 4).remove(0);
        let outer_rows = wh.table(outer).nrows();
        assert_eq!(
            idx.rows_reaching(&path, &RowSet::full(outer_rows))
                .unwrap()
                .len(),
            4
        );
        // One row too wide, one too narrow: typed errors, not an index
        // panic in the mask.
        for universe in [outer_rows + 1, outer_rows - 1] {
            let err = idx
                .rows_reaching(&path, &RowSet::full(universe))
                .unwrap_err();
            assert_eq!(
                err,
                QueryError::UniverseMismatch {
                    left: universe,
                    right: outer_rows
                }
            );
        }
    }

    #[test]
    fn try_eval_rejects_off_path_attr() {
        let wh = snowflake();
        let idx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let outer = wh.table_id("OUTER").unwrap();
        let path = paths_between(wh.schema(), fact, outer, 4).remove(0);
        // DIM attribute, but the path targets OUTER.
        let attr = wh.col_ref("DIM", "Name").unwrap();
        let sel = Selection::by_codes(path, attr, vec![0]);
        let err = sel.try_eval(&wh, &idx, fact).unwrap_err();
        assert!(matches!(err, QueryError::AttrOffPathTarget { .. }));
    }

    #[test]
    fn empty_selection_yields_empty_set() {
        let wh = snowflake();
        let idx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let dim = wh.table_id("DIM").unwrap();
        let path = paths_between(wh.schema(), fact, dim, 4).remove(0);
        let attr = wh.col_ref("DIM", "Name").unwrap();
        let sel = Selection::by_codes(path, attr, vec![]);
        assert!(sel.try_eval(&wh, &idx, fact).unwrap().is_empty());
    }
}
