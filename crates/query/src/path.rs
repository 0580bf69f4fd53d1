//! Join paths through the schema graph.
//!
//! A [`JoinPath`] is an ordered sequence of FK edges walked *child →
//! parent*, starting at some origin table (usually the fact table) and
//! ending at a target table. Two distinct edge sequences reaching the same
//! table are distinct semantic interpretations — this is exactly the
//! paper's *join path ambiguity* ("Columbus" as store city vs. buyer city
//! vs. seller city), and implicitly provides the table aliasing that
//! Algorithm 1 requires.

use std::collections::HashMap;

use kdap_warehouse::{DimId, EdgeId, Schema, TableId, Warehouse};

/// An ordered chain of FK edges from an origin table out to a target.
///
/// The empty path refers to the origin table itself (hit groups on the
/// fact table select fact points directly — §4.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JoinPath {
    edges: Vec<EdgeId>,
}

impl JoinPath {
    /// The empty path (target = origin).
    pub fn empty() -> Self {
        JoinPath { edges: Vec::new() }
    }

    /// Builds a path from edges, validating the chain against `schema`:
    /// each edge's child table must be the previous edge's parent table.
    pub fn new(schema: &Schema, origin: TableId, edges: Vec<EdgeId>) -> Option<Self> {
        let mut at = origin;
        for &e in &edges {
            let edge = schema.edge(e);
            if edge.child.table != at {
                return None;
            }
            at = edge.parent.table;
        }
        Some(JoinPath { edges })
    }

    /// The edges of the path.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Path length in edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True for the empty path.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The table the path ends at, given its origin.
    pub fn target_table(&self, schema: &Schema, origin: TableId) -> TableId {
        self.edges
            .last()
            .map(|&e| schema.edge(e).parent.table)
            .unwrap_or(origin)
    }

    /// All tables visited, origin first.
    pub fn tables(&self, schema: &Schema, origin: TableId) -> Vec<TableId> {
        let mut out = vec![origin];
        for &e in &self.edges {
            out.push(schema.edge(e).parent.table);
        }
        out
    }

    /// The dimension this path enters: the first edge dimension tag
    /// walking outward from the origin.
    pub fn dimension(&self, schema: &Schema) -> Option<DimId> {
        self.edges.iter().find_map(|&e| schema.edge(e).dimension)
    }

    /// Concatenates `self` with a continuation path starting at this
    /// path's target.
    pub fn extend(&self, tail: &JoinPath) -> JoinPath {
        let mut edges = self.edges.clone();
        edges.extend_from_slice(&tail.edges);
        JoinPath { edges }
    }

    /// Human-readable rendering, e.g.
    /// `TRANS →(Buyer) ACCOUNT → CUSTOMER`.
    pub fn display(&self, wh: &Warehouse, origin: TableId) -> String {
        let mut s = String::new();
        self.write_display(wh, origin, &mut s);
        s
    }

    /// Appends [`JoinPath::display`]'s rendering to `out`.
    pub fn write_display(&self, wh: &Warehouse, origin: TableId, out: &mut String) {
        let schema = wh.schema();
        out.push_str(wh.table(origin).name());
        for &e in &self.edges {
            let edge = schema.edge(e);
            match &edge.role {
                Some(r) => {
                    out.push_str(" →(");
                    out.push_str(r);
                    out.push_str(") ");
                }
                None => out.push_str(" → "),
            }
            out.push_str(wh.table(edge.parent.table).name());
        }
    }
}

/// Default bound on path length; real snowflake schemata are shallow and
/// this guards against pathological schema graphs.
pub const MAX_PATH_LEN: usize = 8;

/// Enumerates every simple join path from `origin` to `target`, walking
/// child → parent edges, up to `max_len` edges.
///
/// Distinct edges between the same tables (role-tagged self-join edges
/// like Buyer/Seller) produce distinct paths.
pub fn paths_between(
    schema: &Schema,
    origin: TableId,
    target: TableId,
    max_len: usize,
) -> Vec<JoinPath> {
    paths_from(schema, origin, max_len)
        .remove(&target)
        .unwrap_or_default()
}

/// Enumerates all join paths from the fact table to every reachable table.
///
/// This is the index the candidate-generation phase (Algorithm 1, line 6)
/// probes: "for each hit group, find all the join paths connecting to the
/// fact table".
pub fn fact_paths_by_table(schema: &Schema, max_len: usize) -> HashMap<TableId, Vec<JoinPath>> {
    paths_from(schema, schema.fact_table(), max_len)
}

/// Every simple join path of up to `max_len` edges leaving `origin`,
/// sorted, by the table it ends at; `origin` itself is reached by the
/// empty path.
pub(crate) fn paths_from(
    schema: &Schema,
    origin: TableId,
    max_len: usize,
) -> HashMap<TableId, Vec<JoinPath>> {
    let mut out: HashMap<TableId, Vec<JoinPath>> = HashMap::new();
    out.entry(origin).or_default().push(JoinPath::empty());
    let mut stack = Vec::new();
    let mut visited = vec![origin];
    collect_all(schema, origin, max_len, &mut stack, &mut visited, &mut out);
    for paths in out.values_mut() {
        paths.sort();
    }
    out
}

fn collect_all(
    schema: &Schema,
    at: TableId,
    max_len: usize,
    stack: &mut Vec<EdgeId>,
    visited: &mut Vec<TableId>,
    out: &mut HashMap<TableId, Vec<JoinPath>>,
) {
    if stack.len() >= max_len {
        return;
    }
    for &eid in schema.edges_from_child(at) {
        let edge = schema.edge(eid);
        let next = edge.parent.table;
        // Simple paths only: a table appears at most once per path.
        if visited.contains(&next) {
            continue;
        }
        stack.push(eid);
        out.entry(next).or_default().push(JoinPath {
            edges: stack.clone(),
        });
        visited.push(next);
        collect_all(schema, next, max_len, stack, visited, out);
        visited.pop();
        stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdap_warehouse::{ValueType, WarehouseBuilder};

    /// A miniature EBiz-style schema:
    /// ITEM(fact) → TRANS → STORE → LOC
    ///                  ↘(Buyer) ACCT → CUST → LOC
    ///                  ↘(Seller) ACCT
    /// ITEM → PROD
    fn ebiz_mini() -> Warehouse {
        let mut b = WarehouseBuilder::new();
        b.table(
            "ITEM",
            &[
                ("Id", ValueType::Int, false),
                ("TKey", ValueType::Int, false),
                ("PKey", ValueType::Int, false),
            ],
        )
        .unwrap();
        b.table(
            "TRANS",
            &[
                ("TKey", ValueType::Int, false),
                ("SKey", ValueType::Int, false),
                ("BuyerKey", ValueType::Int, false),
                ("SellerKey", ValueType::Int, false),
            ],
        )
        .unwrap();
        b.table(
            "STORE",
            &[
                ("SKey", ValueType::Int, false),
                ("LKey", ValueType::Int, false),
            ],
        )
        .unwrap();
        b.table(
            "ACCT",
            &[
                ("AKey", ValueType::Int, false),
                ("CKey", ValueType::Int, false),
            ],
        )
        .unwrap();
        b.table(
            "CUST",
            &[
                ("CKey", ValueType::Int, false),
                ("LKey", ValueType::Int, false),
            ],
        )
        .unwrap();
        b.table(
            "LOC",
            &[
                ("LKey", ValueType::Int, false),
                ("City", ValueType::Str, true),
            ],
        )
        .unwrap();
        b.table(
            "PROD",
            &[
                ("PKey", ValueType::Int, false),
                ("Name", ValueType::Str, true),
            ],
        )
        .unwrap();
        b.edge("ITEM.TKey", "TRANS.TKey", None, None).unwrap();
        b.edge("ITEM.PKey", "PROD.PKey", None, Some("Product"))
            .unwrap();
        b.edge("TRANS.SKey", "STORE.SKey", None, Some("Store"))
            .unwrap();
        b.edge(
            "TRANS.BuyerKey",
            "ACCT.AKey",
            Some("Buyer"),
            Some("Customer"),
        )
        .unwrap();
        b.edge(
            "TRANS.SellerKey",
            "ACCT.AKey",
            Some("Seller"),
            Some("Customer"),
        )
        .unwrap();
        b.edge("STORE.LKey", "LOC.LKey", None, None).unwrap();
        b.edge("ACCT.CKey", "CUST.CKey", None, None).unwrap();
        b.edge("CUST.LKey", "LOC.LKey", None, None).unwrap();
        b.dimension("Product", &["PROD"], vec![], vec![]).unwrap();
        b.dimension("Store", &["STORE", "LOC"], vec![], vec![])
            .unwrap();
        b.dimension("Customer", &["ACCT", "CUST", "LOC"], vec![], vec![])
            .unwrap();
        b.fact("ITEM").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn three_paths_reach_the_shared_location_table() {
        let wh = ebiz_mini();
        let fact = wh.schema().fact_table();
        let loc = wh.table_id("LOC").unwrap();
        let paths = paths_between(wh.schema(), fact, loc, MAX_PATH_LEN);
        // Store city, buyer city, seller city.
        assert_eq!(paths.len(), 3);
        let rendered: Vec<String> = paths.iter().map(|p| p.display(&wh, fact)).collect();
        assert!(rendered.iter().any(|s| s.contains("STORE")));
        assert!(rendered.iter().any(|s| s.contains("(Buyer)")));
        assert!(rendered.iter().any(|s| s.contains("(Seller)")));
    }

    #[test]
    fn path_dimension_comes_from_first_tagged_edge() {
        let wh = ebiz_mini();
        let fact = wh.schema().fact_table();
        let loc = wh.table_id("LOC").unwrap();
        let paths = paths_between(wh.schema(), fact, loc, MAX_PATH_LEN);
        let store_dim = wh.schema().dimension_by_name("Store").unwrap().id;
        let cust_dim = wh.schema().dimension_by_name("Customer").unwrap().id;
        let dims: Vec<_> = paths.iter().map(|p| p.dimension(wh.schema())).collect();
        assert_eq!(dims.iter().filter(|d| **d == Some(cust_dim)).count(), 2);
        assert_eq!(dims.iter().filter(|d| **d == Some(store_dim)).count(), 1);
    }

    #[test]
    fn fact_paths_cover_all_reachable_tables() {
        let wh = ebiz_mini();
        let by_table = fact_paths_by_table(wh.schema(), MAX_PATH_LEN);
        assert_eq!(by_table.len(), 7, "all tables reachable");
        let fact = wh.schema().fact_table();
        assert_eq!(by_table[&fact], vec![JoinPath::empty()]);
        let acct = wh.table_id("ACCT").unwrap();
        assert_eq!(by_table[&acct].len(), 2, "buyer and seller role paths");
    }

    #[test]
    fn target_and_tables() {
        let wh = ebiz_mini();
        let fact = wh.schema().fact_table();
        let prod = wh.table_id("PROD").unwrap();
        let p = &paths_between(wh.schema(), fact, prod, MAX_PATH_LEN)[0];
        assert_eq!(p.target_table(wh.schema(), fact), prod);
        assert_eq!(p.tables(wh.schema(), fact), vec![fact, prod]);
        assert_eq!(JoinPath::empty().target_table(wh.schema(), fact), fact);
    }

    #[test]
    fn new_validates_chain() {
        let wh = ebiz_mini();
        let fact = wh.schema().fact_table();
        let e_item_trans = wh.schema().edges()[0].id;
        let e_store_loc = wh.schema().edges()[5].id;
        assert!(JoinPath::new(wh.schema(), fact, vec![e_item_trans]).is_some());
        // STORE.LKey edge cannot follow directly from the fact table.
        assert!(JoinPath::new(wh.schema(), fact, vec![e_store_loc]).is_none());
    }

    #[test]
    fn extend_concatenates() {
        let wh = ebiz_mini();
        let schema = wh.schema();
        let fact = schema.fact_table();
        let trans = wh.table_id("TRANS").unwrap();
        let store = wh.table_id("STORE").unwrap();
        let a = paths_between(schema, fact, trans, 4)[0].clone();
        let b = paths_between(schema, trans, store, 4)[0].clone();
        let ab = a.extend(&b);
        assert_eq!(ab.target_table(schema, fact), store);
        assert_eq!(ab.len(), 2);
    }

    #[test]
    fn max_len_bounds_search() {
        let wh = ebiz_mini();
        let fact = wh.schema().fact_table();
        let loc = wh.table_id("LOC").unwrap();
        let paths = paths_between(wh.schema(), fact, loc, 2);
        // LOC is 3 edges away on every route.
        assert!(paths.is_empty());
    }
}
