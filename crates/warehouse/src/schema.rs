//! Star/snowflake schema metadata: table/column references, foreign-key
//! edges, dimensions, hierarchies, and measures.
//!
//! The schema graph drives two KDAP phases: join-path enumeration during
//! candidate star-net generation (paper §4.2, Algorithm 1) and roll-up
//! partitioning during facet construction (§5.2.1).

use std::fmt;

/// Identifier of a table within a warehouse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Identifier of a dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DimId(pub u32);

/// Identifier of a foreign-key edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// A reference to one column of one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColRef {
    /// The owning table.
    pub table: TableId,
    /// Column index within the table.
    pub col: u32,
}

impl ColRef {
    /// Builds a reference from its parts.
    pub fn new(table: TableId, col: u32) -> Self {
        ColRef { table, col }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}#c{}", self.table.0, self.col)
    }
}

/// One foreign-key edge `child.fk → parent.pk`.
///
/// The `role` distinguishes multiple edges between the same pair of tables
/// (e.g. `TRANS.BuyerKey → ACCOUNT` vs `TRANS.SellerKey → ACCOUNT` in the
/// paper's EBiz schema). The `dimension` tag, when present, names the
/// dimension a join path enters when it traverses this edge; paths inherit
/// the first tag seen walking out from the fact table.
#[derive(Debug, Clone)]
pub struct FkEdge {
    /// Stable identifier of the edge.
    pub id: EdgeId,
    /// The FK side (e.g. `TRANS.BuyerKey`).
    pub child: ColRef,
    /// The PK side (e.g. `ACCOUNT.AccountKey`).
    pub parent: ColRef,
    /// Distinguishes multiple edges between the same tables.
    pub role: Option<String>,
    /// The dimension a join path enters when traversing this edge.
    pub dimension: Option<DimId>,
}

/// An aggregation hierarchy: an ordered list of level columns from the most
/// general (index 0, e.g. `Country`) to the most specific (e.g. `City`).
/// Levels may live in different tables connected by FK edges (snowflake),
/// or in a single denormalized table.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Hierarchy name (e.g. `UNSPSC`).
    pub name: String,
    /// Most general level first.
    pub levels: Vec<ColRef>,
}

impl Hierarchy {
    /// Position of `col` among the levels, if it is a level.
    pub fn level_of(&self, col: ColRef) -> Option<usize> {
        self.levels.iter().position(|&l| l == col)
    }

    /// The parent (next more general) level of `col`, if any.
    pub fn parent_level(&self, col: ColRef) -> Option<ColRef> {
        match self.level_of(col) {
            Some(0) | None => None,
            Some(i) => Some(self.levels[i - 1]),
        }
    }
}

/// How a group-by candidate attribute partitions the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrKind {
    /// Distinct values form the categories directly.
    Categorical,
    /// The numeric domain is bucketized into basic intervals (§5.2.2).
    Numerical,
}

/// A candidate group-by attribute, registered per dimension.
///
/// The paper manually specifies group-by candidates (descriptions and IDs
/// make meaningless groups — §5.2.1); we mirror that with an explicit
/// registry.
#[derive(Debug, Clone)]
pub struct GroupByCandidate {
    /// The candidate attribute.
    pub attr: ColRef,
    /// Categorical or numerical partitioning.
    pub kind: AttrKind,
}

/// A logical dimension: a set of member tables plus hierarchies and
/// group-by candidates.
#[derive(Debug, Clone)]
pub struct Dimension {
    /// Stable identifier.
    pub id: DimId,
    /// Dimension name (e.g. `Customer`).
    pub name: String,
    /// Member tables, fact-adjacent first by convention.
    pub tables: Vec<TableId>,
    /// Aggregation hierarchies within the dimension.
    pub hierarchies: Vec<Hierarchy>,
    /// Attributes eligible as group-by facets (§5.2.1: manually
    /// specified; IDs and free text make meaningless groups).
    pub groupby_candidates: Vec<GroupByCandidate>,
}

impl Dimension {
    /// Finds the hierarchy (if any) having `col` as a level.
    pub fn hierarchy_containing(&self, col: ColRef) -> Option<&Hierarchy> {
        self.hierarchies.iter().find(|h| h.level_of(col).is_some())
    }
}

/// A measure definition over fact-table columns.
#[derive(Debug, Clone)]
pub enum MeasureExpr {
    /// The value of one fact column.
    Column(ColRef),
    /// The product of two fact columns (e.g. `UnitPrice * Quantity`,
    /// the paper's sales-revenue measure).
    Product(ColRef, ColRef),
}

/// A named measure.
#[derive(Debug, Clone)]
pub struct Measure {
    /// Measure name (e.g. `SalesRevenue`).
    pub name: String,
    /// How the per-fact value is computed.
    pub expr: MeasureExpr,
}

/// Complete schema metadata for one warehouse.
#[derive(Debug, Clone)]
pub struct Schema {
    pub(crate) fact_table: TableId,
    pub(crate) edges: Vec<FkEdge>,
    pub(crate) dimensions: Vec<Dimension>,
    pub(crate) measures: Vec<Measure>,
    /// For each table, outgoing edges (this table is the child).
    pub(crate) edges_by_child: Vec<Vec<EdgeId>>,
}

impl Schema {
    /// The fact table.
    pub fn fact_table(&self) -> TableId {
        self.fact_table
    }

    /// All foreign-key edges.
    pub fn edges(&self) -> &[FkEdge] {
        &self.edges
    }

    /// Edge by id.
    pub fn edge(&self, id: EdgeId) -> &FkEdge {
        &self.edges[id.0 as usize]
    }

    /// Edges whose child side is `table`.
    pub fn edges_from_child(&self, table: TableId) -> &[EdgeId] {
        &self.edges_by_child[table.0 as usize]
    }

    /// All dimensions.
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dimensions
    }

    /// Dimension by id.
    pub fn dimension(&self, id: DimId) -> &Dimension {
        &self.dimensions[id.0 as usize]
    }

    /// Dimension by name.
    pub fn dimension_by_name(&self, name: &str) -> Option<&Dimension> {
        self.dimensions.iter().find(|d| d.name == name)
    }

    /// The dimension(s) whose member tables include `table`.
    pub fn dimensions_of_table(&self, table: TableId) -> Vec<DimId> {
        self.dimensions
            .iter()
            .filter(|d| d.tables.contains(&table))
            .map(|d| d.id)
            .collect()
    }

    /// All measures.
    pub fn measures(&self) -> &[Measure] {
        &self.measures
    }

    /// Measure by name.
    pub fn measure_by_name(&self, name: &str) -> Option<&Measure> {
        self.measures.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_levels_and_parents() {
        let t = TableId(0);
        let h = Hierarchy {
            name: "Geo".into(),
            levels: vec![ColRef::new(t, 0), ColRef::new(t, 1), ColRef::new(t, 2)],
        };
        assert_eq!(h.level_of(ColRef::new(t, 1)), Some(1));
        assert_eq!(h.parent_level(ColRef::new(t, 2)), Some(ColRef::new(t, 1)));
        assert_eq!(h.parent_level(ColRef::new(t, 0)), None);
        assert_eq!(h.parent_level(ColRef::new(t, 9)), None);
    }

    #[test]
    fn dimension_finds_hierarchy() {
        let t = TableId(3);
        let dim = Dimension {
            id: DimId(0),
            name: "Product".into(),
            tables: vec![t],
            hierarchies: vec![Hierarchy {
                name: "ProdLine".into(),
                levels: vec![ColRef::new(t, 1), ColRef::new(t, 2)],
            }],
            groupby_candidates: vec![],
        };
        assert!(dim.hierarchy_containing(ColRef::new(t, 2)).is_some());
        assert!(dim.hierarchy_containing(ColRef::new(t, 7)).is_none());
    }
}
