//! Fluent construction and validation of a [`Warehouse`].
//!
//! Tables, rows, edges, dimensions, hierarchies, and measures are declared
//! by name; [`WarehouseBuilder::finish`] resolves all names, validates
//! types, checks referential integrity, and produces an immutable
//! [`Warehouse`].

use std::collections::HashMap;

use crate::catalog::Warehouse;
use crate::error::WarehouseError;
use crate::keys::KeyRows;
use crate::schema::{
    AttrKind, ColRef, DimId, Dimension, EdgeId, FkEdge, GroupByCandidate, Hierarchy, Measure,
    MeasureExpr, Schema, TableId,
};
use crate::table::Table;
use crate::value::{Value, ValueType};

struct EdgeSpec {
    child: String,
    parent: String,
    role: Option<String>,
    dimension: Option<String>,
}

struct DimSpec {
    name: String,
    tables: Vec<String>,
    /// `(hierarchy name, levels as "Table.Column", general → specific)`.
    hierarchies: Vec<(String, Vec<String>)>,
    /// `("Table.Column", kind)`.
    groupby: Vec<(String, AttrKind)>,
}

enum MeasureSpec {
    Column(String, String),
    Product(String, String, String),
}

/// Builder for [`Warehouse`]; see the crate docs for a usage example.
pub struct WarehouseBuilder {
    tables: Vec<Table>,
    table_lookup: HashMap<String, usize>,
    edges: Vec<EdgeSpec>,
    dims: Vec<DimSpec>,
    measures: Vec<MeasureSpec>,
    fact: Option<String>,
}

impl Default for WarehouseBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl WarehouseBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        WarehouseBuilder {
            tables: Vec::new(),
            table_lookup: HashMap::new(),
            edges: Vec::new(),
            dims: Vec::new(),
            measures: Vec::new(),
            fact: None,
        }
    }

    /// Declares a table with columns `(name, type, full-text searchable)`.
    pub fn table(
        &mut self,
        name: &str,
        cols: &[(&str, ValueType, bool)],
    ) -> Result<&mut Self, WarehouseError> {
        if self.table_lookup.contains_key(name) {
            return Err(WarehouseError::DuplicateName(name.to_string()));
        }
        let t = Table::new(name, cols)?;
        self.table_lookup
            .insert(name.to_string(), self.tables.len());
        self.tables.push(t);
        Ok(self)
    }

    fn table_index(&self, name: &str) -> Result<usize, WarehouseError> {
        let idx = self.table_lookup.get(name).copied();
        idx.ok_or_else(|| WarehouseError::UnknownTable(name.to_string()))
    }

    /// The declared table `name`, for appending rows to it.
    pub(crate) fn table_mut(&mut self, name: &str) -> Result<&mut Table, WarehouseError> {
        let idx = self.table_index(name)?;
        Ok(&mut self.tables[idx])
    }

    /// Appends one row to `table`.
    pub fn row(&mut self, table: &str, row: Vec<Value>) -> Result<&mut Self, WarehouseError> {
        self.table_mut(table)?.push_row(row)?;
        Ok(self)
    }

    /// Appends many rows to `table`.
    pub fn rows(
        &mut self,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<&mut Self, WarehouseError> {
        let t = self.table_mut(table)?;
        for row in rows {
            t.push_row(row)?;
        }
        Ok(self)
    }

    /// Declares a foreign-key edge `child → parent`, both as
    /// `"Table.Column"`. `role` disambiguates multiple edges between the
    /// same tables; `dimension` tags the dimension entered via this edge.
    pub fn edge(
        &mut self,
        child: &str,
        parent: &str,
        role: Option<&str>,
        dimension: Option<&str>,
    ) -> Result<&mut Self, WarehouseError> {
        self.edges.push(EdgeSpec {
            child: child.to_string(),
            parent: parent.to_string(),
            role: role.map(str::to_string),
            dimension: dimension.map(str::to_string),
        });
        Ok(self)
    }

    /// Declares a dimension with member tables, hierarchies
    /// (`(name, [levels general→specific as "Table.Column"])`) and group-by
    /// candidates (`("Table.Column", kind)`).
    pub fn dimension(
        &mut self,
        name: &str,
        tables: &[&str],
        hierarchies: Vec<(&str, Vec<&str>)>,
        groupby: Vec<(&str, AttrKind)>,
    ) -> Result<&mut Self, WarehouseError> {
        self.dims.push(DimSpec {
            name: name.to_string(),
            tables: tables.iter().map(|s| s.to_string()).collect(),
            hierarchies: hierarchies
                .into_iter()
                .map(|(n, ls)| (n.to_string(), ls.into_iter().map(str::to_string).collect()))
                .collect(),
            groupby: groupby
                .into_iter()
                .map(|(c, k)| (c.to_string(), k))
                .collect(),
        });
        Ok(self)
    }

    /// Declares which table is the fact table.
    pub fn fact(&mut self, name: &str) -> Result<&mut Self, WarehouseError> {
        self.fact = Some(name.to_string());
        Ok(self)
    }

    /// Declares a measure that reads one fact column.
    pub fn measure_column(&mut self, name: &str, col: &str) -> Result<&mut Self, WarehouseError> {
        self.measures
            .push(MeasureSpec::Column(name.to_string(), col.to_string()));
        Ok(self)
    }

    /// Declares a measure that multiplies two fact columns
    /// (e.g. revenue = price × quantity).
    pub fn measure_product(
        &mut self,
        name: &str,
        a: &str,
        b: &str,
    ) -> Result<&mut Self, WarehouseError> {
        self.measures.push(MeasureSpec::Product(
            name.to_string(),
            a.to_string(),
            b.to_string(),
        ));
        Ok(self)
    }

    fn resolve_col(&self, qualified: &str) -> Result<ColRef, WarehouseError> {
        let (t, c) = qualified.split_once('.').ok_or_else(|| {
            WarehouseError::InvalidEdge(format!("expected Table.Column, got {qualified}"))
        })?;
        let tid = self.table_index(t)?;
        let cidx = self.tables[tid]
            .col_index(c)
            .ok_or_else(|| WarehouseError::UnknownColumn {
                table: t.to_string(),
                column: c.to_string(),
            })?;
        Ok(ColRef::new(TableId(tid as u32), cidx as u32))
    }

    fn col_type(&self, r: ColRef) -> ValueType {
        self.tables[r.table.0 as usize]
            .column(r.col as usize)
            .value_type()
    }

    /// Validates everything and produces the immutable warehouse.
    pub fn finish(self) -> Result<Warehouse, WarehouseError> {
        let fact_name = self.fact.clone().ok_or(WarehouseError::NoFactTable)?;
        let fact_table = TableId(self.table_index(&fact_name)? as u32);

        // Resolve dimensions first so edges can reference them by name.
        let mut dim_name_to_id = HashMap::new();
        let mut dimensions = Vec::with_capacity(self.dims.len());
        for (i, spec) in self.dims.iter().enumerate() {
            if dim_name_to_id
                .insert(spec.name.clone(), DimId(i as u32))
                .is_some()
            {
                return Err(WarehouseError::DuplicateName(spec.name.clone()));
            }
            let mut tables = Vec::with_capacity(spec.tables.len());
            for t in &spec.tables {
                tables.push(TableId(self.table_index(t)? as u32));
            }
            let mut hierarchies = Vec::with_capacity(spec.hierarchies.len());
            for (hname, levels) in &spec.hierarchies {
                if levels.is_empty() {
                    return Err(WarehouseError::InvalidHierarchy(format!(
                        "{hname} has no levels"
                    )));
                }
                let levels = levels
                    .iter()
                    .map(|l| self.resolve_col(l))
                    .collect::<Result<Vec<_>, _>>()?;
                hierarchies.push(Hierarchy {
                    name: hname.clone(),
                    levels,
                });
            }
            let mut groupby_candidates = Vec::with_capacity(spec.groupby.len());
            for (col, kind) in &spec.groupby {
                let attr = self.resolve_col(col)?;
                let ty = self.col_type(attr);
                if *kind == AttrKind::Numerical && ty == ValueType::Str {
                    return Err(WarehouseError::InvalidHierarchy(format!(
                        "group-by candidate {col} declared numerical but has type {ty}"
                    )));
                }
                groupby_candidates.push(GroupByCandidate { attr, kind: *kind });
            }
            dimensions.push(Dimension {
                id: DimId(i as u32),
                name: spec.name.clone(),
                tables,
                hierarchies,
                groupby_candidates,
            });
        }

        // Resolve edges.
        let mut edges = Vec::with_capacity(self.edges.len());
        for (i, spec) in self.edges.iter().enumerate() {
            let child = self.resolve_col(&spec.child)?;
            let parent = self.resolve_col(&spec.parent)?;
            if self.col_type(child) != ValueType::Int || self.col_type(parent) != ValueType::Int {
                return Err(WarehouseError::InvalidEdge(format!(
                    "{} → {} must join integer key columns",
                    spec.child, spec.parent
                )));
            }
            if child.table == parent.table {
                return Err(WarehouseError::InvalidEdge(format!(
                    "self-edge on table is not supported: {} → {}",
                    spec.child, spec.parent
                )));
            }
            let dimension = match &spec.dimension {
                Some(name) => Some(
                    *dim_name_to_id
                        .get(name)
                        .ok_or_else(|| WarehouseError::UnknownDimension(name.clone()))?,
                ),
                None => None,
            };
            edges.push(FkEdge {
                id: EdgeId(i as u32),
                child,
                parent,
                role: spec.role.clone(),
                dimension,
            });
        }

        // Referential integrity: a parent key identifies one row, and
        // every non-null child key must exist among the parent keys — so
        // each non-null FK resolves to exactly one parent row.
        for e in &edges {
            let parent_col = self.tables[e.parent.table.0 as usize].column(e.parent.col as usize);
            let parent_keys =
                KeyRows::build(parent_col).map_err(|key| WarehouseError::DuplicateKey {
                    column: self.edges[e.id.0 as usize].parent.clone(),
                    key,
                })?;
            let child_col = self.tables[e.child.table.0 as usize].column(e.child.col as usize);
            // The first child key, in row order, without a parent row.
            let mut missing = None;
            child_col.for_each_int(|_, k| {
                if let Some(k) = k {
                    if missing.is_none() && parent_keys.get(k).is_none() {
                        missing = Some(k);
                    }
                }
            });
            if let Some(missing_key) = missing {
                return Err(WarehouseError::BrokenForeignKey {
                    edge: format!(
                        "{} → {}",
                        self.edges[e.id.0 as usize].child, self.edges[e.id.0 as usize].parent
                    ),
                    missing_key,
                });
            }
        }

        // Adjacency lists.
        let n = self.tables.len();
        let mut edges_by_child = vec![Vec::new(); n];
        for e in &edges {
            edges_by_child[e.child.table.0 as usize].push(e.id);
        }

        // Measures must read fact columns.
        let mut measures = Vec::with_capacity(self.measures.len());
        for spec in &self.measures {
            let (name, expr) = match spec {
                MeasureSpec::Column(name, c) => {
                    let c = self.resolve_col(c)?;
                    (name.clone(), MeasureExpr::Column(c))
                }
                MeasureSpec::Product(name, a, b) => {
                    let a = self.resolve_col(a)?;
                    let b = self.resolve_col(b)?;
                    (name.clone(), MeasureExpr::Product(a, b))
                }
            };
            let cols = match &expr {
                MeasureExpr::Column(c) => vec![*c],
                MeasureExpr::Product(a, b) => vec![*a, *b],
            };
            for c in cols {
                if c.table != fact_table {
                    return Err(WarehouseError::InvalidEdge(format!(
                        "measure {name} reads a non-fact column"
                    )));
                }
            }
            measures.push(Measure { name, expr });
        }

        // Seal partially-filled column chunks: the warehouse is immutable
        // from here on, so the packed representation becomes final.
        let mut tables = self.tables;
        for t in &mut tables {
            t.freeze();
        }

        Ok(Warehouse {
            tables,
            schema: Schema {
                fact_table,
                edges,
                dimensions,
                measures,
                edges_by_child,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WarehouseBuilder {
        let mut b = WarehouseBuilder::new();
        b.table(
            "FACT",
            &[
                ("Id", ValueType::Int, false),
                ("PKey", ValueType::Int, false),
                ("Amount", ValueType::Float, false),
            ],
        )
        .unwrap();
        b.table(
            "P",
            &[
                ("PKey", ValueType::Int, false),
                ("Name", ValueType::Str, true),
            ],
        )
        .unwrap();
        b.row("P", vec![1i64.into(), "a".into()]).unwrap();
        b.row("FACT", vec![1i64.into(), 1i64.into(), 2.0.into()])
            .unwrap();
        b.edge("FACT.PKey", "P.PKey", None, Some("Product"))
            .unwrap();
        b.dimension("Product", &["P"], vec![], vec![]).unwrap();
        b.fact("FACT").unwrap();
        b
    }

    #[test]
    fn happy_path_builds() {
        let wh = base().finish().unwrap();
        assert_eq!(wh.fact_rows(), 1);
        assert_eq!(wh.schema().edges().len(), 1);
        assert_eq!(wh.schema().dimensions().len(), 1);
    }

    #[test]
    fn missing_fact_table_rejected() {
        let mut b = WarehouseBuilder::new();
        b.table("T", &[("A", ValueType::Int, false)]).unwrap();
        assert!(matches!(b.finish(), Err(WarehouseError::NoFactTable)));
    }

    #[test]
    fn broken_fk_detected() {
        let mut b = base();
        // Fact row pointing at a product key that does not exist.
        b.row("FACT", vec![2i64.into(), 99i64.into(), 1.0.into()])
            .unwrap();
        assert!(matches!(
            b.finish(),
            Err(WarehouseError::BrokenForeignKey {
                missing_key: 99,
                ..
            })
        ));
    }

    #[test]
    fn duplicate_parent_key_detected() {
        let mut b = base();
        // A second product row reusing key 1: FACT.PKey = 1 would join to
        // two rows.
        b.row("P", vec![1i64.into(), "Twin".into()]).unwrap();
        assert_eq!(
            b.finish().unwrap_err(),
            WarehouseError::DuplicateKey {
                column: "P.PKey".into(),
                key: 1,
            }
        );
    }

    #[test]
    fn non_integer_edge_rejected() {
        let mut b = base();
        b.edge("FACT.Amount", "P.PKey", None, None).unwrap();
        assert!(matches!(b.finish(), Err(WarehouseError::InvalidEdge(_))));
    }

    #[test]
    fn unknown_dimension_on_edge_rejected() {
        let mut b = base();
        b.edge("FACT.PKey", "P.PKey", Some("Other"), Some("Nope"))
            .unwrap();
        assert!(matches!(
            b.finish(),
            Err(WarehouseError::UnknownDimension(_))
        ));
    }

    #[test]
    fn measure_must_be_on_fact() {
        let mut b = base();
        b.measure_column("Bad", "P.PKey").unwrap();
        assert!(b.finish().is_err());
    }

    #[test]
    fn numerical_groupby_on_string_rejected() {
        let mut b = base();
        b.dimension(
            "Product2",
            &["P"],
            vec![],
            vec![("P.Name", AttrKind::Numerical)],
        )
        .unwrap();
        assert!(b.finish().is_err());
    }

    #[test]
    fn hierarchy_resolution() {
        let mut b = WarehouseBuilder::new();
        b.table(
            "FACT",
            &[
                ("Id", ValueType::Int, false),
                ("GKey", ValueType::Int, false),
            ],
        )
        .unwrap();
        b.table(
            "GEO",
            &[
                ("GKey", ValueType::Int, false),
                ("Country", ValueType::Str, true),
                ("State", ValueType::Str, true),
                ("City", ValueType::Str, true),
            ],
        )
        .unwrap();
        b.row(
            "GEO",
            vec![1i64.into(), "US".into(), "CA".into(), "San Jose".into()],
        )
        .unwrap();
        b.row("FACT", vec![1i64.into(), 1i64.into()]).unwrap();
        b.edge("FACT.GKey", "GEO.GKey", None, Some("Geo")).unwrap();
        b.dimension(
            "Geo",
            &["GEO"],
            vec![("Location", vec!["GEO.Country", "GEO.State", "GEO.City"])],
            vec![("GEO.State", AttrKind::Categorical)],
        )
        .unwrap();
        b.fact("FACT").unwrap();
        let wh = b.finish().unwrap();
        let dim = wh.schema().dimension_by_name("Geo").unwrap();
        assert_eq!(dim.hierarchies.len(), 1);
        let state = wh.col_ref("GEO", "State").unwrap();
        let country = wh.col_ref("GEO", "Country").unwrap();
        let h = dim.hierarchy_containing(state).unwrap();
        assert_eq!(h.parent_level(state), Some(country));
    }
}
