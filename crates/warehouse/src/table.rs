//! Tables: named collections of equal-length columns.

use std::collections::HashMap;

use crate::column::{Cell, Column};
use crate::error::WarehouseError;
use crate::value::{Value, ValueType};

/// A single table (fact, dimension, or outrigger).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    col_lookup: HashMap<String, usize>,
    nrows: usize,
}

impl Table {
    /// Creates an empty table with the given column definitions
    /// `(name, type, full-text searchable)`.
    pub fn new(
        name: impl Into<String>,
        cols: &[(&str, ValueType, bool)],
    ) -> Result<Self, WarehouseError> {
        let name = name.into();
        let mut columns = Vec::with_capacity(cols.len());
        let mut col_lookup = HashMap::with_capacity(cols.len());
        for (i, (cname, ty, searchable)) in cols.iter().enumerate() {
            if col_lookup.insert((*cname).to_string(), i).is_some() {
                return Err(WarehouseError::DuplicateName(format!("{name}.{cname}")));
            }
            columns.push(Column::new(*cname, *ty, *searchable));
        }
        Ok(Table {
            name,
            columns,
            col_lookup,
            nrows: 0,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// Number of full-text searchable (string) columns.
    pub fn n_searchable(&self) -> usize {
        self.columns.iter().filter(|c| c.is_searchable()).count()
    }

    /// Resolves a column name to its index.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.col_lookup.get(name).copied()
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, WarehouseError> {
        self.col_index(name)
            .map(|i| &self.columns[i])
            .ok_or_else(|| WarehouseError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_string(),
            })
    }

    /// All columns in definition order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Appends one row; the value count must match the column count.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), WarehouseError> {
        self.push_cells(row.iter().map(Cell::from))
    }

    /// Appends one row of typed cells, one per column.
    pub(crate) fn push_cells<'a>(
        &mut self,
        row: impl ExactSizeIterator<Item = Cell<'a>>,
    ) -> Result<(), WarehouseError> {
        if row.len() != self.columns.len() {
            return Err(WarehouseError::ArityMismatch {
                table: self.name.clone(),
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (col, cell) in self.columns.iter_mut().zip(row) {
            col.push_cell(&cell)?;
        }
        self.nrows += 1;
        Ok(())
    }

    /// Reads a full row back as values (mostly for tests and display).
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    /// Seals partially-filled column chunks and trims spare capacity.
    /// Called once when a warehouse build completes.
    pub fn freeze(&mut self) {
        for c in &mut self.columns {
            c.freeze();
        }
    }

    /// Heap bytes held by this table's compressed column storage, summed
    /// from per-column chunk metadata.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(Column::heap_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "STORE",
            &[
                ("StoreKey", ValueType::Int, false),
                ("StoreName", ValueType::Str, true),
                ("SqFt", ValueType::Float, false),
            ],
        )
        .unwrap();
        t.push_row(vec![1i64.into(), "Downtown".into(), 1200.0.into()])
            .unwrap();
        t.push_row(vec![2i64.into(), "Mall".into(), Value::Null])
            .unwrap();
        t
    }

    #[test]
    fn construction_and_lookup() {
        let t = sample();
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.ncols(), 3);
        assert_eq!(t.n_searchable(), 1);
        assert_eq!(t.col_index("SqFt"), Some(2));
        assert!(t.col_index("Nope").is_none());
        assert!(t.column_by_name("Nope").is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = sample();
        let err = t.push_row(vec![3i64.into()]).unwrap_err();
        assert!(matches!(err, WarehouseError::ArityMismatch { got: 1, .. }));
        // The failed push must not have changed the row count.
        assert_eq!(t.nrows(), 2);
    }

    #[test]
    fn duplicate_column_rejected() {
        let r = Table::new(
            "T",
            &[("A", ValueType::Int, false), ("A", ValueType::Int, false)],
        );
        assert!(matches!(r, Err(WarehouseError::DuplicateName(_))));
    }

    #[test]
    fn row_roundtrip() {
        let t = sample();
        let row = t.row(0);
        assert_eq!(row[0].as_int(), Some(1));
        assert_eq!(row[1].as_str(), Some("Downtown"));
        assert_eq!(row[2].as_float(), Some(1200.0));
        assert!(t.row(1)[2].is_null());
    }
}
