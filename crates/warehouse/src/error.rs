//! Error types for the warehouse engine.

use std::fmt;

use crate::value::ValueType;

/// Errors raised while building or querying a warehouse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarehouseError {
    /// A value of the wrong type was appended to a column.
    TypeMismatch {
        /// `Table.Column` the value was pushed into.
        column: String,
        /// The column's declared type.
        expected: ValueType,
        /// The offending value's type (`None` for NULL).
        got: Option<ValueType>,
    },
    /// A table name was not found in the catalog.
    UnknownTable(String),
    /// A column name was not found in a table.
    UnknownColumn {
        /// The table searched.
        table: String,
        /// The missing column name.
        column: String,
    },
    /// A dimension name was not found.
    UnknownDimension(String),
    /// A row was appended with the wrong number of values.
    ArityMismatch {
        /// The target table.
        table: String,
        /// The table's column count.
        expected: usize,
        /// The number of values supplied.
        got: usize,
    },
    /// Two tables or two columns share a name.
    DuplicateName(String),
    /// A foreign-key edge refers to columns of incompatible types or a
    /// missing table/column.
    InvalidEdge(String),
    /// The schema has no fact table configured.
    NoFactTable,
    /// A hierarchy level list is empty or spans an unknown column.
    InvalidHierarchy(String),
    /// Referential integrity violation detected at build time.
    BrokenForeignKey {
        /// The violated edge, as `child → parent`.
        edge: String,
        /// A child key with no matching parent row.
        missing_key: i64,
    },
    /// A non-null key repeats in the parent column of a foreign-key edge.
    DuplicateKey {
        /// The parent key column, as `Table.Column`.
        column: String,
        /// The repeated key.
        key: i64,
    },
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::TypeMismatch {
                column,
                expected,
                got,
            } => match got {
                Some(got) => write!(
                    f,
                    "type mismatch on column {column}: expected {expected}, got {got}"
                ),
                None => write!(
                    f,
                    "type mismatch on column {column}: expected {expected}, got NULL"
                ),
            },
            WarehouseError::UnknownTable(t) => write!(f, "unknown table {t}"),
            WarehouseError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column}")
            }
            WarehouseError::UnknownDimension(d) => write!(f, "unknown dimension {d}"),
            WarehouseError::ArityMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "row arity mismatch on table {table}: expected {expected} values, got {got}"
            ),
            WarehouseError::DuplicateName(n) => write!(f, "duplicate name {n}"),
            WarehouseError::InvalidEdge(e) => write!(f, "invalid foreign-key edge: {e}"),
            WarehouseError::NoFactTable => write!(f, "schema has no fact table"),
            WarehouseError::InvalidHierarchy(h) => write!(f, "invalid hierarchy: {h}"),
            WarehouseError::BrokenForeignKey { edge, missing_key } => write!(
                f,
                "broken foreign key on edge {edge}: key {missing_key} has no parent row"
            ),
            WarehouseError::DuplicateKey { column, key } => {
                write!(f, "duplicate key in parent column {column}: {key} repeats")
            }
        }
    }
}

impl std::error::Error for WarehouseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = WarehouseError::UnknownColumn {
            table: "TRANS".into(),
            column: "Nope".into(),
        };
        assert_eq!(e.to_string(), "unknown column TRANS.Nope");
        let e = WarehouseError::TypeMismatch {
            column: "qty".into(),
            expected: ValueType::Int,
            got: None,
        };
        assert!(e.to_string().contains("got NULL"));
    }
}
