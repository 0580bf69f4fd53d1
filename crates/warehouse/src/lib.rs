//! # kdap-warehouse
//!
//! In-memory columnar star/snowflake warehouse engine — the RDBMS substrate
//! for the KDAP reproduction (Wu, Sismanis, Reinwald: *Towards
//! Keyword-Driven Analytical Processing*, SIGMOD 2007).
//!
//! The engine stores typed, dictionary-encoded columns, and a schema graph
//! of foreign-key edges with role labels (for self-join roles such as the
//! EBiz Buyer/Seller accounts), dimensions, multi-level hierarchies and
//! measures. Dictionary encoding doubles as the source of *attribute
//! instance* virtual documents for the full-text index (paper §3).
//!
//! ```
//! use kdap_warehouse::{WarehouseBuilder, ValueType, AttrKind};
//!
//! let mut b = WarehouseBuilder::new();
//! b.table("SALES", &[
//!     ("Id", ValueType::Int, false),
//!     ("ProductKey", ValueType::Int, false),
//!     ("Qty", ValueType::Int, false),
//!     ("UnitPrice", ValueType::Float, false),
//! ]).unwrap();
//! b.table("PRODUCT", &[
//!     ("ProductKey", ValueType::Int, false),
//!     ("Name", ValueType::Str, true),
//!     ("Category", ValueType::Str, true),
//! ]).unwrap();
//! b.row("PRODUCT", vec![1i64.into(), "Mountain-200".into(), "Bikes".into()]).unwrap();
//! b.row("SALES", vec![1i64.into(), 1i64.into(), 2i64.into(), 2300.0.into()]).unwrap();
//! b.edge("SALES.ProductKey", "PRODUCT.ProductKey", None, Some("Product")).unwrap();
//! b.dimension("Product", &["PRODUCT"],
//!     vec![("Cat", vec!["PRODUCT.Category", "PRODUCT.Name"])],
//!     vec![("PRODUCT.Category", AttrKind::Categorical)]).unwrap();
//! b.fact("SALES").unwrap();
//! b.measure_product("Revenue", "SALES.UnitPrice", "SALES.Qty").unwrap();
//! let wh = b.finish().unwrap();
//! assert_eq!(wh.fact_rows(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod builder;
pub mod catalog;
pub mod chunk;
pub mod column;
pub mod csv;
pub mod describe;
pub mod error;
pub mod kernel;
pub mod keys;
pub mod schema;
pub mod spec;
pub mod stats;
pub mod table;
pub mod value;

pub use builder::WarehouseBuilder;
pub use catalog::Warehouse;
pub use chunk::{NullableVec, PackedCodes, PackedInts, CHUNK_ROWS};
pub use column::{Column, ColumnData, StrDict};
pub use csv::{export_table, load_csv_table};
pub use describe::describe;
pub use error::WarehouseError;
pub use kernel::NULL_CODE;
pub use keys::KeyRows;
pub use schema::{
    AttrKind, ColRef, DimId, Dimension, EdgeId, FkEdge, GroupByCandidate, Hierarchy, Measure,
    MeasureExpr, Schema, TableId,
};
pub use spec::{export_spec, load_spec, load_warehouse, save_warehouse};
pub use stats::{summarize, ColumnStats, ColumnSummary, TableSummary, WarehouseSummary};
pub use table::Table;
pub use value::{Value, ValueType};
