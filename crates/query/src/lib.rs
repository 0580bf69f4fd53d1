//! # kdap-query
//!
//! Star-join execution over the KDAP warehouse: semi-join propagation of
//! hit-group selections down to fact-row bitmaps, fact→dimension row
//! mapping, and group-by aggregation over categorical and bucketized
//! numerical domains. These are the primitives behind subspace
//! materialization and facet construction in the KDAP core.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod aggregate_multi;
pub mod bitmap;
pub mod error;
pub mod exec;
pub mod govern;
pub mod path;
pub mod plan;
pub mod semijoin;

pub use aggregate::{AggFunc, Bucketizer, Fold};
pub use aggregate_multi::{
    multi_group_by_exec, FacetGroups, FacetSpec, GroupStats, JoinedColumn, MeasureVector,
    DENSE_GROUP_LIMIT,
};
pub use bitmap::{ContainerHistogram, RowSet};
pub use error::QueryError;
pub use exec::{chunk_ranges, par_map, ExecConfig};
pub use govern::{Breach, QueryContext};
pub use kdap_warehouse::kernel;
pub use path::{fact_paths_by_table, paths_between, JoinPath, MAX_PATH_LEN};
pub use plan::{and_selections, Fingerprint, SemijoinCache};
pub use semijoin::{JoinIndex, Predicate, RowMapper, Selection};
