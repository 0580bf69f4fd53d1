//! # kdap-core
//!
//! Keyword-Driven Analytical Processing (Wu, Sismanis, Reinwald — SIGMOD
//! 2007): keyword search meets OLAP aggregation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod api;
pub mod cache;
pub mod error;
pub mod facet;
pub mod governor;
pub mod hit;
pub mod interest;
pub mod interpret;
pub mod navigate;
pub mod numeric_hits;
pub mod phrase;
pub mod plan;
pub mod rank;
pub mod render;
pub mod rollup;
pub mod session;
pub mod subspace;

#[doc(hidden)]
pub mod testutil;

pub use api::{
    ApiError, ConstraintSummary, InterpretationSummary, QueryOptions, QueryRequest, QueryResponse,
    Refine, Verb, WireFormat,
};
pub use cache::{Explored, SubspaceCache};
pub use error::KdapError;
pub use facet::{
    explore_subspace, DataspaceGroups, Exploration, FacetAttr, FacetConfig, FacetEntry, FacetOrder,
    FacetPanel,
};
pub use governor::{record_breach, CancelToken, Governor};
pub use hit::{build_hit_sets, Hit, HitConfig, HitGroup, HitSet};
pub use interest::{combine_correlations, pearson, InterestMode};
pub use interpret::{generate_star_nets, try_generate_star_nets, Constraint, GenConfig, StarNet};
pub use navigate::{drill_down, remove_constraint, roll_up};
pub use numeric_hits::{numeric_groups, NumericConfig};
pub use phrase::merged_group_pool;
pub use plan::{Planner, PlannerConfig};
pub use rank::{rank_star_nets, score_star_net, RankMethod, RankedStarNet};
pub use render::{render_exploration, render_interpretations};
pub use rollup::{rollup_constraint, rollup_spaces, try_rollup_spaces_planned, Rollup};
pub use session::{split_query, Kdap, KdapBuilder};
pub use subspace::{materialize, materialize_planned};

pub use kdap_query::kernel;
pub use kdap_query::{
    Breach, ContainerHistogram, ExecConfig, Fingerprint, MeasureVector, QueryContext, SemijoinCache,
};

pub use kdap_obs::{CacheCounters, CacheOutcome, MetricsSnapshot, Obs, ProfileNode, QueryProfile};
