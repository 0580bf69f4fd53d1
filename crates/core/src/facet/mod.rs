//! Automatic facet construction for sub-dataspaces (paper §5).
//!
//! After the user picks a star net, the explore phase aggregates the
//! subspace and dynamically builds a multi-faceted interface: per
//! dimension, the top-k most interesting group-by attributes, and within
//! each attribute the ranked instances (categorical) or merged numerical
//! ranges (Algorithm 2).

pub mod attr_rank;
#[cfg(test)]
mod attr_rank_tests;
mod fused;
pub mod instance_rank;
pub mod merge;
#[doc(hidden)]
pub mod per_facet;

use kdap_query::AggFunc;
use kdap_warehouse::{AttrKind, ColRef, Warehouse};

use crate::error::KdapError;
use crate::interest::InterestMode;

pub use attr_rank::{path_for_attr, NumericSeries, RankedAttr};
pub use fused::{explore_subspace, DataspaceGroups, JoinedColumns};
pub use instance_rank::RankedInstance;
pub use merge::{merge_series, optimal_splits};

/// How the selected group-by attributes are ordered inside a panel —
/// the paper's §7 notes that fully dynamic organization "may become
/// inadequate whenever the users have a very concrete goal", where the
/// *consistency* of the interface matters and "a hybrid solution may be
/// better".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FacetOrder {
    /// Interestingness-ranked (the paper's default behaviour).
    Dynamic,
    /// Schema declaration order — stable across queries, for users with
    /// concrete navigation goals.
    Consistent,
    /// Hybrid: the first `pinned` schema-declared attributes keep their
    /// stable position, the rest fill in by interestingness.
    Hybrid {
        /// How many declared candidates keep their stable slots.
        pinned: usize,
    },
}

/// Knobs of the explore phase.
#[derive(Debug, Clone, PartialEq)]
pub struct FacetConfig {
    /// Surprise or bellwether interestingness.
    pub mode: InterestMode,
    /// Attribute ordering policy within a panel (§7 hybrid extension).
    pub order: FacetOrder,
    /// Aggregation function applied to the measure.
    pub agg: AggFunc,
    /// Top-k group-by attributes shown per dimension.
    pub top_k_attrs: usize,
    /// Top-k instances shown per categorical attribute.
    pub top_k_instances: usize,
    /// Number of basic intervals for numerical domains (paper default 40,
    /// validated in §6.4).
    pub n_basic_intervals: usize,
    /// Number of merged display ranges `K`.
    pub display_intervals: usize,
}

impl Default for FacetConfig {
    fn default() -> Self {
        FacetConfig {
            mode: InterestMode::Surprise,
            order: FacetOrder::Dynamic,
            agg: AggFunc::Sum,
            top_k_attrs: 3,
            top_k_instances: 8,
            n_basic_intervals: 40,
            display_intervals: 3,
        }
    }
}

impl FacetConfig {
    /// Rejects zero intervals or ranges, or too many splits to enumerate.
    pub(crate) fn validate(&self) -> Result<(), KdapError> {
        let (m, k) = (self.n_basic_intervals, self.display_intervals);
        let reason = if m == 0 || k == 0 {
            "n_basic_intervals and display_intervals must be positive".to_string()
        } else if merge::feasible_splits(m, k, merge::MAX_SPLITS) > merge::MAX_SPLITS {
            let max = merge::MAX_SPLITS;
            format!("{k} display ranges of {m} basic intervals have over {max} feasible splits")
        } else {
            return Ok(());
        };
        Err(KdapError::BadFacetConfig { reason })
    }
}

/// One entry (attribute instance or numeric range) of a facet.
#[derive(Debug, Clone, PartialEq)]
pub struct FacetEntry {
    /// Display label: an attribute instance or a numeric range.
    pub label: String,
    /// Aggregation value of the entry's partition within DS′.
    pub aggregate: f64,
    /// Instance interestingness (Eq. 2 based); 0 for numeric ranges,
    /// which keep their natural order.
    pub score: f64,
    /// True when the entry carries one of the query's hits.
    pub is_hit: bool,
}

/// One selected group-by attribute with its displayed entries.
#[derive(Debug, Clone, PartialEq)]
pub struct FacetAttr {
    /// The group-by attribute.
    pub attr: ColRef,
    /// Its `Table.Column` display name.
    pub name: String,
    /// Categorical or numerical.
    pub kind: AttrKind,
    /// Worst-case correlation against the roll-up spaces (Eq. 1 input).
    pub correlation: f64,
    /// Interestingness under the configured mode.
    pub score: f64,
    /// True for hit-group attributes (always shown, §5.2.1).
    pub promoted: bool,
    /// Ranked instances or merged numeric ranges.
    pub entries: Vec<FacetEntry>,
}

/// The facet panel of one dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct FacetPanel {
    /// Dimension name.
    pub dimension: String,
    /// The top-k selected attributes, in display order.
    pub attrs: Vec<FacetAttr>,
}

/// The explore-phase output for a chosen star net.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// Number of qualifying fact points in DS′.
    pub subspace_size: usize,
    /// Aggregate of the measure over DS′.
    pub total_aggregate: f64,
    /// One panel per dimension, in static (alphabetical) dimension order
    /// (§5.1 assumes a static order over dimensions).
    pub panels: Vec<FacetPanel>,
}

impl From<RankedInstance> for FacetEntry {
    fn from(ri: RankedInstance) -> Self {
        FacetEntry {
            label: ri.label.to_string(),
            aggregate: ri.aggregate,
            score: ri.score,
            is_hit: ri.is_hit,
        }
    }
}

/// Appends one selected attribute to the panel of `dimension`, opening
/// the panel when the attribute is its first (attributes arrive grouped
/// by dimension, in display order).
pub(crate) fn push_facet_attr(
    panels: &mut Vec<FacetPanel>,
    wh: &Warehouse,
    dimension: &str,
    ra: &RankedAttr,
    entries: Vec<FacetEntry>,
) {
    let attr = FacetAttr {
        attr: ra.attr,
        name: wh.col_name(ra.attr),
        kind: ra.kind,
        correlation: ra.correlation,
        score: ra.score,
        promoted: ra.promoted,
        entries,
    };
    match panels.last_mut() {
        Some(panel) if panel.dimension == dimension => panel.attrs.push(attr),
        _ => panels.push(FacetPanel {
            dimension: dimension.to_string(),
            attrs: vec![attr],
        }),
    }
}

/// Merges the basic intervals of a numerical attribute into display
/// ranges (Algorithm 2) and renders them as facet entries in natural
/// order.
pub(crate) fn numeric_entries(series: &NumericSeries, cfg: &FacetConfig) -> Vec<FacetEntry> {
    let (splits, _) = optimal_splits(&series.ds, &series.rup, cfg.display_intervals);
    let starts = std::iter::once(0).chain(splits.iter().copied());
    let ends = splits.iter().copied().chain([series.ds.len()]);
    starts
        .zip(ends)
        .map(|(s, e)| {
            let (lo, _) = series.bucketizer.bounds(s);
            let (_, hi) = series.bucketizer.bounds(e - 1);
            FacetEntry {
                label: format!("{} – {}", fmt_num(lo), fmt_num(hi)),
                aggregate: series.ds[s..e].iter().sum(),
                score: 0.0,
                is_hit: false,
            }
        })
        .collect()
}

fn fmt_num(v: f64) -> String {
    if (v.fract()).abs() < 1e-9 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::{generate_star_nets, GenConfig};
    use crate::plan::Planner;
    use crate::subspace::materialize;
    use crate::testutil::ebiz_fixture;
    use kdap_query::{ExecConfig, MeasureVector};

    fn explore_query(query: &[&str], needle: &str, cfg: &FacetConfig) -> Exploration {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(&fx.wh, &fx.index, query, &GenConfig::default());
        let net = nets
            .iter()
            .find(|n| n.display(&fx.wh).contains(needle))
            .expect("net found");
        let measure = fx.wh.schema().measure_by_name("Revenue").unwrap();
        explore_subspace(
            &fx.wh,
            &fx.jidx,
            net,
            &materialize(&fx.wh, &fx.jidx, net),
            &MeasureVector::build(&fx.wh, measure),
            cfg,
            &Planner::default(),
            &ExecConfig::serial(),
            &DataspaceGroups::default(),
            &JoinedColumns::default(),
        )
        .unwrap()
    }

    #[test]
    fn exploration_reports_subspace_and_total() {
        let ex = explore_query(&["columbus"], "STORE → LOC", &FacetConfig::default());
        // Columbus-store items: rows 0,1,4,5 → revenue 1000+800+900+1300.
        assert_eq!(ex.subspace_size, 4);
        assert_eq!(ex.total_aggregate, 4000.0);
    }

    #[test]
    fn panels_are_in_alphabetical_dimension_order() {
        let ex = explore_query(&["columbus"], "STORE → LOC", &FacetConfig::default());
        let names: Vec<&str> = ex.panels.iter().map(|p| p.dimension.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(names.contains(&"Product"));
        assert!(names.contains(&"Store"));
    }

    #[test]
    fn hit_attribute_is_promoted_in_its_dimension() {
        let ex = explore_query(&["columbus"], "STORE → LOC", &FacetConfig::default());
        let store_panel = ex.panels.iter().find(|p| p.dimension == "Store").unwrap();
        assert!(store_panel.attrs[0].promoted);
        assert_eq!(store_panel.attrs[0].name, "LOC.City");
        // The hit instance is pinned first and flagged.
        let first = &store_panel.attrs[0].entries[0];
        assert_eq!(first.label, "Columbus");
        assert!(first.is_hit);
    }

    #[test]
    fn categorical_entries_carry_subspace_aggregates() {
        let ex = explore_query(&["columbus"], "STORE → LOC", &FacetConfig::default());
        let product = ex.panels.iter().find(|p| p.dimension == "Product").unwrap();
        let group_attr = product
            .attrs
            .iter()
            .find(|a| a.name == "PGROUP.GroupName")
            .expect("group-name facet present");
        let total: f64 = group_attr.entries.iter().map(|e| e.aggregate).sum();
        // Partitions of DS′ sum to the DS′ total.
        assert_eq!(total, ex.total_aggregate);
    }

    #[test]
    fn numeric_attribute_produces_merged_ranges() {
        let cfg = FacetConfig {
            top_k_attrs: 5,
            n_basic_intervals: 10,
            display_intervals: 2,
            ..FacetConfig::default()
        };
        let ex = explore_query(&["columbus"], "STORE → LOC", &cfg);
        let product = ex.panels.iter().find(|p| p.dimension == "Product").unwrap();
        let price = product
            .attrs
            .iter()
            .find(|a| a.name == "PROD.ListPrice")
            .expect("numeric facet present");
        assert_eq!(price.kind, AttrKind::Numerical);
        assert!(!price.entries.is_empty());
        assert!(price.entries.len() <= 2);
        // Range aggregates also sum to the subspace total.
        let total: f64 = price.entries.iter().map(|e| e.aggregate).sum();
        assert_eq!(total, ex.total_aggregate);
        // Labels look like "lo – hi".
        assert!(price.entries[0].label.contains('–'));
    }

    #[test]
    fn consistent_order_follows_schema_declaration() {
        let cfg = FacetConfig {
            top_k_attrs: 10,
            order: FacetOrder::Consistent,
            ..FacetConfig::default()
        };
        let ex = explore_query(&["columbus"], "STORE → LOC", &cfg);
        let product = ex.panels.iter().find(|p| p.dimension == "Product").unwrap();
        // Non-promoted attrs appear in groupby-candidate declaration
        // order: GroupName, Name, ListPrice (the fixture's Product dim).
        let non_promoted: Vec<&str> = product
            .attrs
            .iter()
            .filter(|a| !a.promoted)
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(
            non_promoted,
            vec!["PGROUP.GroupName", "PROD.Name", "PROD.ListPrice"]
        );
    }

    #[test]
    fn hybrid_order_pins_leading_attributes() {
        let cfg = FacetConfig {
            top_k_attrs: 10,
            order: FacetOrder::Hybrid { pinned: 1 },
            ..FacetConfig::default()
        };
        let ex = explore_query(&["columbus"], "STORE → LOC", &cfg);
        let product = ex.panels.iter().find(|p| p.dimension == "Product").unwrap();
        let non_promoted: Vec<&str> = product
            .attrs
            .iter()
            .filter(|a| !a.promoted)
            .map(|a| a.name.as_str())
            .collect();
        // First declared candidate is pinned; the rest are dynamic.
        assert_eq!(non_promoted[0], "PGROUP.GroupName");
    }

    #[test]
    fn top_k_limits_attribute_count() {
        let cfg = FacetConfig {
            top_k_attrs: 1,
            ..FacetConfig::default()
        };
        let ex = explore_query(&["columbus"], "STORE → LOC", &cfg);
        for p in &ex.panels {
            assert!(p.attrs.len() <= 1, "panel {} too wide", p.dimension);
        }
    }

    #[test]
    fn bellwether_mode_flips_attribute_ordering() {
        let cfg_s = FacetConfig {
            top_k_attrs: 10,
            ..FacetConfig::default()
        };
        let mut cfg_b = cfg_s.clone();
        cfg_b.mode = InterestMode::Bellwether;
        let ex_s = explore_query(&["columbus"], "STORE → LOC", &cfg_s);
        let ex_b = explore_query(&["columbus"], "STORE → LOC", &cfg_b);
        // Scores are negated between the two modes for the same attr.
        let find = |ex: &Exploration, name: &str| -> f64 {
            ex.panels
                .iter()
                .flat_map(|p| p.attrs.iter())
                .find(|a| a.name == name)
                .map(|a| a.score)
                .unwrap()
        };
        let s = find(&ex_s, "PGROUP.GroupName");
        let b = find(&ex_b, "PGROUP.GroupName");
        assert!((s + b).abs() < 1e-12);
    }

    #[test]
    fn customer_dimension_uses_constraint_consistent_path() {
        // Constrain on buyer city: the Customer facet should follow the
        // buyer path, not the seller path.
        let fx = ebiz_fixture();
        let nets = generate_star_nets(&fx.wh, &fx.index, &["seattle"], &GenConfig::default());
        let buyer_net = nets
            .iter()
            .find(|n| n.display(&fx.wh).contains("(Buyer)"))
            .unwrap();
        let dim = fx.wh.schema().dimension_by_name("Customer").unwrap();
        let loc = fx.wh.table_id("LOC").unwrap();
        let path = path_for_attr(&fx.wh, buyer_net, dim, loc).unwrap();
        assert!(path
            .display(&fx.wh, fx.wh.schema().fact_table())
            .contains("(Buyer)"));
    }
}
