//! Plain-text rendering of explorations and interpretation lists — the
//! multi-faceted "screen" of Figure 1, for terminals, logs and tests.

use kdap_core::{Exploration, RankedStarNet};
use kdap_warehouse::Warehouse;

/// Renders a ranked interpretation list, one per line:
/// `#1 [0.5000] <star net>`.
pub fn render_interpretations(wh: &Warehouse, ranked: &[RankedStarNet], limit: usize) -> String {
    let mut out = String::new();
    for (i, r) in ranked.iter().take(limit).enumerate() {
        out.push_str(&format!(
            "#{:<3} [{:.4}] {}\n",
            i + 1,
            r.score,
            r.net.display(wh)
        ));
    }
    if ranked.len() > limit {
        out.push_str(&format!("… and {} more\n", ranked.len() - limit));
    }
    out
}

/// Renders the facet panels of an exploration as an indented outline.
///
/// ```text
/// subspace: 49 facts · total 92732.91
/// [Product]
///   * DimProductSubcategory.ProductSubcategoryName  (score -0.000, hit)
///       Mountain Bikes ←                          92732.91
/// ```
pub fn render_exploration(ex: &Exploration) -> String {
    let mut out = format!(
        "subspace: {} facts · total {}\n",
        ex.subspace_size,
        fmt_agg(ex.total_aggregate)
    );
    for panel in &ex.panels {
        out.push_str(&format!("[{}]\n", panel.dimension));
        for attr in &panel.attrs {
            out.push_str(&format!(
                "  {} {}  (score {:+.3}{})\n",
                if attr.promoted { '*' } else { '-' },
                attr.name,
                attr.score,
                if attr.promoted { ", hit" } else { "" }
            ));
            for e in &attr.entries {
                out.push_str(&format!(
                    "      {:<30} {:>14}{}\n",
                    e.label,
                    fmt_agg(e.aggregate),
                    if e.is_hit { " ←" } else { "" }
                ));
            }
        }
    }
    out
}

/// Formats an aggregate value; the empty-set aggregate of MIN/MAX/AVG is
/// NaN (no defined value) and renders as `∅` rather than a fake number.
fn fmt_agg(v: f64) -> String {
    if v.is_nan() {
        "∅".to_string()
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdap_core::{rank_star_nets, Kdap, QueryRequest, RankMethod, Verb};
    use kdap_datagen::{build_ebiz, EbizScale};

    fn session() -> Kdap {
        Kdap::builder(build_ebiz(EbizScale::small(), 7).unwrap())
            .build()
            .unwrap()
    }

    /// The ranked interpretations of `query`.
    fn differentiate(kdap: &Kdap, query: &str) -> Vec<RankedStarNet> {
        let request = QueryRequest::new(Verb::Differentiate, query);
        kdap.run(&request).unwrap().ranked
    }

    #[test]
    fn interpretation_list_is_numbered_and_limited() {
        let kdap = session();
        let ranked = differentiate(&kdap, "columbus");
        let text = render_interpretations(kdap.warehouse(), &ranked, 2);
        assert!(text.starts_with("#1  "));
        assert!(text.contains("#2  "));
        assert!(!text.contains("#3  "));
        assert!(text.contains(&format!("… and {} more", ranked.len() - 2)));
        let all = render_interpretations(kdap.warehouse(), &ranked, 10);
        assert!(!all.contains("more"));
    }

    #[test]
    fn exploration_outline_shows_hits_and_totals() {
        let kdap = session();
        // Seattle as a store city: facts in the subspace, a promoted hit.
        let ranked = differentiate(&kdap, "seattle");
        let ex = kdap.explore(&ranked[0].net).unwrap();
        let text = render_exploration(&ex);
        assert!(text.starts_with(&format!("subspace: {} facts", ex.subspace_size)));
        assert!(text.contains("[Store]") || text.contains("[Customer]"));
        assert!(text.contains('*'), "promoted marker present");
        assert!(text.contains('←'), "hit marker present");
    }

    #[test]
    fn undefined_aggregates_render_as_empty_set() {
        assert_eq!(fmt_agg(f64::NAN), "∅");
        assert_eq!(fmt_agg(42.0), "42.00");
        let ex = Exploration {
            subspace_size: 0,
            total_aggregate: f64::NAN,
            panels: vec![],
        };
        assert!(render_exploration(&ex).contains("total ∅"));
    }

    #[test]
    fn empty_inputs_render_cleanly() {
        let kdap = session();
        assert_eq!(render_interpretations(kdap.warehouse(), &[], 5), "");
        let ranked = rank_star_nets(vec![], RankMethod::Standard);
        assert!(ranked.is_empty());
    }
}
