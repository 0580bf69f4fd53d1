//! Numeric keywords as hit candidates — the paper's first future-work
//! item (§7): "our current model does not consider measure attributes as
//! hit candidates; it is interesting to investigate how we can
//! incorporate such measure in the KDAP model."
//!
//! When enabled, a keyword that parses as a number ("2450", "80000")
//! produces one additional hit group per *numerical* attribute domain
//! whose data actually contains that value: the declared numerical
//! group-by candidates of every dimension, plus the fact table's measure
//! columns. The group carries range semantics (`numeric = Some((v, v))`)
//! and competes with textual interpretations in the ordinary ranking —
//! "2001" can be the calendar-year label *or* a price point, and the user
//! disambiguates exactly like any other interpretation.
//!
//! Disabled by default so the base system matches the paper's published
//! model; the `exp_numeric` experiment and dedicated tests turn it on.

use std::sync::Arc;

use kdap_warehouse::{ColRef, MeasureExpr, Warehouse};

use crate::hit::{Hit, HitGroup};

/// Configuration of the numeric-hit extension.
#[derive(Debug, Clone)]
pub struct NumericConfig {
    /// Master switch (off by default — §7 extension).
    pub enabled: bool,
    /// Score assigned to a numeric hit. Numbers are weaker evidence than
    /// text matches (every warehouse is full of numbers), so the default
    /// sits below an exact text match.
    pub score: f64,
    /// Relative tolerance for value equality.
    pub tolerance: f64,
}

impl Default for NumericConfig {
    fn default() -> Self {
        NumericConfig {
            enabled: false,
            score: 0.75,
            tolerance: 1e-9,
        }
    }
}

/// Builds numeric hit groups for one keyword (empty unless the keyword is
/// a finite number present in some numerical domain).
pub fn numeric_groups(
    wh: &Warehouse,
    keyword: &str,
    keyword_idx: usize,
    cfg: &NumericConfig,
) -> Vec<HitGroup> {
    if !cfg.enabled {
        return Vec::new();
    }
    let Ok(v) = keyword.trim().parse::<f64>() else {
        return Vec::new();
    };
    if !v.is_finite() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for attr in numeric_attr_candidates(wh) {
        if domain_contains(wh, attr, v, cfg.tolerance) {
            out.push(HitGroup {
                attr,
                hits: vec![Hit {
                    code: 0,
                    value: Arc::from(keyword.trim()),
                    score: cfg.score,
                }],
                keywords: vec![keyword_idx],
                numeric: Some((v, v)),
            });
        }
    }
    out
}

/// The numerical attribute domains eligible as hit candidates: declared
/// numerical group-by candidates plus measure source columns.
fn numeric_attr_candidates(wh: &Warehouse) -> Vec<ColRef> {
    let schema = wh.schema();
    let mut attrs: Vec<ColRef> = schema
        .dimensions()
        .iter()
        .flat_map(|d| d.groupby_candidates.iter())
        .filter(|g| g.kind == kdap_warehouse::AttrKind::Numerical)
        .map(|g| g.attr)
        .collect();
    for m in schema.measures() {
        match &m.expr {
            MeasureExpr::Column(c) => attrs.push(*c),
            MeasureExpr::Product(a, b) => {
                attrs.push(*a);
                attrs.push(*b);
            }
        }
    }
    attrs.sort();
    attrs.dedup();
    attrs
}

fn domain_contains(wh: &Warehouse, attr: ColRef, v: f64, tol: f64) -> bool {
    let eps = tol * v.abs().max(1.0);
    let mut found = false;
    wh.column(attr)
        .for_each_float(|_, x| found |= x.is_some_and(|x| (x - v).abs() <= eps));
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::{generate_star_nets, GenConfig};
    use crate::subspace::materialize;
    use crate::testutil::ebiz_fixture;

    fn enabled() -> NumericConfig {
        NumericConfig {
            enabled: true,
            ..NumericConfig::default()
        }
    }

    #[test]
    fn disabled_by_default_produces_nothing() {
        let fx = ebiz_fixture();
        assert!(numeric_groups(&fx.wh, "850", 0, &NumericConfig::default()).is_empty());
        let nets = generate_star_nets(&fx.wh, &fx.index, &["850"], &GenConfig::default());
        assert!(nets.is_empty());
    }

    #[test]
    fn price_keyword_matches_list_price_domain() {
        let fx = ebiz_fixture();
        let groups = numeric_groups(&fx.wh, "850", 0, &enabled());
        let price = fx.wh.col_ref("PROD", "ListPrice").unwrap();
        assert!(groups.iter().any(|g| g.attr == price));
        // 850 also appears in ITEM.UnitPrice? Fixture prices: 500, 800,
        // 700, 450, 900, 650 — no. Income: 50000, 80000 — no.
        let unit_price = fx.wh.col_ref("ITEM", "UnitPrice").unwrap();
        assert!(!groups.iter().any(|g| g.attr == unit_price));
        for g in &groups {
            assert_eq!(g.numeric, Some((850.0, 850.0)));
            assert_eq!(g.hits.len(), 1);
        }
    }

    #[test]
    fn non_numeric_and_absent_values_produce_nothing() {
        let fx = ebiz_fixture();
        assert!(numeric_groups(&fx.wh, "columbus", 0, &enabled()).is_empty());
        assert!(numeric_groups(&fx.wh, "123456789", 0, &enabled()).is_empty());
        assert!(numeric_groups(&fx.wh, "inf", 0, &enabled()).is_empty());
    }

    #[test]
    fn numeric_interpretation_materializes_correctly() {
        let fx = ebiz_fixture();
        let cfg = GenConfig {
            numeric: enabled(),
            ..GenConfig::default()
        };
        let nets = generate_star_nets(&fx.wh, &fx.index, &["850"], &cfg);
        assert!(!nets.is_empty());
        let price_net = nets
            .iter()
            .find(|n| n.display(&fx.wh).contains("ListPrice"))
            .expect("ListPrice interpretation");
        let sub = materialize(&fx.wh, &fx.jidx, price_net);
        // Product 2 ("Projector X100", ListPrice 850) appears in fact
        // rows 1 and 4.
        assert_eq!(sub.iter().collect::<Vec<_>>(), vec![1, 4]);
    }

    #[test]
    fn numeric_and_text_keywords_combine() {
        let fx = ebiz_fixture();
        let cfg = GenConfig {
            numeric: enabled(),
            ..GenConfig::default()
        };
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus", "850"], &cfg);
        let combined = nets.iter().find(|n| {
            let d = n.display(&fx.wh);
            d.contains("Columbus") && d.contains("ListPrice") && d.contains("STORE")
        });
        assert!(combined.is_some(), "city × price interpretation exists");
        let sub = materialize(&fx.wh, &fx.jidx, combined.unwrap());
        // Columbus-store facts {0,1,4,5} ∩ price-850 facts {1,4}.
        assert_eq!(sub.iter().collect::<Vec<_>>(), vec![1, 4]);
    }

    #[test]
    fn measure_columns_are_candidates() {
        let fx = ebiz_fixture();
        let groups = numeric_groups(&fx.wh, "900", 0, &enabled());
        let unit_price = fx.wh.col_ref("ITEM", "UnitPrice").unwrap();
        // 900 is a UnitPrice value (fact row 4) → the measure source
        // column is hit; its constraint sits directly on the fact table.
        assert!(groups.iter().any(|g| g.attr == unit_price));
    }
}
