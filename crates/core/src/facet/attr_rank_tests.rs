//! Direct tests of the group-by attribute ranking (§5.2) — the facet
//! integration tests in `facet::mod` cover the pipeline; these pin the
//! ranking mechanics in isolation.
#![cfg(test)]

use kdap_query::{paths_between, MeasureVector};
use kdap_warehouse::AttrKind;

use crate::facet::per_facet::rank_dimension_attrs;
use crate::facet::{path_for_attr, FacetConfig};
use crate::interest::InterestMode;
use crate::interpret::{generate_star_nets, GenConfig, StarNet};
use crate::rollup::rollup_spaces;
use crate::subspace::{aggregate, materialize};
use crate::testutil::{ebiz_fixture, Fixture};

fn store_net(fx: &Fixture) -> StarNet {
    generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default())
        .into_iter()
        .find(|n| n.display(&fx.wh).contains("STORE → LOC"))
        .unwrap()
}

fn ranked_for_dim(
    fx: &Fixture,
    net: &StarNet,
    dim_name: &str,
    cfg: &FacetConfig,
) -> Vec<crate::facet::RankedAttr> {
    let sub = materialize(&fx.wh, &fx.jidx, net);
    let rups = rollup_spaces(&fx.wh, &fx.jidx, net);
    let dim = fx.wh.schema().dimension_by_name(dim_name).unwrap();
    let measure = fx.wh.schema().measure_by_name("Revenue").unwrap();
    let mv = MeasureVector::build(&fx.wh, measure);
    rank_dimension_attrs(&fx.wh, &fx.jidx, net, &sub, &rups, dim, &mv, cfg)
}

#[test]
fn scores_equal_mode_applied_correlation() {
    let fx = ebiz_fixture();
    let net = store_net(&fx);
    let cfg = FacetConfig::default();
    for ra in ranked_for_dim(&fx, &net, "Product", &cfg) {
        assert!((ra.score - InterestMode::Surprise.attr_score(ra.correlation)).abs() < 1e-12);
        // Floating-point: |corr| may exceed 1 by an ulp.
        assert!(ra.correlation.abs() <= 1.0 + 1e-12, "{}", ra.correlation);
    }
}

#[test]
fn numeric_candidates_carry_series_for_the_merge_phase() {
    let fx = ebiz_fixture();
    let net = store_net(&fx);
    let cfg = FacetConfig {
        n_basic_intervals: 12,
        ..FacetConfig::default()
    };
    let ranked = ranked_for_dim(&fx, &net, "Product", &cfg);
    let price = ranked
        .iter()
        .find(|ra| ra.kind == AttrKind::Numerical)
        .expect("ListPrice candidate present");
    let series = price.numeric.as_ref().expect("series kept");
    assert_eq!(series.ds.len(), 12);
    assert_eq!(series.rup.len(), 12);
    assert_eq!(series.bucketizer.n_buckets(), 12);
    // Basic-interval sums cover the whole subspace aggregate.
    let sub = materialize(&fx.wh, &fx.jidx, &net);
    let measure = fx.wh.schema().measure_by_name("Revenue").unwrap().clone();
    let total = aggregate(&fx.wh, &sub, &measure, kdap_query::AggFunc::Sum);
    let sum: f64 = series.ds.iter().sum();
    assert!((sum - total).abs() < 1e-9);
}

#[test]
fn categorical_candidates_have_no_series() {
    let fx = ebiz_fixture();
    let net = store_net(&fx);
    let ranked = ranked_for_dim(&fx, &net, "Product", &FacetConfig::default());
    for ra in ranked.iter().filter(|r| r.kind == AttrKind::Categorical) {
        assert!(ra.numeric.is_none());
    }
}

#[test]
fn path_for_attr_rejects_foreign_dimension_routes() {
    // LOC is shared by Store and Customer; asking for a Store-dimension
    // path must never return a Buyer/Seller route.
    let fx = ebiz_fixture();
    let net = store_net(&fx);
    let store_dim = fx.wh.schema().dimension_by_name("Store").unwrap();
    let loc = fx.wh.table_id("LOC").unwrap();
    let p = path_for_attr(&fx.wh, &net, store_dim, loc).unwrap();
    let d = p.display(&fx.wh, fx.wh.schema().fact_table());
    assert!(d.contains("STORE"), "{d}");
    assert!(!d.contains("ACCT"), "{d}");
}

#[test]
fn path_for_attr_unreachable_table_is_none() {
    let fx = ebiz_fixture();
    let net = store_net(&fx);
    // The Time dimension never reaches PROD.
    let time_dim = fx.wh.schema().dimension_by_name("Time").unwrap();
    let prod = fx.wh.table_id("PROD").unwrap();
    assert!(path_for_attr(&fx.wh, &net, time_dim, prod).is_none());
}

#[test]
fn unconstrained_dimension_prefers_shortest_path() {
    let fx = ebiz_fixture();
    // No constraints at all: Customer paths to LOC have length 4 via both
    // roles; the deterministic pick must still be stable.
    let net = StarNet {
        constraints: vec![],
    };
    let cust_dim = fx.wh.schema().dimension_by_name("Customer").unwrap();
    let loc = fx.wh.table_id("LOC").unwrap();
    let a = path_for_attr(&fx.wh, &net, cust_dim, loc).unwrap();
    let b = path_for_attr(&fx.wh, &net, cust_dim, loc).unwrap();
    assert_eq!(a, b, "deterministic");
    let all = paths_between(fx.wh.schema(), fx.wh.schema().fact_table(), loc, 8);
    assert!(all.contains(&a));
}

#[test]
fn promoted_attr_uses_the_constraint_path() {
    let fx = ebiz_fixture();
    // Constrain via the Buyer path, then rank Customer facets: the
    // promoted City attribute must ride the Buyer path, not Seller's.
    let net = generate_star_nets(&fx.wh, &fx.index, &["seattle"], &GenConfig::default())
        .into_iter()
        .find(|n| n.display(&fx.wh).contains("(Buyer)"))
        .unwrap();
    let ranked = ranked_for_dim(&fx, &net, "Customer", &FacetConfig::default());
    let promoted = ranked
        .iter()
        .find(|r| r.promoted)
        .expect("hit attr promoted");
    let d = promoted.path.display(&fx.wh, fx.wh.schema().fact_table());
    assert!(d.contains("(Buyer)"), "{d}");
}
