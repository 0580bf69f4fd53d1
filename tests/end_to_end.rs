//! Integration tests spanning all crates: the full differentiate/explore
//! pipeline over the generated warehouses, checking the structural
//! invariants that make KDAP results trustworthy.

mod support;

use kdap_suite::core::{
    generate_star_nets, materialize, rank_star_nets, rollup_spaces, GenConfig, Kdap, KdapError,
    QueryRequest, RankMethod, Verb,
};
use kdap_suite::datagen::{build_aw_online, build_ebiz, EbizScale, Scale};
use kdap_suite::query::{
    multi_group_by_exec, AggFunc, ExecConfig, FacetSpec, Fold, JoinIndex, MeasureVector,
    DENSE_GROUP_LIMIT,
};
use kdap_suite::textindex::TextIndex;

use support::differentiate;

fn ebiz_session() -> Kdap {
    Kdap::builder(build_ebiz(EbizScale::small(), 7).unwrap())
        .build()
        .unwrap()
}

#[test]
fn every_interpretation_is_materializable() {
    let kdap = ebiz_session();
    for query in ["Columbus", "Seattle Plasma", "Premium", "October"] {
        for r in differentiate(&kdap, query) {
            let sub = materialize(kdap.warehouse(), kdap.join_index(), &r.net);
            // Materialization must not panic and the subspace is within
            // the fact table.
            assert!(sub.len() <= kdap.warehouse().fact_rows());
        }
    }
}

#[test]
fn subspace_is_contained_in_every_rollup_space() {
    let kdap = ebiz_session();
    for query in ["Columbus", "Seattle Plasma", "Televisions"] {
        for r in differentiate(&kdap, query).into_iter().take(5) {
            let sub = materialize(kdap.warehouse(), kdap.join_index(), &r.net);
            for rup in rollup_spaces(kdap.warehouse(), kdap.join_index(), &r.net) {
                for row in sub.iter() {
                    assert!(rup.contains(row), "RUP must contain DS' ({query})");
                }
            }
        }
    }
}

#[test]
fn facet_partitions_sum_to_subspace_total() {
    let kdap = ebiz_session();
    let ranked = differentiate(&kdap, "Columbus");
    let ex = kdap.explore(&ranked[0].net).expect("star net evaluates");
    for panel in &ex.panels {
        for attr in &panel.attrs {
            // Facet construction truncates to top-k instances; only check
            // attributes whose full domain is visible.
            if attr.entries.len() < kdap.facet_config().top_k_instances {
                let sum: f64 = attr.entries.iter().map(|e| e.aggregate).sum();
                let diff = (sum - ex.total_aggregate).abs();
                assert!(
                    diff < 1e-6 * ex.total_aggregate.abs().max(1.0),
                    "{}.{}: {} != {}",
                    panel.dimension,
                    attr.name,
                    sum,
                    ex.total_aggregate
                );
            }
        }
    }
}

#[test]
fn ranking_is_stable_and_sorted_for_all_methods() {
    let wh = build_aw_online(Scale::small(), 3).unwrap();
    let index = TextIndex::build(&wh);
    let nets = generate_star_nets(
        &wh,
        &index,
        &["mountain", "california"],
        &GenConfig::default(),
    );
    for method in RankMethod::ALL {
        let a = rank_star_nets(nets.clone(), method);
        let b = rank_star_nets(nets.clone(), method);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score, y.score);
            assert_eq!(x.net.display(&wh), y.net.display(&wh));
        }
        for w in a.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}

#[test]
fn measures_agree_between_direct_and_facet_aggregation() {
    let kdap = ebiz_session();
    let ranked = differentiate(&kdap, "Columbus");
    let net = &ranked[0].net;
    let wh = kdap.warehouse();
    let sub = materialize(wh, kdap.join_index(), net);
    // The ungrouped one-spec case of the group-by scan.
    let mv = MeasureVector::build(wh, kdap.measure());
    let exec = ExecConfig::serial();
    let total = [FacetSpec::Total];
    let direct = multi_group_by_exec(wh, &total, &sub, &mv, Fold::Sum, &exec, DENSE_GROUP_LIMIT)
        .expect("an ungoverned scan")[0]
        .total(AggFunc::Sum);
    let ex = kdap.explore(net).expect("star net evaluates");
    assert_eq!(direct, ex.total_aggregate);
    assert_eq!(sub.len(), ex.subspace_size);
}

#[test]
fn join_index_and_text_index_rebuild_identically() {
    let wh = build_ebiz(EbizScale::small(), 7).unwrap();
    let a = TextIndex::build(&wh);
    let b = TextIndex::build(&wh);
    assert_eq!(a.n_docs(), b.n_docs());
    assert_eq!(a.stats().terms, b.stats().terms);
    let _ = JoinIndex::build(&wh);
}

#[test]
fn empty_and_nonsense_queries_degrade_gracefully() {
    let kdap = ebiz_session();
    // Empty and punctuation-only input carry no keyword: a typed error.
    for q in ["", "!!! ???"] {
        let response = kdap.run(&QueryRequest::new(Verb::Differentiate, q));
        assert!(matches!(response, Err(KdapError::EmptyQuery)), "{q:?}");
    }
    // Unmatched keywords are an empty ranking.
    assert!(differentiate(&kdap, "zzzz qqqq xxxx").is_empty());
}

#[test]
fn both_aw_warehouses_run_the_full_pipeline() {
    for (wh, query) in [
        (build_aw_online(Scale::small(), 11).unwrap(), "Bikes"),
        (
            kdap_suite::datagen::build_aw_reseller(Scale::small(), 11).unwrap(),
            "Warehouse",
        ),
    ] {
        let kdap = Kdap::builder(wh).build().unwrap();
        let ranked = differentiate(&kdap, query);
        assert!(!ranked.is_empty(), "{query} finds interpretations");
        let ex = kdap.explore(&ranked[0].net).expect("star net evaluates");
        assert!(ex.subspace_size > 0, "{query} subspace non-empty");
        assert!(!ex.panels.is_empty());
    }
}

/// Equal `(score, group count)` interpretations are ordered by their own
/// constraints, and phrase merging walks attributes in order, so a tie
/// never falls back on a hash's iteration order: the same query lists —
/// and at a rank-1 tie, explores — the same interpretations in every
/// session. The two queries are the ones `kdap_bench` (README, finding 1)
/// caught differing from call to call on AW_ONLINE ×10.
#[test]
fn tied_interpretations_rank_identically_in_every_session() {
    // ×10's dimensions carry the vocabulary the queries tie on;
    // differentiate reads no fact row, so the fact table stays small.
    let scale = Scale {
        facts: 2_400,
        ..Scale::full().scaled(10)
    };
    let wh = build_aw_online(scale, 42).unwrap();
    let requests = [
        "Road 1900 Headsets France",
        "Mountain 900 2001 Touring France",
    ]
    .map(|keywords| QueryRequest::new(Verb::Differentiate, keywords));
    let bodies = |kdap: Kdap| {
        requests.each_ref().map(|request| {
            let response = kdap.run(request).unwrap();
            let tied = response
                .ranked
                .windows(2)
                .any(|w| w[0].score == w[1].score && w[0].net.n_groups() == w[1].net.n_groups());
            assert!(
                tied,
                "{}: the ranking has a tie to break",
                response.keywords
            );
            response.to_json()
        })
    };
    let session = || Kdap::builder(wh.clone()).build().unwrap();
    let first = bodies(session());
    for _ in 1..20 {
        assert_eq!(bodies(session()), first);
    }
}
