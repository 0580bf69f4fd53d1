//! A star net's identity, against its references.
//!
//! `StarNet::fingerprint` and `StarNet::explore_key` are written from
//! `Fingerprint::write_to`'s text; they must spell exactly the derived
//! `Debug` of the sorted and of the ordered constraint-fingerprint lists.
//! A differentiate's summaries write each distinct constraint's text
//! once for all nets; every summary's `display` must equal
//! `support::reference_net_display`, each net writing its own, and its
//! `fingerprint` the net's own — with numeric hits off and on.
//! `try_generate_star_nets` deduplicates candidates on interned
//! fingerprint ids; it must keep the nets, in the order, that the
//! per-candidate `Vec<Fingerprint>` key of
//! `support::reference_star_nets` keeps.

mod support;

use std::collections::HashMap;
use std::sync::Arc;

use kdap_suite::core::{
    split_query, try_generate_star_nets, GenConfig, HitGroup, Kdap, NumericConfig, QueryRequest,
    RankedStarNet, StarNet, Verb,
};
use kdap_suite::datagen::{
    build_aw_online, build_ebiz, generate_workload, EbizScale, Scale, WorkloadConfig,
};
use kdap_suite::query::{ExecConfig, Fingerprint};
use kdap_suite::warehouse::{ColRef, MeasureExpr};

/// EBiz-small and AW-small, each with its default query population,
/// and numeric hits on when `numeric` (their queries then end in a
/// measure value, so that range constraints occur).
fn sessions(numeric: bool) -> Vec<(&'static str, Kdap, Vec<String>)> {
    let gen = GenConfig {
        numeric: NumericConfig {
            enabled: numeric,
            ..NumericConfig::default()
        },
        ..GenConfig::default()
    };
    let session = |wh| Kdap::builder(wh).gen_config(gen.clone()).build();
    let ebiz = session(build_ebiz(EbizScale::small(), 7).expect("generator is valid"))
        .expect("measure defined");
    let aw = session(build_aw_online(Scale::small(), 42).expect("generator is valid"))
        .expect("measure defined");
    [("ebiz", ebiz), ("aw", aw)]
        .into_iter()
        .map(|(name, kdap)| {
            let values = measure_values(&kdap);
            let queries = generate_workload(kdap.warehouse(), &WorkloadConfig::default())
                .iter()
                .enumerate()
                .map(|(i, q)| match numeric {
                    true => format!("{} {}", q.text(), values[i % values.len()]),
                    false => q.text(),
                })
                .collect();
            (name, kdap, queries)
        })
        .collect()
}

/// The first fact rows' values of the session's first measure, as
/// keywords.
fn measure_values(kdap: &Kdap) -> Vec<String> {
    let wh = kdap.warehouse();
    let column = match wh.schema().measures()[0].expr {
        MeasureExpr::Column(c) | MeasureExpr::Product(c, _) => wh.column(c),
    };
    let values: Vec<String> = (0..8)
        .filter_map(|row| column.get_float(row))
        .map(|v| format!("{v}"))
        .collect();
    assert!(!values.is_empty(), "the measure has values");
    values
}

/// Every constraint of one request built from the same pool group —
/// the same attribute for the same keywords — holds the same allocation:
/// generation copies no group.
fn assert_groups_shared(ranked: &[RankedStarNet]) {
    let mut groups: HashMap<(ColRef, &[usize]), &Arc<HitGroup>> = HashMap::new();
    for c in ranked.iter().flat_map(|r| &r.net.constraints) {
        let first = groups
            .entry((c.group.attr, &c.group.keywords))
            .or_insert(&c.group);
        assert!(Arc::ptr_eq(first, &c.group), "{:?}", c.group.attr);
    }
}

#[test]
fn identity_strings_are_the_debug_of_the_fingerprint_lists() {
    for numeric in [false, true] {
        for (name, kdap, queries) in sessions(numeric) {
            let wh = kdap.warehouse();
            let (mut nets, mut ranges) = (0, 0);
            for text in &queries {
                let mut request = QueryRequest::new(Verb::Differentiate, text);
                request.limit = 0;
                let response = kdap.run(&request).expect("population queries answer");
                assert_eq!(response.interpretations.len(), response.ranked.len());
                assert_groups_shared(&response.ranked);
                for (summary, ranked) in response.interpretations.iter().zip(&response.ranked) {
                    let net = &ranked.net;
                    let ordered: Vec<Fingerprint> = net
                        .constraints
                        .iter()
                        .map(|c| Fingerprint::of(&c.selection()))
                        .collect();
                    let mut sorted = ordered.clone();
                    sorted.sort();
                    let display = support::reference_net_display(wh, net);
                    let context = format!("{name} `{text}`: {display}");
                    assert_eq!(net.fingerprint(), format!("{sorted:?}"), "{context}");
                    assert_eq!(net.explore_key(), format!("{ordered:?}"), "{context}");
                    assert_eq!(summary.fingerprint, net.fingerprint(), "{context}");
                    assert_eq!(net.display(wh), display, "{context}");
                    assert_eq!(summary.display, display, "{context}");
                    nets += 1;
                    ranges +=
                        usize::from(net.constraints.iter().any(|c| c.group.numeric.is_some()));
                }
            }
            assert!(nets > queries.len(), "{name}: {nets} nets");
            assert_eq!(ranges > 0, numeric, "{name}: {ranges} nets with a range");
        }
    }
}

/// Generates `text`'s nets both ways and asserts they are the same nets in
/// the same order. Returns how many carry a numeric-range constraint.
fn compare_with_reference(kdap: &Kdap, text: &str, cfg: &GenConfig) -> usize {
    let wh = kdap.warehouse();
    let words = split_query(text);
    let keywords: Vec<&str> = words.iter().map(String::as_str).collect();
    let got = try_generate_star_nets(wh, kdap.text_index(), &keywords, cfg, &ExecConfig::serial())
        .expect("an ungoverned generation cannot breach");
    let want = support::reference_star_nets(wh, kdap.text_index(), &keywords, cfg);
    let identities = |nets: &[StarNet]| -> Vec<(String, String)> {
        nets.iter()
            .map(|n| (n.display(wh), n.fingerprint()))
            .collect()
    };
    assert_eq!(
        identities(&got),
        identities(&want),
        "`{text}` with max_star_nets = {}",
        cfg.max_star_nets
    );
    got.iter()
        .filter(|n| n.constraints.iter().any(|c| c.group.numeric.is_some()))
        .count()
}

#[test]
fn generation_keeps_the_reference_nets_in_order() {
    for (_, kdap, queries) in sessions(false) {
        let base = kdap.gen_config().clone();
        for cap in [1, 2, 7, base.max_star_nets] {
            let cfg = GenConfig {
                max_star_nets: cap,
                ..base.clone()
            };
            for text in &queries {
                compare_with_reference(&kdap, text, &cfg);
            }
        }
    }
    // Numeric hits on, and a measure value appended to every query:
    // range constraints take part in the deduplication.
    for (name, kdap, queries) in sessions(true) {
        let cfg = kdap.gen_config().clone();
        let with_ranges: usize = queries
            .iter()
            .map(|text| compare_with_reference(&kdap, text, &cfg))
            .sum();
        assert!(with_ranges > 0, "{name}: no net holds a range constraint");
    }
}
