//! A star net's identity, against its references.
//!
//! `StarNet::fingerprint` and `StarNet::explore_key` are written by
//! `Fingerprint::write_list`; they must spell exactly the derived `Debug`
//! of the sorted and of the ordered constraint-fingerprint lists.
//! `try_generate_star_nets` deduplicates candidates on interned
//! fingerprint ids; it must keep the nets, in the order, that the
//! per-candidate `Vec<Fingerprint>` key of
//! `support::reference_star_nets` keeps.

mod support;

use kdap_suite::core::{
    split_query, try_generate_star_nets, GenConfig, Kdap, NumericConfig, QueryRequest, StarNet,
    Verb,
};
use kdap_suite::datagen::{
    build_aw_online, build_ebiz, generate_workload, EbizScale, Scale, WorkloadConfig,
};
use kdap_suite::query::{ExecConfig, Fingerprint};
use kdap_suite::warehouse::MeasureExpr;

/// EBiz-small and AW-small, each with its default query population.
fn sessions() -> Vec<(&'static str, Kdap, Vec<String>)> {
    let ebiz = Kdap::builder(build_ebiz(EbizScale::small(), 7).expect("generator is valid"))
        .build()
        .expect("measure defined");
    let aw = Kdap::builder(build_aw_online(Scale::small(), 42).expect("generator is valid"))
        .build()
        .expect("measure defined");
    [("ebiz", ebiz), ("aw", aw)]
        .into_iter()
        .map(|(name, kdap)| {
            let queries = generate_workload(kdap.warehouse(), &WorkloadConfig::default())
                .iter()
                .map(|q| q.text())
                .collect();
            (name, kdap, queries)
        })
        .collect()
}

#[test]
fn identity_strings_are_the_debug_of_the_fingerprint_lists() {
    for (name, kdap, queries) in sessions() {
        let mut nets = 0;
        for text in &queries {
            let mut request = QueryRequest::new(Verb::Differentiate, text);
            request.limit = 0;
            let response = kdap.run(&request).expect("population queries answer");
            assert_eq!(response.interpretations.len(), response.ranked.len());
            for (summary, ranked) in response.interpretations.iter().zip(&response.ranked) {
                let net = &ranked.net;
                let ordered: Vec<Fingerprint> = net
                    .constraints
                    .iter()
                    .map(|c| Fingerprint::of(&c.selection()))
                    .collect();
                let mut sorted = ordered.clone();
                sorted.sort();
                let context = format!("{name} `{text}`: {}", net.display(kdap.warehouse()));
                assert_eq!(net.fingerprint(), format!("{sorted:?}"), "{context}");
                assert_eq!(net.explore_key(), format!("{ordered:?}"), "{context}");
                assert_eq!(summary.fingerprint, net.fingerprint(), "{context}");
                nets += 1;
            }
        }
        assert!(nets > queries.len(), "{name}: {nets} nets");
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
    for (name, kdap, queries) in sessions() {
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

        // Numeric hits on, and a measure value appended to every query:
        // range constraints take part in the deduplication.
        let cfg = GenConfig {
            numeric: NumericConfig {
                enabled: true,
                ..NumericConfig::default()
            },
            ..base.clone()
        };
        let wh = kdap.warehouse();
        let column = match wh.schema().measures()[0].expr {
            MeasureExpr::Column(c) | MeasureExpr::Product(c, _) => wh.column(c),
        };
        let values: Vec<String> = (0..8)
            .filter_map(|row| column.get_float(row))
            .map(|v| format!("{v}"))
            .collect();
        assert!(!values.is_empty(), "{name}: the measure has values");
        let mut with_ranges = 0;
        for (i, text) in queries.iter().enumerate() {
            let text = format!("{text} {}", values[i % values.len()]);
            with_ranges += compare_with_reference(&kdap, &text, &cfg);
        }
        assert!(with_ranges > 0, "{name}: no net holds a range constraint");
    }
}
