//! There is one path from `Kdap::run` to the kernels: the typed request,
//! the `explore` convenience and its options form are the same pipeline,
//! so they must return the same exploration at any thread count — and
//! that pipeline's profile must carry the span names the frozen benchmark
//! (`kdap_bench/src/layers.rs`) reads its per-layer numbers from.

mod support;

use std::collections::BTreeSet;

use kdap_suite::core::{ProfileNode, QueryOptions, QueryRequest, Verb};

use support::workload;

/// Every eighth workload query: a spread of one- to three-keyword nets.
const SAMPLE_STRIDE: usize = 8;

#[test]
fn run_explore_and_explore_with_options_are_one_pipeline() {
    let fx = workload();
    for threads in [1usize, 4] {
        let kdap = fx.session(threads);
        for (keywords, _) in fx.queries.iter().step_by(SAMPLE_STRIDE) {
            let response = kdap
                .run(&QueryRequest::new(Verb::Explore, keywords))
                .expect("workload queries explore");
            let via_run = response.exploration.expect("explore verb explores");
            let net = &response.ranked[0].net;
            let via_explore = kdap.explore(net).expect("explore succeeds");
            let via_options = kdap
                .explore_with_options(net, &QueryOptions::default())
                .expect("explore succeeds");
            assert_eq!(via_run, via_explore, "threads={threads} `{keywords}`");
            assert_eq!(via_run, via_options, "threads={threads} `{keywords}`");
            // And the thread count is not a second path either.
            let serial = fx.serial.explore(net).expect("explore succeeds");
            assert_eq!(via_run, serial, "threads={threads} `{keywords}`");
        }
    }
}

#[test]
fn profile_emits_the_span_names_the_benchmark_reads() {
    fn collect(node: &ProfileNode, names: &mut BTreeSet<String>) {
        names.insert(node.name.clone());
        for child in &node.children {
            collect(child, names);
        }
    }
    let fx = workload();
    for threads in [1usize, 4] {
        let kdap = fx.session(threads);
        let mut names = BTreeSet::new();
        for (keywords, _) in fx.queries.iter().step_by(SAMPLE_STRIDE) {
            let profile = kdap
                .run(&QueryRequest::new(Verb::Profile, keywords))
                .expect("workload queries profile")
                .profile
                .expect("profile verb returns a profile");
            for root in &profile.roots {
                collect(root, &mut names);
            }
        }
        for span in [
            "multi_group_by",
            "semijoin",
            "explore.rollups",
            "explore.score",
        ] {
            assert!(
                names.contains(span),
                "threads={threads}: no `{span}` span in {names:?}"
            );
        }
    }
}
