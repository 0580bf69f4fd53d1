//! Observability is a pure observer: enabling the recorder must never
//! change a single result bit — not interpretation ranking, not the
//! exploration aggregates, not facet ordering — at any thread count.
//! The per-query profile tree, in turn, must keep a stable stage
//! structure whether the kernels run on one worker or four (timings
//! differ; the tree does not), and whatever else runs on the session.
//! An EXPLAIN response, which carries that tree without clocks, is the
//! same bytes at any thread count with the recorder on or off.

mod support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread;

use kdap_suite::core::{Kdap, QueryRequest, QueryResponse, Verb, WireFormat};
use kdap_suite::datagen::{
    build_aw_online, build_ebiz, generate_workload, EbizScale, Scale, WorkloadConfig,
};
use kdap_suite::warehouse::Warehouse;

use support::differentiate;

fn sessions(threads: usize) -> (Kdap, Kdap) {
    let off = Kdap::builder(build_ebiz(EbizScale::small(), 42).expect("generator is valid"))
        .threads(threads)
        .build()
        .expect("measure defined");
    let on = Kdap::builder(build_ebiz(EbizScale::small(), 42).expect("generator is valid"))
        .threads(threads)
        .observability(true)
        .build()
        .expect("measure defined");
    (off, on)
}

fn profile(kdap: &Kdap, keywords: &str) -> QueryResponse {
    kdap.run(&QueryRequest::new(Verb::Profile, keywords))
        .expect("profile succeeds")
}

#[test]
fn obs_on_off_results_are_bit_identical_across_thread_counts() {
    for threads in [1usize, 4] {
        let (off, on) = sessions(threads);
        let queries = generate_workload(off.warehouse(), &WorkloadConfig::default());
        let mut explored = 0usize;
        for q in queries.iter().take(24) {
            let text = q.text();
            let ranked_off = differentiate(&off, &text);
            let ranked_on = differentiate(&on, &text);
            assert_eq!(
                ranked_off.len(),
                ranked_on.len(),
                "threads={threads} `{text}`: interpretation count diverged"
            );
            for (a, b) in ranked_off.iter().zip(&ranked_on) {
                assert_eq!(
                    a.score, b.score,
                    "threads={threads} `{text}`: ranking score diverged"
                );
                assert_eq!(
                    a.net.fingerprint(),
                    b.net.fingerprint(),
                    "threads={threads} `{text}`: net diverged"
                );
            }
            if let (Some(a), Some(b)) = (ranked_off.first(), ranked_on.first()) {
                let ex_off = off.explore(&a.net).expect("explore succeeds");
                let ex_on = on.explore(&b.net).expect("explore succeeds");
                assert_eq!(
                    ex_off, ex_on,
                    "threads={threads} `{text}`: exploration diverged"
                );
                explored += 1;
            }
        }
        assert!(explored > 4, "workload produced too few explorable queries");
    }
}

#[test]
fn profile_stage_structure_is_stable_across_thread_counts() {
    let (_, on1) = sessions(1);
    let (_, on4) = sessions(4);
    let p1 = profile(&on1, "columbus lcd");
    let p4 = profile(&on4, "columbus lcd");
    let (tree1, tree4) = (p1.profile.unwrap(), p4.profile.unwrap());
    assert!(!tree1.is_empty(), "profile recorded no stages");
    assert_eq!(
        tree1.stage_names(),
        tree4.stage_names(),
        "profile tree shape must not depend on the worker count"
    );
    assert_eq!(p1.exploration, p4.exploration);
}

#[test]
fn disabled_sessions_record_nothing() {
    let (off, _) = sessions(1);
    assert!(!off.obs().is_enabled());
    // A profile request on a disabled session returns an empty tree
    // rather than erroring — the query itself still runs.
    let report = profile(&off, "columbus lcd");
    assert!(report.profile.unwrap().is_empty());
    assert!(report.exploration.is_some());
    let snap = off.obs().metrics_snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
}

/// Every semi-join cache lookup is a step metric: the roll-up spaces'
/// lookups run on the request's own executor, explain's and profile's
/// included.
#[test]
fn step_metrics_count_every_semijoin_cache_lookup() {
    for threads in [1usize, 4] {
        let (_, kdap) = sessions(threads);
        for (verb, keywords) in [
            (Verb::Explore, "columbus lcd"),
            (Verb::Explain, "columbus lcd"),
            (Verb::Profile, "seattle plasma"),
            (Verb::Explain, "columbus plasma"),
            (Verb::Explore, "columbus plasma"),
            (Verb::Explore, "columbus lcd"),
        ] {
            kdap.run(&QueryRequest::new(verb, keywords))
                .expect("request succeeds");
        }
        let lookups = kdap.semijoin_counters().expect("a cached session");
        assert!(lookups.hits > 0 && lookups.misses > 0, "{lookups:?}");
        let counters = kdap.obs().metrics_snapshot().counters;
        let counted = |name: &str| counters.get(name).copied().unwrap_or(0);
        assert_eq!(
            counted("query.step_cache_hits"),
            lookups.hits,
            "threads={threads}"
        );
        assert_eq!(
            counted("query.step_cache_misses"),
            lookups.misses,
            "threads={threads}"
        );
    }
}

/// The stage names of one profile request.
fn stages(kdap: &Kdap, keywords: &str) -> Vec<String> {
    profile(kdap, keywords)
        .profile
        .expect("profile verb answers a profile")
        .stage_names()
}

#[test]
fn a_profile_holds_only_its_own_request() {
    let (_, kdap) = sessions(1);
    // Warm both queries first: the session memo and the semi-join cache
    // are filled by the first runs, and a later tree is the same tree.
    kdap.run(&QueryRequest::new(Verb::Explore, "columbus plasma"))
        .expect("explore succeeds");
    stages(&kdap, "seattle lcd");
    let alone = stages(&kdap, "seattle lcd");
    let other_alone = stages(&kdap, "columbus plasma");
    // 24 stages (4 of them the roll-up spaces' `semijoin` leaves), then
    // one `facet` leaf per deduplicated facet spec (15).
    assert_eq!(alone.len(), 39, "{alone:#?}");

    // One thread explores while another profiles.
    let stop = AtomicBool::new(false);
    let wrong = thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                kdap.run(&QueryRequest::new(Verb::Explore, "columbus plasma"))
                    .expect("explore succeeds");
            }
        });
        let wrong = (0..200)
            .filter(|_| stages(&kdap, "seattle lcd") != alone)
            .count();
        stop.store(true, Ordering::Relaxed);
        wrong
    });
    assert_eq!(wrong, 0, "profiles holding another request's spans");

    // Two threads profile at once, each its own keywords.
    let (a, b) = thread::scope(|s| {
        let a = s.spawn(|| {
            (0..100)
                .filter(|_| stages(&kdap, "seattle lcd") != alone)
                .count()
        });
        let b = s.spawn(|| {
            (0..100)
                .filter(|_| stages(&kdap, "columbus plasma") != other_alone)
                .count()
        });
        (a.join().expect("no panic"), b.join().expect("no panic"))
    });
    assert_eq!((a, b), (0, 0), "concurrent profiles mixed their trees");
}

/// Each query explained twice — the second time the session cache holds
/// its net — on a fresh cached session over `wh`, encoded.
fn explain_bodies(wh: &Warehouse, queries: &[&str], threads: usize, obs: bool) -> Vec<String> {
    let kdap = Kdap::builder(wh.clone())
        .cache_capacity(8)
        .threads(threads)
        .observability(obs)
        .build()
        .expect("measure defined");
    let mut bodies = Vec::new();
    for q in queries {
        let request = QueryRequest::new(Verb::Explain, *q);
        for held in ["absent", "held"] {
            let body = kdap
                .run(&request)
                .expect("explain succeeds")
                .encode(WireFormat::Json)
                .expect("explain encodes as JSON");
            let note = format!("\"answer_cache\": \"{held}\"");
            assert!(body.contains(&note), "`{q}`: no {note} in {body}");
            bodies.push(body);
        }
    }
    bodies
}

#[test]
fn explain_bytes_do_not_depend_on_threads_or_observability() {
    static EBIZ: OnceLock<Warehouse> = OnceLock::new();
    static AW: OnceLock<Warehouse> = OnceLock::new();
    let fixtures: [(&Warehouse, &[&str]); 2] = [
        (
            EBIZ.get_or_init(|| build_ebiz(EbizScale::small(), 42).expect("generator is valid")),
            &["columbus lcd", "seattle", "columbus plasma"],
        ),
        (
            AW.get_or_init(|| build_aw_online(Scale::small(), 42).expect("generator is valid")),
            &["mountain bikes", "mountain", "california"],
        ),
    ];
    for (wh, queries) in fixtures {
        let reference = explain_bodies(wh, queries, 1, false);
        for body in &reference {
            assert!(body.contains("\"explain\": {"), "{body}");
            assert!(
                !body.contains("wall_ns") && !body.contains("total_ns"),
                "{body}"
            );
        }
        for (threads, obs) in [(1, true), (4, false), (4, true)] {
            assert_eq!(
                explain_bodies(wh, queries, threads, obs),
                reference,
                "threads={threads} observability={obs}"
            );
        }
    }
}
