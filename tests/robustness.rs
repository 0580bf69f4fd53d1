//! Robustness: the system must degrade gracefully — never panic — under
//! arbitrary query input, and behave correctly under concurrent use.

mod support;

use std::sync::Arc;

use proptest::prelude::*;

use kdap_suite::core::{Explored, Kdap, KdapError, QueryRequest, Refine, SubspaceCache, Verb};
use kdap_suite::datagen::{build_ebiz, EbizScale};

use support::differentiate;

fn session() -> Kdap {
    Kdap::builder(build_ebiz(EbizScale::small(), 7).unwrap())
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any printable-ASCII query string differentiates without panicking
    /// (a query with no usable keyword is a typed `EmptyQuery`), and every
    /// returned interpretation explores without panicking.
    #[test]
    fn arbitrary_queries_never_panic(query in "[ -~]{0,40}") {
        let kdap = session();
        let ranked = match kdap.run(&QueryRequest::new(Verb::Differentiate, &query)) {
            Ok(response) => response.ranked,
            Err(KdapError::EmptyQuery) => Vec::new(),
            Err(err) => panic!("{query:?}: {err}"),
        };
        for r in ranked.iter().take(3) {
            let ex = kdap.explore(&r.net).expect("star net evaluates");
            prop_assert!(ex.subspace_size <= kdap.warehouse().fact_rows());
        }
    }

    /// Queries made of real vocabulary fragments always yield
    /// interpretations whose scores are finite and ordered.
    #[test]
    fn vocabulary_queries_rank_sanely(
        words in proptest::collection::vec(
            proptest::sample::select(vec![
                "columbus", "seattle", "plasma", "lcd", "premium", "october",
                "sydney", "laptop", "projector", "2005",
            ]),
            1..4,
        )
    ) {
        let kdap = session();
        let query = words.join(" ");
        let ranked = differentiate(&kdap, &query);
        for w in ranked.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        for r in &ranked {
            prop_assert!(r.score.is_finite());
            prop_assert!(r.score >= 0.0);
        }
    }
}

/// One hostile `refine` step from raw draws: indexes at and past every
/// boundary, and drill strings that are empty, NUL, 10 kB, almost right,
/// or exactly right (so duplicates of a valid drill occur too).
fn hostile_step(kind: u8, n: usize, text: &str) -> Refine {
    let index = [0, 1, 2, 3, 1 << 40, usize::MAX][n % 6];
    let word = |salt: usize| -> String {
        match (n / 7 + salt) % 7 {
            0 => String::new(),
            1 => "\0".to_string(),
            2 => "x".repeat(10_000),
            3 => text.to_string(),
            4 => "Customer".to_string(),
            5 => "ACCOUNT.AccountType".to_string(),
            _ => "Premium".to_string(),
        }
    };
    match kind % 4 {
        0 => Refine::Up(index),
        1 => Refine::Drop(index),
        2 => Refine::Drill {
            dimension: "Customer".into(),
            attr: "ACCOUNT.AccountType".into(),
            value: "Premium".into(),
        },
        _ => Refine::Drill {
            dimension: word(0),
            attr: word(1),
            value: word(2),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever a socket sends as `refine`, the answer is an exploration
    /// or the typed error — never a panic — and a refused list commits
    /// nothing to either cache.
    #[test]
    fn hostile_refine_lists_never_panic(
        steps in proptest::collection::vec((any::<u8>(), any::<usize>(), "[ -~]{0,12}"), 0..12),
        pick in 1usize..5,
        long in any::<bool>(),
    ) {
        let kdap = Kdap::builder(build_ebiz(EbizScale::small(), 42).unwrap())
            .cache_capacity(16)
            .build()
            .unwrap();
        let mut request = QueryRequest::new(Verb::Explore, "columbus");
        request.pick = pick;
        request.refine = steps
            .iter()
            .map(|(kind, n, text)| hostile_step(*kind, *n, text))
            .collect();
        if long {
            // A thousand steps: the drawn ones, over and over.
            request.refine = request.refine.iter().cycle().take(1000).cloned().collect();
        }
        match kdap.run(&request) {
            Ok(response) => {
                let echoed = response.constraints;
                prop_assert_eq!(echoed.is_some(), !request.refine.is_empty());
                let ex = response.exploration.expect("explore explores");
                prop_assert!(ex.subspace_size <= kdap.warehouse().fact_rows());
            }
            Err(KdapError::BadRefine { step, reason }) => {
                prop_assert!((1..=request.refine.len()).contains(&step), "{step}: {reason}");
                prop_assert_eq!(kdap.subspace_cache_len(), Some(0));
                prop_assert_eq!(kdap.semijoin_cache_len(), Some(0));
            }
            Err(other) => panic!("{} step(s) → {other:?}", request.refine.len()),
        }
        // The body a client would have sent decodes to the same list —
        // or, when it carries an index the JSON layer cannot read exactly
        // (above 2^53 - 1; `usize::MAX` used to slip through by rounding
        // to itself), is refused with a 400 naming the step.
        let body = format!(
            "{{\"keywords\": \"columbus\", \"refine\": {}}}",
            support::refine_json(&request.refine)
        );
        let inexact = request.refine.iter().position(
            |step| matches!(step, Refine::Up(n) | Refine::Drop(n) if *n >= 1 << 53),
        );
        match (QueryRequest::from_json(Verb::Explore, &body), inexact) {
            (Ok(decoded), None) => {
                prop_assert!(decoded.refine == request.refine, "refine list did not round-trip")
            }
            (Err(e), Some(at)) => {
                prop_assert_eq!(e.status, 400);
                let step = format!("`refine` step {}: ", at + 1);
                prop_assert!(e.message.starts_with(&step), "{}", e.message);
                prop_assert!(e.message.ends_with("are not read exactly"), "{}", e.message);
            }
            (decoded, _) => panic!("{body} → {decoded:?}"),
        }
    }
}

#[test]
fn concurrent_sessions_share_cache_safely() {
    let kdap = Arc::new(
        Kdap::builder(build_ebiz(EbizScale::small(), 7).unwrap())
            .cache_capacity(8)
            .build()
            .unwrap(),
    );
    let queries = ["columbus", "seattle", "plasma", "lcd"];
    let mut handles = Vec::new();
    for i in 0..4 {
        let kdap = Arc::clone(&kdap);
        handles.push(std::thread::spawn(move || {
            let mut sizes = Vec::new();
            for _ in 0..5 {
                let ranked = differentiate(&kdap, queries[i % queries.len()]);
                if let Some(r) = ranked.first() {
                    sizes.push(
                        kdap.explore(&r.net)
                            .expect("star net evaluates")
                            .subspace_size,
                    );
                }
            }
            sizes
        }));
    }
    let mut all: Vec<Vec<usize>> = Vec::new();
    for h in handles {
        all.push(h.join().expect("no thread panicked"));
    }
    // Each thread saw consistent sizes across its repeats.
    for sizes in &all {
        assert!(sizes.windows(2).all(|w| w[0] == w[1]));
    }
    let cache = kdap.subspace_cache_counters().unwrap();
    assert_eq!(
        cache.hits + cache.misses,
        20,
        "every explore hit the cache layer"
    );
    assert!(
        cache.hits >= 16,
        "repeats were served from cache: {} hits",
        cache.hits
    );
}

#[test]
fn direct_cache_use_is_thread_safe() {
    let kdap = Arc::new(session());
    let cache = Arc::new(SubspaceCache::new(4));
    let nets: Vec<_> = differentiate(&kdap, "columbus")
        .into_iter()
        .map(|r| r.net)
        .collect();
    let nets = Arc::new(nets);
    let mut handles = Vec::new();
    for t in 0..4 {
        let kdap = Arc::clone(&kdap);
        let cache = Arc::clone(&cache);
        let nets = Arc::clone(&nets);
        handles.push(std::thread::spawn(move || {
            for i in 0..20 {
                let net = &nets[(t + i) % nets.len()];
                let direct = kdap.explore(net).expect("star net evaluates");
                let key = net.explore_key();
                match cache.get(&key, kdap.facet_config()) {
                    Some(hit) => assert_eq!(hit.exploration, direct),
                    None => cache.insert(
                        key,
                        Arc::new(Explored {
                            facet: kdap.facet_config().clone(),
                            exploration: direct,
                        }),
                    ),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }
    assert!(cache.len() <= 4, "capacity respected under contention");
}
