//! Query-governance integration tests: deadlines, cooperative
//! cancellation, and memory budgets must abort cleanly with typed errors,
//! never panic, and never poison the session caches with partial state —
//! under both serial and parallel execution.

mod support;

use std::time::Duration;

use std::collections::{BTreeSet, HashSet};

use kdap_suite::core::facet::path_for_attr;
use kdap_suite::core::{
    CancelToken, Kdap, KdapBuilder, KdapError, QueryOptions, QueryRequest, StarNet, Verb,
};
use kdap_suite::datagen::{
    build_aw_online, build_ebiz, generate_workload, EbizScale, Scale, WorkloadConfig,
};
use kdap_suite::query::JoinPath;
use kdap_suite::warehouse::{ColRef, Warehouse};

use support::differentiate;

const THREADS: [usize; 2] = [1, 4];

fn builder(threads: usize) -> KdapBuilder {
    Kdap::builder(build_ebiz(EbizScale::small(), 7).unwrap())
        .cache_capacity(16)
        .threads(threads)
}

fn session(threads: usize) -> Kdap {
    builder(threads).build().unwrap()
}

/// `verb` over `keywords` under per-request governance overrides.
fn governed(verb: Verb, keywords: &str, options: QueryOptions) -> QueryRequest {
    QueryRequest::new(verb, keywords).with_options(options)
}

/// Per-call governance overrides: an already-expired deadline.
fn expired() -> QueryOptions {
    QueryOptions {
        timeout_ms: Some(0),
        ..QueryOptions::default()
    }
}

/// Per-call governance overrides: a one-byte memory budget.
fn one_byte() -> QueryOptions {
    QueryOptions {
        budget_bytes: Some(1),
        ..QueryOptions::default()
    }
}

#[test]
fn zero_deadline_times_out_differentiate() {
    for threads in THREADS {
        let kdap = builder(threads).deadline(Duration::ZERO).build().unwrap();
        match kdap.run(&QueryRequest::new(Verb::Differentiate, "columbus lcd")) {
            Err(KdapError::Timeout { stage, .. }) => {
                assert!(!stage.is_empty(), "breach reports its stage");
            }
            other => panic!("expected Timeout with {threads} thread(s), got {other:?}"),
        }
    }
}

#[test]
fn zero_deadline_times_out_explore() {
    for threads in THREADS {
        let kdap = session(threads);
        let ranked = differentiate(&kdap, "columbus");
        assert!(!ranked.is_empty());
        let net = ranked[0].net.clone();
        match kdap.run(&governed(Verb::Explore, "columbus", expired())) {
            Err(KdapError::Timeout { stage, .. }) => assert!(!stage.is_empty()),
            other => panic!("expected Timeout with {threads} thread(s), got {other:?}"),
        }
        // The override applied to that call only, and the deadline clock
        // restarts per query, so earlier breaches leave no residue.
        kdap.explore(&net).expect("no deadline, no breach");
        // A session-wide deadline from the builder governs every call.
        let strict = builder(threads).deadline(Duration::ZERO).build().unwrap();
        assert!(matches!(
            strict.explore(&net),
            Err(KdapError::Timeout { .. })
        ));
    }
}

#[test]
fn pre_cancelled_token_aborts_the_next_query() {
    for threads in THREADS {
        let kdap = session(threads);
        let token = kdap.cancel_token();
        let ranked = differentiate(&kdap, "columbus");
        let net = ranked[0].net.clone();
        token.cancel();
        match kdap.explore(&net) {
            Err(KdapError::Cancelled { .. }) => {}
            other => panic!("expected Cancelled with {threads} thread(s), got {other:?}"),
        }
        token.reset();
        kdap.explore(&net).expect("reset token runs normally");
    }
}

#[test]
fn cancellation_from_another_thread_stops_a_running_query() {
    let kdap = session(4);
    let token = kdap.cancel_token();
    let ranked = differentiate(&kdap, "columbus");
    let net = ranked[0].net.clone();
    let canceller = std::thread::spawn({
        let token = token.clone();
        move || {
            std::thread::sleep(Duration::from_millis(5));
            token.cancel();
        }
    });
    // Re-run the query until the asynchronous cancel lands; the flag
    // persists until reset, so one of the runs must observe it.
    let give_up = std::time::Instant::now() + Duration::from_secs(30);
    let mut cancelled = false;
    while std::time::Instant::now() < give_up {
        match kdap.explore(&net) {
            Ok(_) => continue,
            Err(KdapError::Cancelled { .. }) => {
                cancelled = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    canceller.join().unwrap();
    assert!(cancelled, "cancellation was never observed");
    token.reset();
    kdap.explore(&net).expect("token reset restores service");
}

#[test]
fn tiny_budget_is_exceeded_and_reported() {
    for threads in THREADS {
        let kdap = session(threads);
        let ranked = differentiate(&kdap, "columbus");
        let net = ranked[0].net.clone();
        match kdap.run(&governed(Verb::Explore, "columbus", one_byte())) {
            Err(KdapError::BudgetExceeded {
                stage,
                budget_bytes,
                charged_bytes,
            }) => {
                assert!(!stage.is_empty());
                assert_eq!(budget_bytes, 1);
                assert!(charged_bytes > budget_bytes);
            }
            other => panic!("expected BudgetExceeded with {threads} thread(s), got {other:?}"),
        }
        kdap.explore(&net).expect("no budget, no breach");
        // A session-wide budget from the builder governs every call.
        let strict = builder(threads).memory_budget(1).build().unwrap();
        assert!(matches!(
            strict.explore(&net),
            Err(KdapError::BudgetExceeded { .. })
        ));
    }
}

#[test]
fn empty_and_stopword_queries_are_typed_errors() {
    let kdap = session(1);
    for q in ["", "   ", "!!! ???", "the and of", "a the with"] {
        match kdap.run(&QueryRequest::new(Verb::Differentiate, q)) {
            Err(KdapError::EmptyQuery) => {}
            other => panic!("{q:?}: expected EmptyQuery, got {other:?}"),
        }
    }
    // Usable-but-unmatched keywords are an empty result, not an error.
    let unmatched = kdap.run(&QueryRequest::new(Verb::Differentiate, "zzzzqqqq"));
    assert!(unmatched.unwrap().ranked.is_empty());
}

#[test]
fn breaches_increment_governor_counters() {
    let kdap = builder(1).observability(true).build().unwrap();
    for keywords in ["columbus lcd", "seattle"] {
        let request = governed(Verb::Differentiate, keywords, expired());
        assert!(matches!(kdap.run(&request), Err(KdapError::Timeout { .. })));
    }
    let token = kdap.cancel_token();
    token.cancel();
    let ranked_err = kdap.run(&QueryRequest::new(Verb::Differentiate, "columbus"));
    assert!(matches!(ranked_err, Err(KdapError::Cancelled { .. })));
    let snap = kdap.obs().metrics_snapshot();
    assert_eq!(snap.counters.get("governor.timeouts"), Some(&2));
    assert_eq!(snap.counters.get("governor.cancellations"), Some(&1));
}

/// The cache-poisoning invariant: a query that breaches a limit commits
/// nothing — entry counts stay put, and the session afterwards produces
/// results identical to a session that never saw the failed query.
#[test]
fn timed_out_query_leaves_caches_unpoisoned() {
    for threads in THREADS {
        let kdap = session(threads);
        // Warm the caches with a successful exploration.
        let ranked = differentiate(&kdap, "columbus");
        let warm = kdap.explore(&ranked[0].net).unwrap();
        let semijoin_len = kdap.semijoin_cache_len();
        let subspace_len = kdap.subspace_cache_len();
        assert!(semijoin_len.unwrap_or(0) > 0, "warm-up populated the cache");

        // A different query breaches the deadline before committing.
        let victim = differentiate(&kdap, "seattle");
        assert!(!victim.is_empty());
        for pick in 1..=victim.len().min(3) {
            let mut request = governed(Verb::Explore, "seattle", expired());
            request.pick = pick;
            assert!(matches!(kdap.run(&request), Err(KdapError::Timeout { .. })));
        }
        assert_eq!(kdap.semijoin_cache_len(), semijoin_len);
        assert_eq!(kdap.subspace_cache_len(), subspace_len);
        // A request-level deadline of zero fires in the differentiate
        // stage; a session whose every call is already late breaches
        // inside the explore stage itself, and commits nothing either.
        let strict = builder(threads).deadline(Duration::ZERO).build().unwrap();
        for r in victim.iter().take(3) {
            assert!(matches!(
                strict.explore(&r.net),
                Err(KdapError::Timeout { .. })
            ));
        }
        assert_eq!(strict.semijoin_cache_len(), Some(0));
        assert_eq!(strict.subspace_cache_len(), Some(0));

        // The surviving session renders the warm query exactly as a
        // control session that never ran the failed one.
        let again = kdap.explore(&ranked[0].net).unwrap();
        let control = session(threads);
        let control_ranked = differentiate(&control, "columbus");
        let control_ex = control.explore(&control_ranked[0].net).unwrap();
        assert_eq!(format!("{warm:?}"), format!("{again:?}"));
        assert_eq!(format!("{again:?}"), format!("{control_ex:?}"));
    }
}

/// A budget breach mid-query must obey the same invariant as a timeout.
#[test]
fn budget_breach_leaves_caches_unpoisoned() {
    for threads in THREADS {
        let kdap = session(threads);
        let ranked = differentiate(&kdap, "columbus");
        kdap.explore(&ranked[0].net).unwrap();
        let semijoin_len = kdap.semijoin_cache_len();
        let subspace_len = kdap.subspace_cache_len();

        for pick in 1..=differentiate(&kdap, "seattle").len().min(3) {
            let mut request = governed(Verb::Explore, "seattle", one_byte());
            request.pick = pick;
            assert!(matches!(
                kdap.run(&request),
                Err(KdapError::BudgetExceeded { .. })
            ));
        }
        assert_eq!(kdap.semijoin_cache_len(), semijoin_len);
        assert_eq!(kdap.subspace_cache_len(), subspace_len);
    }
}

/// Abort semantics, decided: **complete entries only, never partial**. A
/// cancel injected at the *k*-th governance poll — for every *k* an
/// explore reaches, so in the lookup's own poll, between semi-join steps
/// and inside each facet scan — is the typed `Cancelled`. Each *k* runs on
/// a freshly warmed session. The abort leaves the session LRU's length,
/// contents and eviction counter exactly as a session that never saw the
/// request; the failed request's own lookup counts its one miss. The
/// semi-join steps and whole-dataspace groups it finished stay behind,
/// and change no answer: the victim, re-run ungoverned on the same
/// session, renders byte-equal to a fresh session's answer.
#[test]
fn a_cancel_at_any_poll_commits_no_session_cache_entry() {
    let ebiz = build_ebiz(EbizScale::small(), 7).unwrap();
    let aw = build_aw_online(Scale::small(), 42).unwrap();
    for threads in THREADS {
        for (wh, warm, victim) in [
            (&ebiz, ["columbus", "premium"], "seattle lcd"),
            (&aw, ["mountain", "california"], "mountain bikes"),
            (&aw, ["mountain", "california"], "clothing"),
        ] {
            // A full two-entry LRU: any commit would also evict.
            let session = || {
                Kdap::builder(wh.clone())
                    .cache_capacity(2)
                    .threads(threads)
                    .build()
                    .unwrap()
            };
            let fresh = render(&session(), victim);
            let mut stages = BTreeSet::new();
            for k in 1.. {
                let context = format!("threads={threads} `{victim}` k={k}");
                let kdap = session();
                let control: Vec<String> = warm.iter().map(|q| render(&kdap, q)).collect();
                assert_eq!(kdap.subspace_cache_len(), Some(2));
                let memo = kdap.dataspace_groups_len();
                let before = kdap.subspace_cache_counters().unwrap();
                let token = CancelToken::cancelling_at_poll(k);
                match kdap.run_cancellable(&explore(victim), Some(token)) {
                    Err(KdapError::Cancelled { stage }) => stages.insert(stage),
                    // Poll k is past the query's last one: it ran to
                    // completion and committed its one complete entry, and
                    // its whole-dataspace groups (`clothing` rolls up to ALL).
                    Ok(response) => {
                        let answer = response.exploration.unwrap();
                        assert_eq!(format!("{answer:?}"), fresh, "{context}");
                        let end = kdap.subspace_cache_counters().unwrap();
                        assert_eq!(kdap.subspace_cache_len(), Some(2), "{context}");
                        assert_eq!(end.evictions, 1, "{context}");
                        if victim == "clothing" {
                            assert!(kdap.dataspace_groups_len() > memo, "{context}");
                        }
                        break;
                    }
                    Err(other) => panic!("{context}: {other:?}"),
                };
                let after = kdap.subspace_cache_counters().unwrap();
                assert_eq!(kdap.subspace_cache_len(), Some(2), "{context}");
                assert_eq!(after.evictions, before.evictions, "{context}");
                assert_eq!(after.hits, before.hits, "{context}");
                assert!(after.misses - before.misses <= 1, "{context}");
                // Contents: both warm entries are still there, and still right.
                for (q, rendered) in warm.iter().zip(&control) {
                    assert_eq!(&render(&kdap, q), rendered, "{context}");
                }
                let touched = kdap.subspace_cache_counters().unwrap();
                assert_eq!(touched.hits, after.hits + 2, "{context}");
                assert_eq!(touched.evictions, before.evictions, "{context}");
                // What the abort left in the semi-join cache and the memo
                // changes no answer.
                assert_eq!(render(&kdap, victim), fresh, "{context}");
            }
            for stage in [
                "generate_star_nets",
                "explore",
                "semijoin",
                "multi_group_by",
            ] {
                assert!(
                    stages.contains(stage),
                    "threads={threads} `{victim}`: no breach in `{stage}` among {stages:?}"
                );
            }
        }
    }
}

/// A cold session builds every pre-joined column an explore reads, then
/// polls and charges for them, then inserts them all, before its first
/// facet scan. So a cancel at the first poll of stage `multi_group_by`
/// leaves none of them, a cancel at any poll leaves none or all of them,
/// never some, and the next request's body is byte-equal to a fresh
/// session's. (That the columns' own poll comes before their insert is
/// pinned by `columns_are_inserted_only_after_their_poll_and_charge` in
/// `crates/core/src/facet/fused.rs`.)
#[test]
fn a_cancel_while_building_columns_leaves_none() {
    let aw = build_aw_online(Scale::small(), 42).unwrap();
    for threads in THREADS {
        for victim in ["mountain bikes", "clothing"] {
            let session = || Kdap::builder(aw.clone()).threads(threads).build().unwrap();
            let fresh = render(&session(), victim);
            let all = {
                let kdap = session();
                render(&kdap, victim);
                kdap.joined_columns_len()
            };
            assert!(all > 0, "`{victim}` reads pre-joined columns");
            // Columns left by each cancel, in poll order, and by the
            // first cancel in `multi_group_by`.
            let mut seen = Vec::new();
            let mut at_first_scan_poll = None;
            for k in 1.. {
                let context = format!("threads={threads} `{victim}` k={k}");
                let kdap = session();
                let token = CancelToken::cancelling_at_poll(k);
                let outcome = kdap.run_cancellable(&explore(victim), Some(token));
                let columns = kdap.joined_columns_len();
                assert!(
                    columns == 0 || columns == all,
                    "{context}: {columns} of {all}"
                );
                seen.push(columns);
                assert_eq!(render(&kdap, victim), fresh, "{context}");
                match outcome {
                    Ok(_) => break,
                    Err(KdapError::Cancelled {
                        stage: "multi_group_by",
                    }) => {
                        at_first_scan_poll.get_or_insert(columns);
                    }
                    Err(KdapError::Cancelled { .. }) => {}
                    Err(other) => panic!("{context}: {other:?}"),
                }
            }
            assert_eq!(at_first_scan_poll, Some(0), "threads={threads} `{victim}`");
            assert!(
                seen.is_sorted() && seen.last() == Some(&all),
                "threads={threads} `{victim}`: columns after each cancel {seen:?}"
            );
        }
    }
}

/// An ungoverned explore of `keywords`' top interpretation.
fn explore(keywords: &str) -> QueryRequest {
    QueryRequest::new(Verb::Explore, keywords)
}

/// The answer of an ungoverned explore of `keywords` on `kdap`, as its
/// `Debug` text: every float to the last bit.
fn render(kdap: &Kdap, keywords: &str) -> String {
    let response = kdap.run(&explore(keywords)).unwrap();
    format!("{:?}", response.exploration.unwrap())
}

/// The `(attribute, join path)` facet candidates an explore of `net`
/// considers: each constraint's own attribute on its own path, then every
/// declared group-by candidate on the path the net prefers.
fn facet_candidates(wh: &Warehouse, net: &StarNet) -> Vec<(ColRef, JoinPath)> {
    let schema = wh.schema();
    let mut out = Vec::new();
    for dim in schema.dimensions() {
        for c in &net.constraints {
            if c.path.dimension(schema) == Some(dim.id) {
                out.push((c.group.attr, c.path.clone()));
            }
        }
        for cand in &dim.groupby_candidates {
            if let Some(path) = path_for_attr(wh, net, dim, cand.attr.table) {
                out.push((cand.attr, path));
            }
        }
    }
    out
}

/// Session memory bounded by design, not by traffic: after the whole
/// workload population, the whole-dataspace memo holds at most one group
/// per distinct `(attribute, join path)` candidate, plus the total, and
/// the session holds exactly one pre-joined column per distinct
/// candidate. A second pass over the population adds to neither.
#[test]
fn the_dataspace_memo_is_bounded_by_the_candidates() {
    let ebiz = build_ebiz(EbizScale::small(), 7).unwrap();
    let aw = build_aw_online(Scale::small(), 42).unwrap();
    let aw_full = build_aw_online(Scale::full(), 42).unwrap();
    for wh in [ebiz, aw, aw_full] {
        let kdap = Kdap::builder(wh).build().unwrap();
        let wh = kdap.warehouse();
        let population = generate_workload(wh, &WorkloadConfig::default());
        let mut candidates = HashSet::new();
        for q in &population {
            for r in differentiate(&kdap, &q.text()).iter().take(3) {
                kdap.explore(&r.net).unwrap();
                candidates.extend(facet_candidates(wh, &r.net));
            }
        }
        let memo = kdap.dataspace_groups_len();
        assert!(memo > 0, "some roll-up reached the whole dataspace");
        assert!(
            memo <= candidates.len() + 1,
            "{memo} groups for {} candidates",
            candidates.len()
        );
        let joined = candidates.len();
        assert_eq!(kdap.joined_columns_len(), joined);
        for q in &population {
            for r in differentiate(&kdap, &q.text()).iter().take(3) {
                kdap.explore(&r.net).unwrap();
            }
        }
        assert_eq!(kdap.dataspace_groups_len(), memo, "second pass");
        assert_eq!(kdap.joined_columns_len(), joined, "second pass");
    }
}

/// The budget half of the same fault injection: a request explores a cold
/// session under byte budgets `1 << k`, k = 0..=40, one session per
/// budget, so some budget breaches at each charge a cold explore makes.
/// Every run is the answer or the typed `BudgetExceeded`, and once a
/// budget answers, every larger one does. A breach commits nothing to the
/// session LRU, and what it left in the semi-join cache and the memo
/// changes no answer: the victim, re-run ungoverned on the same session,
/// renders byte-equal to a fresh session's answer. (`clothing` rolls up to
/// ALL, so its answer fills the memo.)
#[test]
fn a_budget_breach_at_any_charge_commits_no_partial_state() {
    let ebiz = build_ebiz(EbizScale::small(), 7).unwrap();
    let aw = build_aw_online(Scale::small(), 42).unwrap();
    for threads in THREADS {
        for (wh, victim) in [
            (&aw, "mountain bikes"),
            (&ebiz, "seattle lcd"),
            (&aw, "clothing"),
        ] {
            let session = || {
                Kdap::builder(wh.clone())
                    .cache_capacity(2)
                    .threads(threads)
                    .build()
                    .unwrap()
            };
            let fresh = render(&session(), victim);
            let all_columns = {
                let kdap = session();
                render(&kdap, victim);
                kdap.joined_columns_len()
            };
            let mut answered = None;
            let mut stages = BTreeSet::new();
            for k in 0..=40 {
                let context = format!("threads={threads} `{victim}` budget=1<<{k}");
                let kdap = session();
                let budget = QueryOptions {
                    budget_bytes: Some(1 << k),
                    ..QueryOptions::default()
                };
                match kdap.run(&governed(Verb::Explore, victim, budget)) {
                    Ok(response) => {
                        answered.get_or_insert(k);
                        let answer = response.exploration.unwrap();
                        assert_eq!(format!("{answer:?}"), fresh, "{context}");
                        if victim == "clothing" {
                            assert!(kdap.dataspace_groups_len() > 0, "{context}");
                        }
                    }
                    Err(KdapError::BudgetExceeded {
                        stage,
                        budget_bytes,
                        charged_bytes,
                    }) => {
                        assert!(answered.is_none(), "{context}: breached after an answer");
                        // The columns go in whole after their charge.
                        let columns = kdap.joined_columns_len();
                        assert!(
                            columns == 0 || columns == all_columns,
                            "{context}: {columns} of {all_columns} columns"
                        );
                        assert_eq!(budget_bytes, 1 << k, "{context}");
                        assert!(charged_bytes > budget_bytes, "{context}");
                        assert_eq!(kdap.subspace_cache_len(), Some(0), "{context}");
                        assert_eq!(render(&kdap, victim), fresh, "{context}");
                        stages.insert(stage);
                    }
                    Err(other) => panic!("{context}: {other:?}"),
                }
            }
            assert!(
                answered.is_some(),
                "threads={threads} `{victim}`: never answered"
            );
            for stage in ["semijoin", "multi_group_by"] {
                assert!(
                    stages.contains(stage),
                    "threads={threads} `{victim}`: no breach in `{stage}` among {stages:?}"
                );
            }
        }
    }
}
