//! There is one path from `Kdap::run` to the kernels: the typed request
//! and the `explore` convenience are the same pipeline, a request's
//! `refine` list is `navigate::*` applied in order before it, and a drill
//! lands on the subspace the clicked facet entry was aggregated over —
//! at any thread count. The session cache is not a second path either: a
//! cached session answers every request byte for byte as a cache-less one,
//! and its key identifies everything an exploration depends on. That
//! pipeline's profile must also carry the span names the frozen benchmark
//! (`kdap_bench/src/layers.rs`) reads its per-layer numbers from.

mod support;

use std::collections::BTreeSet;
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kdap_suite::core::facet::path_for_attr;
use kdap_suite::core::{
    drill_down, remove_constraint, roll_up, Constraint, Exploration, FacetOrder, InterestMode,
    Kdap, ProfileNode, QueryRequest, Refine, StarNet, Verb, WireFormat,
};
use kdap_suite::datagen::{
    build_aw_online, build_ebiz, generate_workload, EbizScale, Scale, WorkloadConfig,
};
use kdap_suite::query::{AggFunc, JoinPath};
use kdap_suite::warehouse::{AttrKind, ColRef, Dimension, Warehouse};

use support::{differentiate, workload};

/// Every eighth workload query: a spread of one- to three-keyword nets.
const SAMPLE_STRIDE: usize = 8;

const THREADS: [usize; 2] = [1, 4];

/// EBiz small at the CLI's default seed, behind a serial and a
/// four-thread session. Its Customer dimension is role-playing: ACCOUNT
/// is reached as Buyer and as Seller.
fn ebiz(threads: usize) -> &'static Kdap {
    static SESSIONS: OnceLock<[Kdap; 2]> = OnceLock::new();
    let sessions = SESSIONS.get_or_init(|| {
        THREADS.map(|threads| {
            Kdap::builder(build_ebiz(EbizScale::small(), 42).expect("generator is valid"))
                .threads(threads)
                .build()
                .expect("measure defined")
        })
    });
    &sessions[THREADS.iter().position(|&t| t == threads).unwrap()]
}

const EBIZ_QUERIES: [&str; 5] = [
    "columbus",
    "seattle lcd",
    "premium",
    "portland laptop",
    "october",
];

#[test]
fn run_and_explore_are_one_pipeline() {
    let fx = workload();
    for threads in THREADS {
        let kdap = fx.session(threads);
        for (keywords, _) in fx.queries.iter().step_by(SAMPLE_STRIDE) {
            let response = kdap
                .run(&QueryRequest::new(Verb::Explore, keywords))
                .expect("workload queries explore");
            let via_run = response.exploration.expect("explore verb explores");
            let net = &response.ranked[0].net;
            let via_explore = kdap.explore(net).expect("explore succeeds");
            assert_eq!(via_run, via_explore, "threads={threads} `{keywords}`");
            // And the thread count is not a second path either.
            let serial = fx.serial.explore(net).expect("explore succeeds");
            assert_eq!(via_run, serial, "threads={threads} `{keywords}`");
        }
    }
}

/// The join path a facet of `dim` on `attr` is aggregated over, derived
/// the way §5.2.1 states it rather than by reading the engine's task
/// list: a hit attribute keeps its constraint's path; any other candidate
/// takes the dimension's preferred path to its table.
fn facet_path(wh: &Warehouse, net: &StarNet, dim: &Dimension, attr: ColRef) -> JoinPath {
    net.constraints
        .iter()
        .find(|c| c.group.attr == attr && c.path.dimension(wh.schema()) == Some(dim.id))
        .map(|c| c.path.clone())
        .or_else(|| path_for_attr(wh, net, dim, attr.table))
        .expect("a displayed facet is join-reachable")
}

/// One random navigation step from `net`, whose exploration is `ex`: the
/// request step and the net `navigate::*` derives for it by hand.
fn random_step(
    kdap: &Kdap,
    net: &StarNet,
    ex: &Exploration,
    rng: &mut StdRng,
) -> Option<(Refine, StarNet)> {
    let wh = kdap.warehouse();
    let drills: Vec<(&str, &str, ColRef, &str)> = ex
        .panels
        .iter()
        .flat_map(|p| p.attrs.iter().map(move |a| (p, a)))
        .filter(|(_, a)| a.kind == AttrKind::Categorical)
        .flat_map(|(p, a)| {
            a.entries.iter().map(move |e| {
                (
                    p.dimension.as_str(),
                    a.name.as_str(),
                    a.attr,
                    e.label.as_str(),
                )
            })
        })
        .collect();
    let n = net.n_groups();
    match rng.gen_range(0..5) {
        0 if n > 0 => {
            let i = rng.gen_range(0..n);
            Some((
                Refine::Up(i + 1),
                roll_up(wh, kdap.join_index(), net, i).expect("index in range"),
            ))
        }
        1 if n > 0 => {
            let i = rng.gen_range(0..n);
            Some((
                Refine::Drop(i + 1),
                remove_constraint(net, i).expect("index in range"),
            ))
        }
        _ if !drills.is_empty() => {
            let (dimension, name, attr, label) = drills[rng.gen_range(0..drills.len())];
            let dim = wh.schema().dimension_by_name(dimension).expect("panel");
            let code = wh.column(attr).dict().and_then(|d| d.code_of(label))?;
            let path = facet_path(wh, net, dim, attr);
            Some((
                Refine::Drill {
                    dimension: dimension.to_string(),
                    attr: name.to_string(),
                    value: label.to_string(),
                },
                drill_down(wh, net, attr, &path, vec![code]).expect("code from the dictionary"),
            ))
        }
        _ => None,
    }
}

/// Walks up to four random steps from a random top-3 interpretation of
/// `keywords`, holding `run(request with refine)` to `navigate::*` by
/// hand + `explore(&net)` after every step.
fn walk(kdap: &Kdap, keywords: &str, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ranked = differentiate(kdap, keywords);
    assert!(!ranked.is_empty(), "`{keywords}` has interpretations");
    let pick = rng.gen_range(0..ranked.len().min(3));
    let mut net = ranked[pick].net.clone();
    let mut request = QueryRequest::new(Verb::Explore, keywords);
    request.pick = pick + 1;
    for _ in 0..rng.gen_range(1..=4) {
        let ex = kdap.explore(&net).expect("explore succeeds");
        let Some((step, next)) = random_step(kdap, &net, &ex, &mut rng) else {
            break;
        };
        request.refine.push(step);
        net = next;
        let context = format!("`{keywords}` seed {seed}: {:?}", request.refine);
        let response = kdap.run(&request).expect(&context);
        assert_eq!(
            response.exploration.expect("explore verb explores"),
            kdap.explore(&net).expect("explore succeeds"),
            "{context}"
        );
        let echoed: Vec<String> = response
            .constraints
            .expect("refine echoes the net")
            .into_iter()
            .map(|c| c.display)
            .collect();
        assert_eq!(
            echoed.join("  ⋈  "),
            net.display(kdap.warehouse()),
            "{context}"
        );
    }
}

#[test]
fn refine_is_navigate_by_hand_then_explore() {
    let fx = workload();
    for threads in THREADS {
        for seed in 0..6 {
            for keywords in EBIZ_QUERIES {
                walk(ebiz(threads), keywords, seed);
            }
            for (keywords, _) in fx.queries.iter().step_by(SAMPLE_STRIDE) {
                walk(fx.session(threads), keywords, seed);
            }
        }
    }
}

/// Every categorical entry of every panel of `keywords`' interpretation
/// `pick` under the default `Sum`: drilling into it lands on a non-empty
/// subspace whose total is the entry's aggregate.
fn assert_drills_land_on_their_entries(kdap: &Kdap, keywords: &str, pick: usize) {
    let mut request = QueryRequest::new(Verb::Explore, keywords);
    request.pick = pick;
    let shown = kdap.run(&request).expect("explores").exploration.unwrap();
    for panel in &shown.panels {
        for attr in panel
            .attrs
            .iter()
            .filter(|a| a.kind == AttrKind::Categorical)
        {
            for entry in &attr.entries {
                request.refine = vec![Refine::Drill {
                    dimension: panel.dimension.clone(),
                    attr: attr.name.clone(),
                    value: entry.label.clone(),
                }];
                let context = format!(
                    "`{keywords}` #{pick}: [{}] {} = {}",
                    panel.dimension, attr.name, entry.label
                );
                let drilled = kdap.run(&request).expect(&context).exploration.unwrap();
                assert!(drilled.subspace_size > 0, "{context}");
                let tolerance = 1e-9 * entry.aggregate.abs().max(1.0);
                assert!(
                    (drilled.total_aggregate - entry.aggregate).abs() <= tolerance,
                    "{context}: entry shows {}, drill totals {}",
                    entry.aggregate,
                    drilled.total_aggregate
                );
            }
        }
    }
}

#[test]
fn a_drill_lands_on_the_subspace_its_entry_was_aggregated_over() {
    for threads in THREADS {
        let kdap = ebiz(threads);
        // `columbus` as a Store, a Buyer and a Seller city: on the Seller
        // net the Customer facets follow the Seller role, which is not
        // the first path to ACCOUNT.
        let roles = differentiate(kdap, "columbus");
        for role in ["STORE", "(Buyer)", "(Seller)"] {
            let pick = roles
                .iter()
                .position(|r| r.net.display(kdap.warehouse()).contains(role))
                .unwrap_or_else(|| panic!("`columbus` has a {role} interpretation"));
            assert_drills_land_on_their_entries(kdap, "columbus", pick + 1);
        }
        for keywords in EBIZ_QUERIES {
            for pick in 1..=differentiate(kdap, keywords).len().min(3) {
                assert_drills_land_on_their_entries(kdap, keywords, pick);
            }
        }
    }
    let fx = workload();
    for threads in THREADS {
        for (keywords, nets) in fx.queries.iter().step_by(SAMPLE_STRIDE) {
            for pick in 1..=nets.len().min(2) {
                assert_drills_land_on_their_entries(fx.session(threads), keywords, pick);
            }
        }
    }
}

#[test]
fn profile_emits_the_span_names_the_benchmark_reads() {
    /// Every stage name, and every `parent > child` pair of names.
    fn collect(node: &ProfileNode, names: &mut BTreeSet<String>) {
        names.insert(node.name.clone());
        for child in &node.children {
            names.insert(format!("{} > {}", node.name, child.name));
            collect(child, names);
        }
    }
    let fx = workload();
    for threads in THREADS {
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
            // The roll-up spaces' steps are recorded where they run.
            "explore.rollups > semijoin",
        ] {
            assert!(
                names.contains(span),
                "threads={threads}: no `{span}` span in {names:?}"
            );
        }
    }
}

/// `net` rebuilt from nothing but what its key covers: each constraint's
/// path, attribute and codes through [`Constraint::exact`] (hit scores
/// become 1.0, matched keywords are forgotten). Numeric-range constraints
/// have no other constructor and are kept.
fn rebuilt(wh: &Warehouse, net: &StarNet) -> StarNet {
    let constraints = net.constraints.iter().map(|c| match c.group.numeric {
        Some(_) => c.clone(),
        None => Constraint::exact(wh, c.group.attr, c.path.clone(), &c.group.codes())
            .expect("codes come from the dictionary"),
    });
    StarNet {
        constraints: constraints.collect(),
    }
}

/// Two drills of `net` into entries of different facets, applied in both
/// orders by hand (each on the path its facet has at that point).
fn drilled_both_ways(kdap: &Kdap, net: &StarNet, rng: &mut StdRng) -> Option<(StarNet, StarNet)> {
    let wh = kdap.warehouse();
    let ex = kdap.explore(net).expect("explore succeeds");
    let entries: Vec<(&str, ColRef, &str)> = ex
        .panels
        .iter()
        .flat_map(|p| p.attrs.iter().map(move |a| (p, a)))
        .filter(|(_, a)| a.kind == AttrKind::Categorical && !a.entries.is_empty())
        .map(|(p, a)| {
            let entry = &a.entries[rng.gen_range(0..a.entries.len())];
            (p.dimension.as_str(), a.attr, entry.label.as_str())
        })
        .collect();
    if entries.len() < 2 {
        return None;
    }
    let a = entries[rng.gen_range(0..entries.len())];
    let b = entries[rng.gen_range(0..entries.len())];
    if a.1 == b.1 {
        return None;
    }
    let drill = |net: &StarNet, (dimension, attr, label): (&str, ColRef, &str)| {
        let dim = wh.schema().dimension_by_name(dimension).expect("panel");
        let code = wh.column(attr).dict().and_then(|d| d.code_of(label))?;
        drill_down(wh, net, attr, &facet_path(wh, net, dim, attr), vec![code])
    };
    Some((drill(&drill(net, a)?, b)?, drill(&drill(net, b)?, a)?))
}

/// The session cache's key, [`StarNet::explore_key`], identifies
/// everything its value depends on: nets with equal keys explore
/// identically even when everything the key leaves out differs — and it
/// has to be the *ordered* constraint fingerprints, because the
/// order-independent [`StarNet::fingerprint`] does not: reversing a net
/// that constrains a role-playing dimension on both roles keeps the
/// fingerprint and changes the Customer panel.
#[test]
fn nets_with_equal_explore_keys_explore_identically() {
    let fx = workload();
    for threads in THREADS {
        let aw = fx.session(threads);
        let aw_nets = fx.queries.iter().step_by(SAMPLE_STRIDE);
        let aw_nets = aw_nets.flat_map(|(_, nets)| nets.iter().take(3).cloned());
        let kdap = ebiz(threads);
        let ebiz_nets = EBIZ_QUERIES.iter().flat_map(|q| differentiate(kdap, q));
        let ebiz_nets = ebiz_nets.map(|r| r.net);
        let fixtures = [
            (aw, aw_nets.collect::<Vec<StarNet>>()),
            (kdap, ebiz_nets.collect()),
        ];
        for (kdap, nets) in fixtures {
            let wh = kdap.warehouse();
            let explore = |net: &StarNet| kdap.explore(net).expect("explore succeeds");
            let mut rng = StdRng::seed_from_u64(24);
            let mut permuted = 0;
            for net in &nets {
                let context = format!("threads={threads} {}", net.display(wh));
                // A keyword net and its rebuild: different scores and
                // keywords, same key, same exploration.
                let twin = rebuilt(wh, net);
                assert_eq!(net.explore_key(), twin.explore_key(), "{context}");
                assert_eq!(explore(net), explore(&twin), "{context}");
                // Drill A→B and B→A: one subspace, two keys — and each
                // order, rebuilt, is again its own twin.
                let Some((ab, ba)) = drilled_both_ways(kdap, net, &mut rng) else {
                    continue;
                };
                permuted += 1;
                assert_ne!(ab.explore_key(), ba.explore_key(), "{context}");
                assert_eq!(explore(&ab).subspace_size, explore(&ba).subspace_size);
                for order in [&ab, &ba] {
                    let twin = rebuilt(wh, order);
                    assert_eq!(order.explore_key(), twin.explore_key(), "{context}");
                    assert_eq!(explore(order), explore(&twin), "{context}");
                }
            }
            assert!(
                permuted >= 5,
                "threads={threads}: {permuted} permuted drills"
            );
        }

        // Why the key is ordered. Washington as Buyer state and as Seller
        // state (`seattle` in both roles, each rolled up once): the
        // Customer panel's promoted LOCATION.State facet follows the first
        // constraint's role.
        let kdap = ebiz(threads);
        let wh = kdap.warehouse();
        let washington = |role: &str| {
            let nets = differentiate(kdap, "seattle").into_iter().map(|r| r.net);
            let mut nets = nets.filter(|net| net.display(wh).contains(role));
            let city = nets.next().expect("seattle is a Buyer and a Seller city");
            let state = roll_up(wh, kdap.join_index(), &city, 0).expect("index in range");
            state.constraints
        };
        let both_roles = StarNet {
            constraints: [washington("(Buyer)"), washington("(Seller)")].concat(),
        };
        let mut reversed = both_roles.clone();
        reversed.constraints.reverse();
        assert_eq!(both_roles.fingerprint(), reversed.fingerprint());
        assert_ne!(both_roles.explore_key(), reversed.explore_key());
        let (forward, backward) = (
            kdap.explore(&both_roles).unwrap(),
            kdap.explore(&reversed).unwrap(),
        );
        assert!(forward.subspace_size > 0, "{}", both_roles.display(wh));
        assert_eq!(forward.subspace_size, backward.subspace_size);
        assert_ne!(
            forward, backward,
            "threads={threads}: an order-independent key would conflate these"
        );
    }
}

/// A cached session, a cache-less one over an identical build (neither
/// observed, so `profile` trees are empty), a third session to scout
/// valid navigation steps on — so the two compared sessions see exactly
/// the same requests — and the query pool requests draw from.
struct CacheSweep {
    cached: Kdap,
    plain: Kdap,
    scout: &'static Kdap,
    pool: Vec<String>,
}

const POOL: usize = 24;

impl CacheSweep {
    fn new(wh: impl Fn() -> Warehouse, threads: usize, scout: &'static Kdap) -> Self {
        let builder = || Kdap::builder(wh()).threads(threads);
        let pool = generate_workload(scout.warehouse(), &WorkloadConfig::default());
        let pool = pool.iter().map(|q| q.text());
        let mut pool: Vec<String> = EBIZ_QUERIES
            .iter()
            .map(|q| q.to_string())
            .chain(pool)
            .collect();
        pool.retain(|q| !differentiate(scout, q).is_empty());
        pool.dedup();
        pool.truncate(POOL);
        assert_eq!(pool.len(), POOL, "the fixture answers a full pool");
        CacheSweep {
            // Eight entries for a 24-query pool: eviction fires.
            cached: builder().cache_capacity(8).build().unwrap(),
            plain: builder().build().unwrap(),
            scout,
            pool,
        }
    }

    /// A fresh request: random verb, pick 1–3, a few option overrides and
    /// up to three navigation steps, each valid where it was scouted (the
    /// last two drills are sometimes swapped, which may or may not be).
    fn fresh(&self, rng: &mut StdRng) -> QueryRequest {
        let verb = match rng.gen_range(0..10) {
            0 => Verb::Differentiate,
            1 | 2 => Verb::Explain,
            3 => Verb::Profile,
            _ => Verb::Explore,
        };
        let mut request = QueryRequest::new(verb, &self.pool[rng.gen_range(0..POOL)]);
        request.pick = rng.gen_range(1..=3);
        for _ in 0..rng.gen_range(0..3) {
            flip_option(&mut request, rng);
        }
        if verb == Verb::Differentiate {
            return request;
        }
        for _ in 0..rng.gen_range(0..=3) {
            let scouted = QueryRequest {
                verb: Verb::Explore,
                ..request.clone()
            };
            let Ok(shown) = self.scout.run(&scouted) else {
                break;
            };
            let n = match &shown.constraints {
                Some(echoed) => echoed.len(),
                None => shown.ranked[request.pick - 1].net.n_groups(),
            };
            let ex = shown.exploration.expect("explore verb explores");
            let drills: Vec<Refine> = ex
                .panels
                .iter()
                .flat_map(|p| p.attrs.iter().map(move |a| (p, a)))
                .filter(|(_, a)| a.kind == AttrKind::Categorical)
                .flat_map(|(p, a)| {
                    a.entries.iter().map(move |e| Refine::Drill {
                        dimension: p.dimension.clone(),
                        attr: a.name.clone(),
                        value: e.label.clone(),
                    })
                })
                .collect();
            request.refine.push(match rng.gen_range(0..5) {
                0 if n > 0 => Refine::Up(rng.gen_range(1..=n)),
                1 if n > 0 => Refine::Drop(rng.gen_range(1..=n)),
                _ if !drills.is_empty() => drills[rng.gen_range(0..drills.len())].clone(),
                _ => break,
            });
        }
        let steps = request.refine.len();
        if steps >= 2 && rng.gen_bool(0.5) {
            request.refine.swap(steps - 2, steps - 1);
        }
        request
    }
}

/// Sets or clears one facet option of `request`.
fn flip_option(request: &mut QueryRequest, rng: &mut StdRng) {
    let options = &mut request.options;
    let on = rng.gen_bool(0.5);
    match rng.gen_range(0..5) {
        0 => options.mode = on.then_some(InterestMode::Bellwether),
        1 => {
            let orders = [FacetOrder::Consistent, FacetOrder::Hybrid { pinned: 1 }];
            options.order = on.then_some(orders[rng.gen_range(0..2usize)]);
        }
        2 => options.agg = on.then_some([AggFunc::Count, AggFunc::Avg][rng.gen_range(0..2usize)]),
        3 => options.top_k_attrs = on.then_some(2),
        _ => options.top_k_instances = on.then_some(3),
    }
}

/// `body` without the `answer_cache` note of an `explain` tree's
/// `explore` node, the node's only note — the only bytes the session
/// cache may change.
fn without_answer_cache_note(body: &str) -> String {
    body.lines()
        .filter(|line| {
            !line
                .trim_start()
                .starts_with("\"notes\": {\"answer_cache\": ")
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Cached ≡ uncached: seeded random request sequences — all four verbs,
/// option flips, navigation including permuted drills, and four in ten
/// requests a repeat of an earlier one (as it was, under another verb, or
/// with one option flipped) — answered by a session with an eight-entry
/// cache and by one with none, byte for byte.
#[test]
fn a_cached_session_answers_every_request_as_an_uncached_one() {
    const REQUESTS: usize = 360;
    let fx = workload();
    for threads in THREADS {
        let sweeps = [
            CacheSweep::new(
                || build_ebiz(EbizScale::small(), 42).unwrap(),
                threads,
                ebiz(threads),
            ),
            CacheSweep::new(
                || build_aw_online(Scale::small(), 42).unwrap(),
                threads,
                fx.session(threads),
            ),
        ];
        for (fixture, sweep) in sweeps.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xCAC4E + fixture as u64);
            let mut history: Vec<QueryRequest> = Vec::new();
            let mut answered = 0;
            for i in 0..REQUESTS {
                let request = if !history.is_empty() && rng.gen_bool(0.4) {
                    // Among the last few, so that most repeats are still cached.
                    let recent = &history[history.len().saturating_sub(6)..];
                    let mut again = recent[rng.gen_range(0..recent.len())].clone();
                    match rng.gen_range(0..3) {
                        0 => again.verb = Verb::ALL[rng.gen_range(0..4usize)],
                        1 => flip_option(&mut again, &mut rng),
                        _ => {}
                    }
                    again
                } else {
                    sweep.fresh(&mut rng)
                };
                let context = format!("threads={threads} fixture {fixture} #{i}: {request:?}");
                match (sweep.cached.run(&request), sweep.plain.run(&request)) {
                    (Ok(cached), Ok(plain)) => {
                        answered += 1;
                        assert_eq!(
                            without_answer_cache_note(&cached.encode(WireFormat::Json).unwrap()),
                            without_answer_cache_note(&plain.encode(WireFormat::Json).unwrap()),
                            "{context}"
                        );
                    }
                    (Err(cached), Err(plain)) => {
                        assert_eq!(cached.to_string(), plain.to_string(), "{context}")
                    }
                    (cached, plain) => panic!(
                        "{context}: cached {:?}, uncached {:?}",
                        cached.map(|_| ()),
                        plain.map(|_| ())
                    ),
                }
                history.push(request);
            }
            let counters = sweep.cached.subspace_cache_counters().unwrap();
            let context = format!("threads={threads} fixture {fixture}: {counters:?}");
            assert!(
                answered >= REQUESTS * 2 / 3,
                "{context}: {answered} answered"
            );
            assert!(counters.hits >= 40, "{context}");
            assert!(counters.evictions >= 20, "{context}");
            assert!(sweep.cached.subspace_cache_len().unwrap() <= 8, "{context}");
        }
    }
}

/// The whole-dataspace memo keys every group-by by the fold it ran: one
/// session explores an AW query whose roll-up is ALL under every
/// aggregation function in turn, then SUM again, and each body is byte
/// for byte a fresh session's. (A memo that served a SUM fold's groups to
/// a MIN request would answer with sums.)
#[test]
fn one_session_answers_every_aggregate_as_a_fresh_session() {
    let wh = build_aw_online(Scale::small(), 42).expect("generator is valid");
    let session = || Kdap::builder(wh.clone()).build().expect("measure defined");
    let kdap = session();
    for agg in [
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
        AggFunc::Count,
        AggFunc::Sum,
    ] {
        let mut request = QueryRequest::new(Verb::Explore, "clothing");
        request.options.agg = Some(agg);
        let body = |kdap: &Kdap| {
            let response = kdap.run(&request).expect("`clothing` explores");
            response.encode(WireFormat::Json).expect("JSON encodes")
        };
        assert_eq!(body(&kdap), body(&session()), "{agg:?}");
    }
    // SUM, AVG and COUNT share one fold; MIN and MAX have their own.
    let fresh = session();
    fresh
        .run(&QueryRequest::new(Verb::Explore, "clothing"))
        .expect("`clothing` explores");
    assert_eq!(
        kdap.dataspace_groups_len(),
        3 * fresh.dataspace_groups_len()
    );
}
