//! There is one path from `Kdap::run` to the kernels: the typed request
//! and the `explore` convenience are the same pipeline, a request's
//! `refine` list is `navigate::*` applied in order before it, and a drill
//! lands on the subspace the clicked facet entry was aggregated over —
//! at any thread count. That pipeline's profile must also carry the span
//! names the frozen benchmark (`kdap_bench/src/layers.rs`) reads its
//! per-layer numbers from.

mod support;

use std::collections::BTreeSet;
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kdap_suite::core::facet::path_for_attr;
use kdap_suite::core::{
    drill_down, remove_constraint, roll_up, Exploration, Kdap, ProfileNode, QueryRequest, Refine,
    StarNet, Verb,
};
use kdap_suite::datagen::{build_ebiz, EbizScale};
use kdap_suite::query::JoinPath;
use kdap_suite::warehouse::{AttrKind, ColRef, Dimension, Warehouse};

use support::workload;

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
    let ranked = kdap.interpret(keywords);
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
        let roles = kdap.interpret("columbus");
        for role in ["STORE", "(Buyer)", "(Seller)"] {
            let pick = roles
                .iter()
                .position(|r| r.net.display(kdap.warehouse()).contains(role))
                .unwrap_or_else(|| panic!("`columbus` has a {role} interpretation"));
            assert_drills_land_on_their_entries(kdap, "columbus", pick + 1);
        }
        for keywords in EBIZ_QUERIES {
            for pick in 1..=kdap.interpret(keywords).len().min(3) {
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
    fn collect(node: &ProfileNode, names: &mut BTreeSet<String>) {
        names.insert(node.name.clone());
        for child in &node.children {
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
        ] {
            assert!(
                names.contains(span),
                "threads={threads}: no `{span}` span in {names:?}"
            );
        }
    }
}
