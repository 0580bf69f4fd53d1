//! A subspace is the AND of its constraints, whatever the route: through
//! the session's semi-join cache or without one, at one thread or four,
//! with the constraints in net order or reversed, `materialize_planned`
//! selects exactly the fact rows of an independent row-at-a-time oracle
//! (`support::net_rows`) that walks each constraint's join path by key
//! value — no `JoinIndex`, no bitmap intersection. The tree EXPLAIN
//! returns, recorded around the same call, reports the oracle's subspace
//! size as `materialize`'s `rows_out` and, in each `semijoin` leaf's, the
//! oracle's count for that constraint alone.
//!
//! The session has numeric hits on, so measure-value keywords yield
//! constraints on the fact table's own columns (empty join paths), alone
//! and two at a time.

mod support;

use std::collections::HashMap;
use std::sync::OnceLock;

use proptest::prelude::*;

use kdap_suite::core::{
    materialize_planned, GenConfig, Kdap, NumericConfig, Obs, Planner, StarNet,
};
use kdap_suite::datagen::{build_aw_online, generate_workload, Scale, WorkloadConfig};
use kdap_suite::query::{ExecConfig, Fingerprint};
use kdap_suite::warehouse::MeasureExpr;

use support::{differentiate, net_rows, KeyWalker};

/// A candidate net with the oracle's answers.
struct Case {
    net: StarNet,
    /// The fact rows the net selects.
    rows: Vec<usize>,
    /// Per constraint, in net order: how many fact rows it selects alone.
    alone: Vec<usize>,
}

struct Fixture {
    kdap: Kdap,
    /// Per workload query: its candidate nets.
    candidate_sets: Vec<Vec<Case>>,
    /// The candidate nets of every measure-value query, checked in every
    /// proptest case.
    fact_local: Vec<Case>,
}

/// Keywords that hit the fact table's measure columns: the two factors of
/// AW_ONLINE's `SalesRevenue` read off fact row 0, alone, together, and
/// next to a text keyword.
fn measure_queries(kdap: &Kdap) -> Vec<String> {
    let wh = kdap.warehouse();
    let MeasureExpr::Product(price, qty) = &wh.schema().measures()[0].expr else {
        panic!("AW_ONLINE's measure is a product of two fact columns");
    };
    let value = |attr| {
        wh.column(attr)
            .get_float(0)
            .expect("fact row 0 has a value")
    };
    let (price, qty) = (value(*price), value(*qty));
    vec![
        format!("{price}"),
        format!("{price} {qty}"),
        format!("mountain {price}"),
        format!("{qty} california"),
    ]
}

/// One AW_ONLINE build shared by every proptest case; the oracle runs
/// once per net here, not once per case.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let wh = build_aw_online(Scale::small(), 42).expect("generator is valid");
        let workload = generate_workload(&wh, &WorkloadConfig::default());
        let gen = GenConfig {
            numeric: NumericConfig {
                enabled: true,
                ..NumericConfig::default()
            },
            ..GenConfig::default()
        };
        let kdap = Kdap::builder(wh)
            .gen_config(gen)
            .build()
            .expect("measure defined");
        let keys = KeyWalker::new(kdap.warehouse());
        // Constraints recur across nets: the oracle counts each once.
        let mut counts: HashMap<Fingerprint, usize> = HashMap::new();
        let mut cases = |q: &str| -> Vec<Case> {
            differentiate(&kdap, q)
                .into_iter()
                .map(|r| {
                    let alone = r.net.constraints.iter().map(|c| {
                        *counts.entry(c.fingerprint()).or_insert_with(|| {
                            let net = StarNet {
                                constraints: vec![c.clone()],
                            };
                            net_rows(&keys, &net).len()
                        })
                    });
                    Case {
                        alone: alone.collect(),
                        rows: net_rows(&keys, &r.net),
                        net: r.net,
                    }
                })
                .collect()
        };
        let candidate_sets: Vec<Vec<Case>> = workload
            .iter()
            .map(|q| cases(&q.text()))
            .filter(|nets| !nets.is_empty())
            .collect();
        let fact_local: Vec<Case> = measure_queries(&kdap)
            .iter()
            .flat_map(|q| cases(q))
            .collect();
        // What fact-local fusion used to take: a net with two constraints
        // on the fact table's own columns.
        assert!(fact_local.iter().any(|case| {
            let on_fact = case.net.constraints.iter().filter(|c| c.path.is_empty());
            on_fact.count() >= 2
        }));
        Fixture {
            kdap,
            candidate_sets,
            fact_local,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per net: cached or not × one or four threads × net order or
    /// reversed matches the row-at-a-time oracle exactly, through
    /// materialization and through the counts its recorded tree reports.
    #[test]
    fn planned_materialization_matches_naive(
        query_idx in 0usize..96,
        cached in any::<bool>(),
        reversed in any::<bool>(),
        threads in proptest::sample::select(vec![1usize, 4]),
    ) {
        let fx = fixture();
        let nets = &fx.candidate_sets[query_idx % fx.candidate_sets.len()];
        let planner = if cached { Planner::cached() } else { Planner::default() };
        let (wh, jidx) = (fx.kdap.warehouse(), fx.kdap.join_index());
        for case in nets.iter().chain(&fx.fact_local) {
            let (mut net, mut alone) = (case.net.clone(), case.alone.clone());
            if reversed {
                net.constraints.reverse();
                alone.reverse();
            }
            let route = format!(
                "cached={cached} reversed={reversed} threads={threads} net={}",
                net.display(wh)
            );
            // Twice: with a cached planner the first run's misses fill the
            // cache the second reads.
            for _ in 0..2 {
                let obs = Obs::disabled().recording("plan");
                let exec = ExecConfig::with_threads(threads).with_obs(obs.clone());
                let planned = materialize_planned(wh, jidx, &net, &planner, &exec)
                    .expect("star net evaluates");
                prop_assert_eq!(&planned.iter().collect::<Vec<_>>(), &case.rows, "{}", route);
                let tree = obs.take_profile().expect("a recording handle");
                let materialize = &tree.roots[0];
                prop_assert_eq!(&materialize.name, "materialize");
                prop_assert_eq!(materialize.rows_out, Some(case.rows.len() as u64), "{}", route);
                let steps: Vec<usize> = materialize
                    .children
                    .iter()
                    .map(|leaf| leaf.rows_out.expect("a step's rows") as usize)
                    .collect();
                prop_assert_eq!(&steps, &alone, "{}", route);
            }
        }
    }
}
