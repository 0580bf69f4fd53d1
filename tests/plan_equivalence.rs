//! The optimizer is an *execution* strategy, never a *semantics* change:
//! for any workload query, any planner configuration (reordering and
//! fusion independently toggled, cache on or off), and any thread count,
//! plan-compiled evaluation must produce fact-row sets bit-identical to
//! the naive per-constraint semi-join cascade.

use std::sync::OnceLock;

use proptest::prelude::*;

use kdap_suite::core::{materialize, materialize_planned, Kdap, Planner, PlannerConfig, StarNet};
use kdap_suite::datagen::{build_aw_online, generate_workload, Scale, WorkloadConfig};
use kdap_suite::query::ExecConfig;

struct Fixture {
    kdap: Kdap,
    candidate_sets: Vec<Vec<StarNet>>,
}

/// One AW_ONLINE build shared by every proptest case: the warehouse is
/// deterministic (seed 42), so caching it only trims wall time.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let wh = build_aw_online(Scale::small(), 42).expect("generator is valid");
        let queries = generate_workload(&wh, &WorkloadConfig::default());
        let kdap = Kdap::builder(wh).build().expect("measure defined");
        let candidate_sets = queries
            .iter()
            .map(|q| {
                kdap.interpret(&q.text())
                    .into_iter()
                    .map(|r| r.net)
                    .collect()
            })
            .filter(|nets: &Vec<StarNet>| !nets.is_empty())
            .collect();
        Fixture {
            kdap,
            candidate_sets,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-net: any planner setting × any thread count matches the naive
    /// serial cascade exactly.
    #[test]
    fn planned_materialization_matches_naive(
        query_idx in 0usize..64,
        reorder in any::<bool>(),
        fuse_fact_local in any::<bool>(),
        cached in any::<bool>(),
        threads in proptest::sample::select(vec![1usize, 4]),
    ) {
        let fx = fixture();
        let nets = &fx.candidate_sets[query_idx % fx.candidate_sets.len()];
        let planner = Planner::new(PlannerConfig { reorder, fuse_fact_local }, cached);
        let exec = ExecConfig::with_threads(threads);
        let (wh, jidx) = (fx.kdap.warehouse(), fx.kdap.join_index());
        for net in nets {
            let naive = materialize(wh, jidx, net);
            let planned = materialize_planned(wh, jidx, net, &planner, &exec)
                .expect("star net evaluates");
            prop_assert_eq!(
                naive.rows.to_words(),
                planned.rows.to_words(),
                "reorder={} fuse={} cached={} threads={}",
                reorder, fuse_fact_local, cached, threads
            );
        }
    }
}
