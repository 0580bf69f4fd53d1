//! Experiment E6 — reproduces **Figure 7/8**: convergence of the
//! simulated-annealing interval merge (Algorithm 2), against the exact
//! optimum the engine computes.
//!
//! Three scenarios, as in the paper:
//!   (a) query "France Clothing",    attribute Customer YearlyIncome (AW_ONLINE)
//!   (b) query "France Accessories", attribute Customer YearlyIncome (AW_ONLINE)
//!   (c) query "British Columbia",   attribute Reseller NumberOfEmployees (AW_RESELLER)
//!
//! Each scenario runs the real pipeline — interpret the query, take the
//! top star net, build the 40 basic intervals against the roll-up space —
//! then merges into K ∈ {5, 6, 7} display intervals, reporting the error
//! (|corr_merged − corr_basic| × 100) as iterations advance, and beside
//! it the smallest error any skew-feasible split reaches
//! (`optimal_splits`). The paper's expected shape: error drops sharply
//! within ~100 iterations; smaller K converges more slowly.
//!
//! Run: `cargo run --release -p kdap-bench --bin exp_fig7`

use kdap_bench::anneal::{anneal, AnnealConfig};
use kdap_bench::{
    bucket_series, differentiate, numeric_values, print_table, BucketSeries, RollupCase,
};
use kdap_core::facet::{optimal_splits, path_for_attr};
use kdap_core::{materialize, rollup_spaces, Kdap, MeasureVector};
use kdap_datagen::{build_aw_online, build_aw_reseller, Scale};
use kdap_query::Bucketizer;
use kdap_warehouse::ColRef;

const CHECKPOINTS: &[usize] = &[0, 10, 20, 30, 50, 75, 100, 150, 200, 300, 500];

fn main() {
    let scale = if std::env::args().any(|a| a.contains("small")) {
        Scale::small()
    } else {
        Scale::full()
    };
    println!("## Figure 7 — simulated-annealing interval merge convergence\n");

    eprintln!("building AW_ONLINE ({} facts)...", scale.facts);
    let online = Kdap::builder(build_aw_online(scale, 42).expect("valid"))
        .build()
        .expect("measure");
    eprintln!("building AW_RESELLER ({} facts)...", scale.facts);
    let reseller = Kdap::builder(build_aw_reseller(scale, 42).expect("valid"))
        .build()
        .expect("measure");

    let scenarios: [(&Kdap, &str, &str, &str, &str); 3] = [
        (
            &online,
            "France Clothing",
            "Customer",
            "DimCustomer",
            "YearlyIncome",
        ),
        (
            &online,
            "France Accessories",
            "Customer",
            "DimCustomer",
            "YearlyIncome",
        ),
        (
            &reseller,
            "\"British Columbia\"",
            "Reseller",
            "DimReseller",
            "NumberOfEmployees",
        ),
    ];

    for (kdap, query, dim_name, table, column) in scenarios {
        let attr = kdap
            .warehouse()
            .col_ref(table, column)
            .expect("attr exists");
        match numeric_series(kdap, query, dim_name, attr) {
            Some(series) => report_scenario(query, column, &series),
            None => println!("### \"{query}\" / {column}: no numeric series (empty subspace)\n"),
        }
    }
    println!("(error = |corr(merged) − corr(basic intervals)| × 100; 40 basic intervals)");
    println!("(optimum = the smallest error of any skew-feasible split: the exact search)");
}

/// Runs the differentiate phase and builds the basic-interval series of
/// one numerical attribute over the top star net's subspace, against its
/// worst-correlated roll-up space — what attribute ranking hands to the
/// display merge.
fn numeric_series(kdap: &Kdap, query: &str, dim_name: &str, attr: ColRef) -> Option<BucketSeries> {
    let ranked = differentiate(kdap, query);
    let net = &ranked.first()?.net;
    eprintln!("  \"{query}\" → {}", net.display(kdap.warehouse()));
    let wh = kdap.warehouse();
    let jidx = kdap.join_index();
    let sub = materialize(wh, jidx, net);
    let dim = wh.schema().dimension_by_name(dim_name)?;
    let path = path_for_attr(wh, net, dim, attr.table)?;
    let buckets = Bucketizer::equal_width(
        numeric_values(wh, jidx, &path, attr, &sub),
        kdap.facet_config().n_basic_intervals,
    )?;
    let mv = MeasureVector::build(wh, kdap.measure());
    rollup_spaces(wh, jidx, net)
        .into_iter()
        .map(|rup| {
            let case = RollupCase {
                label: query.to_string(),
                ds: sub.clone(),
                rup,
            };
            bucket_series(wh, jidx, &case, attr, &path, &mv, &buckets)
        })
        .min_by(|a, b| a.correlation().total_cmp(&b.correlation()))
}

fn report_scenario(query: &str, column: &str, series: &BucketSeries) {
    println!("### query \"{query}\", attribute domain {column}\n");
    let mut rows = Vec::new();
    for k in [5usize, 6, 7] {
        let cfg = AnnealConfig {
            target_intervals: k,
            iterations: 500,
            ..AnnealConfig::default()
        };
        let result = anneal(&series.ds, &series.rup, &cfg);
        let mut row = vec![format!("K={k}")];
        for &cp in CHECKPOINTS {
            let err = if cp == 0 {
                // Error of the equal-width start, before any iteration.
                result.history.first().copied().unwrap_or(result.error)
            } else {
                result.history[(cp - 1).min(result.history.len() - 1)]
            };
            row.push(format!("{:.2}", err * 100.0));
        }
        let (_, optimum) = optimal_splits(&series.ds, &series.rup, k);
        row.push(format!("{:.2}", optimum * 100.0));
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["target".into()];
    headers.extend(CHECKPOINTS.iter().map(|c| format!("iter {c}")));
    headers.push("optimum".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);
    println!();
}
