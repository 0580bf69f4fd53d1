//! Criterion micro-benchmarks for every pipeline stage the paper touches:
//! text search, candidate generation, ranking, subspace materialization,
//! aggregation, facet construction, and the Algorithm 2 interval merge
//! (whose < 5 ms / 500 iterations claim E7 also checks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use kdap_bench::differentiate;
use kdap_core::facet::{merge_intervals, AnnealConfig};
use kdap_core::{
    explore_subspace, generate_star_nets, materialize, rank_star_nets, DataspaceGroups, GenConfig,
    Kdap, Planner, RankMethod,
};
use kdap_datagen::{build_aw_online, Scale};
use kdap_query::{
    multi_group_by_exec, AggFunc, ExecConfig, FacetSpec, JoinIndex, MeasureVector, RowSet,
    DENSE_GROUP_LIMIT,
};
use kdap_textindex::{SearchOptions, TextIndex};

fn session() -> Kdap {
    Kdap::builder(build_aw_online(Scale::full(), 42).expect("valid"))
        .build()
        .expect("measure")
}

fn bench_textindex(c: &mut Criterion) {
    let kdap = session();
    let index = kdap.text_index();
    let opts = SearchOptions::default();
    let mut g = c.benchmark_group("textindex");
    g.bench_function("keyword_california", |b| {
        b.iter(|| black_box(index.search_keyword(black_box("california"), &opts)))
    });
    g.bench_function("keyword_prefix_mount", |b| {
        b.iter(|| black_box(index.search_keyword(black_box("mount"), &opts)))
    });
    g.bench_function("phrase_mountain_bikes", |b| {
        b.iter(|| black_box(index.search_phrase(black_box(&["mountain", "bikes"]), &opts)))
    });
    g.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let wh = build_aw_online(Scale::full(), 42).expect("valid");
    let mut g = c.benchmark_group("offline");
    g.sample_size(10);
    g.bench_function("text_index_build", |b| {
        b.iter(|| black_box(TextIndex::build(black_box(&wh))))
    });
    g.bench_function("join_index_build", |b| {
        b.iter(|| black_box(JoinIndex::build(black_box(&wh))))
    });
    g.finish();
}

fn bench_differentiate(c: &mut Criterion) {
    let kdap = session();
    let wh = kdap.warehouse();
    let index = kdap.text_index();
    let gen_cfg = GenConfig::default();
    let mut g = c.benchmark_group("differentiate");
    for query in [
        "California",
        "California Mountain Bikes",
        "Sydney Helmet Discount",
    ] {
        g.bench_with_input(BenchmarkId::new("generate", query), &query, |b, q| {
            let keywords: Vec<&str> = q.split_whitespace().collect();
            b.iter(|| black_box(generate_star_nets(wh, index, &keywords, &gen_cfg)))
        });
    }
    let keywords = ["california", "mountain", "bikes"];
    let nets = generate_star_nets(wh, index, &keywords, &gen_cfg);
    for method in RankMethod::ALL {
        g.bench_with_input(BenchmarkId::new("rank", method.label()), &method, |b, m| {
            b.iter(|| black_box(rank_star_nets(nets.clone(), *m)))
        });
    }
    g.finish();
}

fn bench_explore(c: &mut Criterion) {
    let kdap = session();
    let ranked = differentiate(&kdap, "California Mountain Bikes");
    let net = &ranked[0].net;
    let mut g = c.benchmark_group("explore");
    g.sample_size(20);
    g.bench_function("materialize_subspace", |b| {
        b.iter(|| black_box(materialize(kdap.warehouse(), kdap.join_index(), net)))
    });
    let sub = materialize(kdap.warehouse(), kdap.join_index(), net);
    let mv = MeasureVector::build(kdap.warehouse(), kdap.measure());
    let planner = Planner::default();
    // A fresh memo per call: every iteration scans its roll-ups cold.
    let facets = |exec: &ExecConfig| {
        explore_subspace(
            kdap.warehouse(),
            kdap.join_index(),
            net,
            &sub,
            &mv,
            kdap.facet_config(),
            &planner,
            exec,
            &DataspaceGroups::default(),
        )
    };
    g.bench_function("facet_construction", |b| {
        b.iter(|| black_box(facets(&ExecConfig::serial())))
    });
    for threads in [2usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("facet_construction_threads", threads),
            &threads,
            |b, &t| {
                let exec = ExecConfig::with_threads(t);
                b.iter(|| black_box(facets(&exec)))
            },
        );
    }
    g.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let kdap = session();
    let wh = kdap.warehouse();
    let jidx = kdap.join_index();
    let attr = wh
        .col_ref("DimProductSubcategory", "ProductSubcategoryName")
        .unwrap();
    let path = kdap_bench::unique_fact_path(wh, "DimProductSubcategory");
    let all = RowSet::full(wh.fact_rows());
    let mv = MeasureVector::build(wh, kdap.measure());
    let specs = [FacetSpec::Categorical {
        attr,
        mapper: jidx.row_mapper(&path),
    }];
    c.bench_function("aggregate/group_by_subcategory_60k_facts", |b| {
        b.iter(|| {
            let groups = multi_group_by_exec(
                wh,
                &specs,
                &all,
                &mv,
                &ExecConfig::serial(),
                DENSE_GROUP_LIMIT,
            );
            black_box(groups.map(|g| g[0].to_map(AggFunc::Sum)))
        })
    });
}

fn bench_subspace_cache(c: &mut Criterion) {
    // §7 future-work optimization: a repeated exploration with and
    // without the session cache.
    let kdap = session();
    let cached = Kdap::builder(kdap.warehouse().clone())
        .cache_capacity(32)
        .build()
        .expect("measure defined");
    let ranked = differentiate(&kdap, "California Mountain Bikes");
    let net = &ranked[0].net;
    cached.explore(net).expect("explores"); // warm
    let mut g = c.benchmark_group("subspace_cache");
    g.bench_function("uncached_explore", |b| {
        b.iter(|| black_box(kdap.explore(net)))
    });
    g.bench_function("cached_explore", |b| {
        b.iter(|| black_box(cached.explore(net)))
    });
    g.finish();
}

fn bench_anneal(c: &mut Criterion) {
    let x: Vec<f64> = (0..40).map(|i| ((i * 37) % 23) as f64).collect();
    let y: Vec<f64> = (0..40).map(|i| ((i * 17) % 19) as f64).collect();
    let mut g = c.benchmark_group("anneal");
    for iters in [100usize, 500] {
        g.bench_with_input(
            BenchmarkId::new("merge_intervals", iters),
            &iters,
            |b, &n| {
                let cfg = AnnealConfig {
                    iterations: n,
                    ..AnnealConfig::default()
                };
                b.iter(|| black_box(merge_intervals(&x, &y, &cfg)))
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_textindex,
    bench_index_build,
    bench_differentiate,
    bench_explore,
    bench_aggregation,
    bench_subspace_cache,
    bench_anneal
);
criterion_main!(benches);
