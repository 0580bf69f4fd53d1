//! The one contact point with stage-level engine functions.
//!
//! The measured, end-to-end path uses only `Kdap::builder()…build()`,
//! `Kdap::run(&QueryRequest)` and the HTTP wire (see `workloads.rs`).
//! Everything here is a *staged* call of the traced run: issued after
//! the production call of the same request, against engine state that
//! call already produced, wrapped in a benchmark-owned span. When a
//! layer's public function changes shape, this file is what changes.

use std::collections::BTreeMap;

use kdap_core::api::{QueryRequest, Verb};
use kdap_core::{
    materialize_planned, rank_star_nets, split_query, try_generate_star_nets, CacheCounters, Kdap,
    Planner, ProfileNode, QueryProfile, RankedStarNet, StarNet,
};
use kdap_datagen::LabeledQuery;
use kdap_query::{ExecConfig, JoinIndex};
use kdap_textindex::TextIndex;
use kdap_warehouse::Warehouse;

use crate::record::{Metric, Metrics, PER_LAYER};
use crate::stats::median;
use crate::trace::{by_name, Span, Tracer};

/// Does a star net match a labeled query's intended interpretation? It
/// must constrain exactly the intended attribute domains, each hit group
/// must contain the intended instance, and a pinned dimension must be
/// the one the join path enters. (A copy of `kdap_bench::matches_intended`:
/// that library is outside the benchmark's directory and due a rewrite.)
pub fn matches_intended(wh: &Warehouse, net: &StarNet, q: &LabeledQuery) -> bool {
    if net.constraints.len() != q.intended.len() {
        return false;
    }
    let schema = wh.schema();
    q.intended.iter().all(|want| {
        net.constraints.iter().any(|c| {
            if c.group.attr != want.attr {
                return false;
            }
            if !c.group.hits.iter().any(|h| h.value.as_ref() == want.value) {
                return false;
            }
            match (&want.dimension, c.path.dimension(schema)) {
                (Some(dname), Some(did)) => schema.dimension(did).name == *dname,
                (Some(_), None) => false,
                (None, _) => true,
            }
        })
    })
}

/// Is the ground-truth interpretation of `q` among the first five of `ranked`?
pub fn intended_in_top5(wh: &Warehouse, ranked: &[RankedStarNet], q: &LabeledQuery) -> bool {
    ranked
        .iter()
        .take(5)
        .any(|r| matches_intended(wh, &r.net, q))
}

/// Hit/miss/eviction counters of a session's three caches.
#[derive(Clone, Copy, Default)]
pub struct CacheSnap {
    subspace: CacheCounters,
    semijoin: CacheCounters,
    mapper: CacheCounters,
}

impl CacheSnap {
    pub fn take(kdap: &Kdap) -> CacheSnap {
        CacheSnap {
            subspace: kdap.subspace_cache_counters().unwrap_or_default(),
            semijoin: kdap.semijoin_counters().unwrap_or_default(),
            mapper: kdap.mapper_counters(),
        }
    }

    /// Hits and misses of the subspace cache between this snapshot and a
    /// `later` one of the same session.
    pub fn subspace_hits_misses_since(&self, later: &CacheSnap) -> (u64, u64) {
        (
            later.subspace.hits - self.subspace.hits,
            later.subspace.misses - self.subspace.misses,
        )
    }

    /// Share of subspace-cache lookups since this snapshot that hit.
    pub fn subspace_hit_ratio_since(&self, later: &CacheSnap) -> Option<f64> {
        let (hits, misses) = self.subspace_hits_misses_since(later);
        (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64)
    }
}

/// Counts recorded at the layer boundaries next to the spans, so that
/// ratios are measured where the work happens.
#[derive(Default)]
pub struct Counts {
    keywords: u64,
    hits: u64,
    queries: u64,
    candidates: u64,
    materialized: u64,
    rows_out: u64,
    generate_self_ns: Vec<f64>,
    facet_rest_ns: Vec<f64>,
    profiles: u64,
    profile_ns: BTreeMap<String, u64>,
    profile_total_ns: u64,
    profile_unattributed_ns: u64,
    rows_scanned: u64,
    caches: CacheSnap,
}

impl Counts {
    /// Adds what the production calls between two snapshots did to the
    /// session's caches. Staged calls stay outside such a pair.
    pub fn add_cache_delta(&mut self, before: &CacheSnap, after: &CacheSnap) {
        let add = |acc: &mut CacheCounters, b: &CacheCounters, a: &CacheCounters| {
            acc.hits += a.hits - b.hits;
            acc.misses += a.misses - b.misses;
            acc.evictions += a.evictions - b.evictions;
        };
        add(&mut self.caches.subspace, &before.subspace, &after.subspace);
        add(&mut self.caches.semijoin, &before.semijoin, &after.semijoin);
        add(&mut self.caches.mapper, &before.mapper, &after.mapper);
    }

    /// Folds one program-reported profile tree into the sums.
    fn add_profile(&mut self, profile: &QueryProfile) {
        fn walk(node: &ProfileNode, counts: &mut Counts) {
            *counts.profile_ns.entry(node.name.clone()).or_default() += node.wall_ns;
            if node.name == "multi_group_by" {
                counts.rows_scanned += node.rows_in.unwrap_or(0);
            }
            if !node.children.is_empty() {
                let covered: u64 = node.children.iter().map(|c| c.wall_ns).sum();
                counts.profile_unattributed_ns += node.wall_ns.saturating_sub(covered);
            }
            for child in &node.children {
                walk(child, counts);
            }
        }
        self.profiles += 1;
        self.profile_total_ns += profile.total_ns();
        for root in &profile.roots {
            walk(root, self);
        }
    }
}

/// Stages of a differentiate request, which are also the first stages
/// of an explore: text search per keyword, star-net generation, ranking.
/// Returns the ranking and the time spent in generation and ranking.
pub fn stage_differentiate(
    tr: &mut Tracer,
    id: u64,
    kdap: &Kdap,
    keywords: &str,
    counts: &mut Counts,
) -> (Vec<RankedStarNet>, u64) {
    let wh = kdap.warehouse();
    let index = kdap.text_index();
    let gen = kdap.gen_config();
    let parts = split_query(keywords);
    let mut search_ns = 0;
    for keyword in &parts {
        let (hits, ns) = tr.span("textindex.search", id, |_| {
            index.search_keyword(keyword, &gen.hit.search)
        });
        search_ns += ns;
        counts.keywords += 1;
        counts.hits += hits.len() as u64;
    }
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    let (nets, generate_ns) = tr.span("core.interpret.generate", id, |_| {
        try_generate_star_nets(wh, index, &refs, gen, &ExecConfig::serial())
    });
    // An ungoverned serial generation cannot breach a limit.
    let nets = nets.unwrap_or_default();
    counts.queries += 1;
    counts.candidates += nets.len() as u64;
    // Generation searches the index itself; the searches timed above
    // stand in for that part.
    counts
        .generate_self_ns
        .push(generate_ns.saturating_sub(search_ns) as f64);
    let (ranked, rank_ns) = tr.span("core.rank.rank", id, |_| {
        rank_star_nets(nets, kdap.rank_method())
    });
    (ranked, generate_ns + rank_ns)
}

/// Stages of an explore request. `planner` is the benchmark's own,
/// uncached planner: planning and materializing through it leaves the
/// session's semi-join cache as the production call left it.
pub fn stage_explore(
    tr: &mut Tracer,
    id: u64,
    kdap: &Kdap,
    planner: &Planner,
    keywords: &str,
    counts: &mut Counts,
) {
    let wh = kdap.warehouse();
    let (ranked, interpret_ns) = stage_differentiate(tr, id, kdap, keywords, counts);
    if let Some(top) = ranked.first() {
        tr.span("core.plan.plan", id, |_| planner.plan(wh, &top.net));
        let (sub, _) = tr.span("query.semijoin.materialize", id, |_| {
            materialize_planned(wh, kdap.join_index(), &top.net, planner, kdap.exec_config())
        });
        if let Ok(sub) = sub {
            counts.materialized += 1;
            counts.rows_out += sub.len() as u64;
        }
    }
    // The program's own profile of the same request. The production call
    // just cached this subspace, so what remains after interpretation is
    // the facet work on a cache hit.
    let request = QueryRequest::new(Verb::Profile, keywords);
    let (response, profile_ns) = tr.span("kdap.run.profile", id, |_| kdap.run(&request));
    if let Ok(response) = response {
        counts
            .facet_rest_ns
            .push(profile_ns.saturating_sub(interpret_ns) as f64);
        if let Some(profile) = &response.profile {
            counts.add_profile(profile);
        }
    }
}

/// Build-side probes on a warehouse, each in its own span: text index,
/// join index, and a bulk decode of its dictionary columns. Returns the
/// text index size and the decode throughput.
pub fn probe_builds(tr: &mut Tracer, wh: &Warehouse) -> Metrics {
    let mut out = Metrics::new();
    let (index, _) = tr.span("textindex.build", 0, |_| TextIndex::build(wh));
    put(
        &mut out,
        "textindex.bytes",
        Some(index.approx_bytes() as f64),
        None,
    );
    tr.span("query.joinindex.build", 0, |_| JoinIndex::build(wh));
    // Every dictionary column of the warehouse, again and again until
    // enough rows went through that timer resolution and the first-touch
    // page faults of the output buffer stop mattering.
    let mut codes = Vec::new();
    let mut rows = 0usize;
    let (_, ns) = tr.span("warehouse.chunk.decode", 0, |_| {
        while rows < DECODE_ROWS {
            let before = rows;
            for column in wh.tables().iter().flat_map(|t| t.columns()) {
                if column.unpack_codes_into(&mut codes) {
                    rows += std::hint::black_box(&codes).len();
                }
            }
            if rows == before {
                break;
            }
        }
    });
    let mrows_s = (rows > 0 && ns > 0).then(|| rows as f64 / 1e6 / (ns as f64 / 1e9));
    put(
        &mut out,
        "warehouse.chunk.decode_mrows_s",
        mrows_s,
        Some(rows as u64),
    );
    out
}

/// Rows one decode probe pushes through `Column::unpack_codes_into`.
const DECODE_ROWS: usize = 4_000_000;

/// Inserts one per-layer metric, looking its unit up in the table.
pub fn put(out: &mut Metrics, name: &str, value: Option<f64>, n: Option<u64>) {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
        .1;
    out.insert(
        name.to_string(),
        Metric {
            value,
            unit: unit.to_string(),
            n,
        },
    );
}

/// Span name → the per-layer metric its median duration reports, and
/// the divisor from nanoseconds to the metric's unit.
const SPAN_METRICS: [(&str, &str, f64); 15] = [
    ("server.healthz", "server.healthz_rtt_us", 1e3),
    ("http.stats", "server.stats_rtt_us", 1e3),
    ("core.api.decode", "core.api.decode_us", 1e3),
    ("core.api.encode", "core.api.encode_us", 1e3),
    ("textindex.search", "textindex.search_us", 1e3),
    ("textindex.build", "textindex.build_ms", 1e6),
    ("core.rank.rank", "core.rank.rank_us", 1e3),
    ("core.plan.plan", "core.plan.plan_us", 1e3),
    (
        "query.semijoin.materialize",
        "query.semijoin.materialize_ms",
        1e6,
    ),
    ("core.cache.zipf_explore", "core.cache.zipf_p50_ms", 1e6),
    ("warehouse.load", "warehouse.load_ms", 1e6),
    ("warehouse.save", "warehouse.save_ms", 1e6),
    ("datagen.build", "datagen.build_ms", 1e6),
    ("core.session.build", "core.session.build_ms", 1e6),
    ("query.joinindex.build", "query.joinindex.build_ms", 1e6),
];

/// Every per-layer metric that follows from the spans and counts alone.
/// Metrics of layers the workload never entered are `None`.
pub fn metrics_from(spans: &[Span], counts: &Counts) -> Metrics {
    let mut out = Metrics::new();
    let stats = by_name(spans);
    let median_of = |name: &str| {
        stats
            .get(name)
            .and_then(|s| median(&s.durations).map(|m| (m, s.count)))
    };
    for (span, metric, div) in SPAN_METRICS {
        let m = median_of(span);
        put(
            &mut out,
            metric,
            m.map(|(ns, _)| ns / div),
            m.map(|(_, n)| n),
        );
    }
    let ratio = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
    let hit_ratio = |c: &CacheCounters| ratio(c.hits, c.hits + c.misses);
    put(
        &mut out,
        "textindex.hits_per_keyword",
        ratio(counts.hits, counts.keywords),
        Some(counts.keywords),
    );
    put(
        &mut out,
        "core.interpret.generate_us",
        median(&counts.generate_self_ns).map(|ns| ns / 1e3),
        Some(counts.generate_self_ns.len() as u64),
    );
    put(
        &mut out,
        "core.interpret.candidates_per_query",
        ratio(counts.candidates, counts.queries),
        Some(counts.queries),
    );
    put(
        &mut out,
        "core.plan.semijoin_hit_ratio",
        hit_ratio(&counts.caches.semijoin),
        None,
    );
    put(
        &mut out,
        "query.semijoin.rows_out_mean",
        ratio(counts.rows_out, counts.materialized),
        Some(counts.materialized),
    );
    let subspace = &counts.caches.subspace;
    put(
        &mut out,
        "core.cache.subspace_hit_ratio",
        hit_ratio(subspace),
        Some(subspace.hits + subspace.misses),
    );
    let evictions = (subspace.hits + subspace.misses > 0).then_some(subspace.evictions as f64);
    put(&mut out, "core.cache.subspace_evictions", evictions, None);
    put(
        &mut out,
        "query.joinindex.mapper_hit_ratio",
        hit_ratio(&counts.caches.mapper),
        None,
    );
    put(
        &mut out,
        "core.facet.rest_ms",
        median(&counts.facet_rest_ns).map(|ns| ns / 1e6),
        Some(counts.facet_rest_ns.len() as u64),
    );
    // Program-reported: sums of the engine's own profile spans, per
    // profiled explore. A span name the engine no longer emits reads
    // `None`, never a failure.
    for (span, metric) in [
        ("multi_group_by", "profile.multi_group_by_ms"),
        ("semijoin", "profile.semijoin_ms"),
        ("explore.rollups", "profile.rollups_ms"),
        ("explore.score", "profile.score_ms"),
    ] {
        let per_explore = counts
            .profile_ns
            .get(span)
            .and_then(|&ns| ratio(ns, counts.profiles))
            .map(|ns| ns / 1e6);
        put(&mut out, metric, per_explore, Some(counts.profiles));
    }
    put(
        &mut out,
        "profile.rows_scanned_per_explore",
        ratio(counts.rows_scanned, counts.profiles),
        Some(counts.profiles),
    );
    put(
        &mut out,
        "profile.unattributed_ratio",
        ratio(counts.profile_unattributed_ns, counts.profile_total_ns),
        Some(counts.profiles),
    );
    let first = median_of("core.session.first_explore");
    let warm = median_of("core.session.warm_explore");
    put(
        &mut out,
        "core.session.first_explore_ms",
        first.map(|(ns, _)| ns / 1e6),
        first.map(|(_, n)| n),
    );
    let over_warm = match (first, warm) {
        (Some((f, _)), Some((w, _))) if w > 0.0 => Some(f / w),
        _ => None,
    };
    put(
        &mut out,
        "core.session.first_explore_over_warm",
        over_warm,
        None,
    );
    let speedup = match (median_of("query.exec.t1"), median_of("query.exec.t2")) {
        (Some((t1, n)), Some((t2, _))) if t2 > 0.0 => Some((t1 / t2, n)),
        _ => None,
    };
    put(
        &mut out,
        "query.exec.speedup_t2",
        speedup.map(|(s, _)| s),
        speedup.map(|(_, n)| n),
    );
    // The cost of the instrument: time the traced loop spent outside its
    // production calls, as a share of the time inside them.
    let overhead = match (stats.get("op"), stats.get("production")) {
        (Some(op), Some(prod)) if prod.total_ns > 0 => {
            Some((op.total_ns.saturating_sub(prod.total_ns)) as f64 / prod.total_ns as f64)
        }
        _ => None,
    };
    put(
        &mut out,
        "obs.trace_overhead_ratio",
        overhead,
        stats.get("op").map(|s| s.count),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_sums_and_unattributed_time() {
        let leaf = |name: &str, ns: u64, rows: Option<u64>| ProfileNode {
            wall_ns: ns,
            rows_in: rows,
            ..ProfileNode::new(name)
        };
        let explore = ProfileNode {
            wall_ns: 100,
            children: vec![
                leaf("multi_group_by", 30, Some(500)),
                leaf("multi_group_by", 20, Some(40)),
                leaf("explore.score", 10, None),
            ],
            ..ProfileNode::new("explore")
        };
        let mut profile = QueryProfile::empty("q");
        profile.roots = vec![leaf("differentiate", 50, None), explore];
        let mut counts = Counts::default();
        counts.add_profile(&profile);
        counts.add_profile(&profile);
        let m = metrics_from(&[], &counts);
        let value = |name: &str| m[name].value;
        assert_eq!(value("profile.multi_group_by_ms"), Some(50.0 / 1e6));
        assert_eq!(value("profile.score_ms"), Some(10.0 / 1e6));
        assert_eq!(value("profile.rows_scanned_per_explore"), Some(540.0));
        // 40 of explore's 100 ns are covered by no child; the total is 150 ns.
        assert_eq!(value("profile.unattributed_ratio"), Some(40.0 / 150.0));
        // Spans the engine did not emit, and layers never entered, read None.
        assert_eq!(value("profile.semijoin_ms"), None);
        assert_eq!(value("server.healthz_rtt_us"), None);
        assert_eq!(value("core.cache.subspace_hit_ratio"), None);
        assert_eq!(
            m.len(),
            PER_LAYER.len() - 8,
            "all but the probe_builds, zipf hit ratio and serve-only metrics"
        );
    }
}
