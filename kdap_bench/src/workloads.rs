//! The four workloads. Each is a closed loop (an analyst waits for the
//! reply before asking again) that sets up from fixed data seeds, warms
//! the cache-resident head of its query population, measures for the
//! requested number of seconds, and then checks its own outputs.
//!
//! The measured path touches the engine only through
//! `Kdap::builder()…build()`, `Kdap::run(&QueryRequest)` (with the wire
//! codec `QueryRequest::from_json` / `QueryResponse::encode`) and the
//! HTTP wire. In a traced run each production call is followed by the
//! staged calls of `layers.rs`.
//!
//! `--seed` drives the order of the popularity schedule, the verb/tenant
//! mix and the traced run's Zipf probe.
//! The query *population* and which of its queries are hot are fixed
//! per workload: the acceptance test compares runs taken at different
//! seeds, so a seed must not change the latency distribution it samples.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kdap_core::api::{QueryRequest, QueryResponse, Verb, WireFormat};
use kdap_core::{Kdap, Planner};
use kdap_datagen::{
    build_aw_online, build_ebiz, generate_workload, EbizScale, LabeledQuery, Scale, WorkloadConfig,
};
use kdap_obs::json_string;
use kdap_server::{EngineRegistry, KdapServer, ServerConfig};
use kdap_warehouse::{load_warehouse, save_warehouse, Warehouse};

use crate::http::Client;
use crate::layers::{self, CacheSnap, Counts};
use crate::record::{Check, Metrics};
use crate::stats::{fnv1a, Gauge, HotColdCycle, Rng, Zipf, FNV_SEED};
use crate::trace::{self, Span, Tracer};

/// Load-generating client threads of `serve_mixed_small`.
pub const SERVE_CLIENTS: usize = 2;
/// `kdap serve`'s engine configuration.
const SERVER_WORKERS: usize = 2;
const CACHE_CAPACITY: usize = 64;
/// Data seeds are fixed; `--seed` never reaches a generator.
const AW_SEED: u64 = 42;
const EBIZ_SEED: u64 = 7;
/// Distinct queries per population: 4× the subspace cache.
const POPULATION: usize = 256;
const POPULATION_SEED: u64 = 42;
/// Popularity: the 32 hottest queries take 80 % of the operations, the
/// other 224 the rest — the head hits, the tail misses, and p50 / p95
/// each sit well inside one of the two (see `stats::HotColdCycle`). The
/// hot set is half the subspace cache: an LRU of 64 evicts a hot query
/// only after 33 distinct cold ones passed without it being asked, and a
/// cycle of the schedule brings 8, so the hot operations hit; a hot set of
/// 48 would leave room for 16 cold ones and lose a quarter of its hits.
const HOT_RANKS: usize = 32;
const HOT_SHARE: f64 = 0.8;
/// Warm-up covers the ranks an LRU of `CACHE_CAPACITY` can hold; a pass
/// over more distinct queries would only leave the *tail* cached.
const WARM_RANKS: usize = CACHE_CAPACITY;
/// An untraced run sets up this many times and reports the median, so
/// `setup_s` is a steady number (a traced run reports no `setup_s`).
const SETUP_REPEATS: usize = 3;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One operation of the measured loop.
pub struct Sample {
    /// At the reference host speed where the run's `host_factor` is set.
    pub latency_ms: f64,
    /// `explore` and `differentiate` also feed the per-verb metrics.
    pub kind: &'static str,
}

/// What one workload run hands back to `main` for reporting.
pub struct Outcome {
    /// Every set-up's duration; the run reports their median.
    pub setup_s: Vec<f64>,
    /// How long the measured loop took.
    pub wall_s: f64,
    /// How much slower than the reference host the measured loop ran
    /// (`stats::Gauge`). Where it is set, `setup_s`, `wall_s` and the
    /// samples are at the reference host speed: already divided by the
    /// host factor of their own moment. `None` on the one workload that is
    /// not CPU-bound (`serve_mixed_small`): plain wall-clock.
    pub host_factor: Option<f64>,
    /// One sample per completed operation of the measured loop.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub fact_rows: usize,
    pub approx_bytes: usize,
    pub peak_rss_mb: f64,
    pub intended_top5_ratio: Option<f64>,
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// Per-layer metrics only the workload itself can compute.
    pub layer: Metrics,
}

pub fn run(workload: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match workload {
        "serve_mixed_small" => serve_mixed_small(cfg),
        "explore_scan_large" => explore_scan_large(cfg),
        "differentiate_ambiguous" => differentiate_ambiguous(cfg),
        "cold_start" => cold_start(cfg),
        _ => return None,
    })
}

// ---------------------------------------------------------------- shared

fn engine(wh: Warehouse, threads: usize) -> Kdap {
    Kdap::builder(wh)
        .cache_capacity(CACHE_CAPACITY)
        .observability(true)
        .threads(threads)
        .build()
        .expect("generated warehouses define a measure")
}

/// The fixed query population of a warehouse: `POPULATION` labeled
/// queries of at least `min_keywords` keywords, in generation order
/// (which is also their popularity rank).
fn population(wh: &Warehouse, min_keywords: usize) -> Vec<LabeledQuery> {
    // Lengths cycle over 1..=5, so 3-to-5-keyword queries are 3 in 5.
    let n_queries = if min_keywords > 1 {
        2 * POPULATION
    } else {
        POPULATION
    };
    let cfg = WorkloadConfig {
        n_queries,
        seed: POPULATION_SEED,
        max_keywords: 5,
        dimensions: None,
    };
    let queries: Vec<LabeledQuery> = generate_workload(wh, &cfg)
        .into_iter()
        .filter(|q| q.keywords.len() >= min_keywords)
        .take(POPULATION)
        .collect();
    assert_eq!(
        queries.len(),
        POPULATION,
        "population generator came up short"
    );
    queries
}

/// Gauge readings taken right before and right after each set-up.
const SETUP_GAUGE_READS: usize = 3;

/// Runs `build` once (traced) or `SETUP_REPEATS` times (untraced),
/// dropping each state before building the next, and returns the last
/// state with every set-up's duration in seconds — with a gauge, at the
/// reference host speed (see `stats::Gauge`).
fn repeat_setup<S>(
    tr: &mut Tracer,
    mut gauge: Option<&mut Gauge>,
    mut build: impl FnMut(&mut Tracer) -> S,
) -> (S, Vec<f64>) {
    let repeats = if tr.enabled() { 1 } else { SETUP_REPEATS };
    let mut times = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        let mut read_gauge = || {
            if let Some(gauge) = gauge.as_deref_mut() {
                (0..SETUP_GAUGE_READS).for_each(|_| gauge.read());
            }
        };
        read_gauge();
        let start = Instant::now();
        state = Some(build(tr));
        let seconds = start.elapsed().as_secs_f64();
        read_gauge();
        // The `2 * SETUP_GAUGE_READS` readings around this set-up.
        let factor = gauge
            .as_deref()
            .map_or(1.0, |g| g.factor_since(g.mark() - 2 * SETUP_GAUGE_READS));
        times.push(seconds / factor);
    }
    (state.expect("at least one set-up"), times)
}

/// What the measured loop of a one-caller workload produced, its timings
/// at the reference host speed.
struct Measured {
    wall_s: f64,
    samples: Vec<Sample>,
    attempted: u64,
    peak_rss_mb: f64,
    host_factor: f64,
}

/// The measured loop of a one-caller workload: calls `op` with a 1-based
/// operation id until `cfg.seconds` have passed, reading the gauge
/// between operations. `op` returns the operation's latency in
/// milliseconds, or `None` when it has none to report.
fn measure(
    cfg: &RunConfig,
    gauge: &mut Gauge,
    kind: &'static str,
    mut op: impl FnMut(u64) -> Option<f64>,
) -> Measured {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(cfg.seconds);
    let mark = gauge.mark();
    let mut attempted = 0;
    let mut timed = Vec::new();
    while Instant::now() < deadline {
        gauge.tick();
        attempted += 1;
        if let Some(latency_ms) = op(attempted) {
            timed.push((Instant::now(), latency_ms));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    // So that the last operations have a reading after them, too.
    gauge.read();
    let host_factor = gauge.factor_since(mark);
    let samples = timed
        .into_iter()
        .map(|(at, latency_ms)| Sample {
            latency_ms: latency_ms / gauge.factor_at(at),
            kind,
        })
        .collect();
    Measured {
        wall_s: wall_s / host_factor,
        samples,
        attempted,
        peak_rss_mb,
        host_factor,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("peak_rss_mb needs Linux /proc");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        detail,
    }
}

fn explore_body(q: &LabeledQuery) -> String {
    format!("{{\"keywords\": {}}}", json_string(&q.text()))
}

/// What the byte-identity checks compare of one encoded response.
///
/// The engine orders equal-score interpretations by `HashSet` iteration
/// (`core/src/phrase.rs`), so which of two tied interpretations is
/// listed first — or explored — can differ from call to call. Where, and
/// only where, the ranking is tied, a check accepts two bodies that
/// differ in bytes but list the same set of interpretations, and reports
/// how many it accepted that way.
#[derive(Clone, Copy, PartialEq)]
struct Digest {
    /// FNV-1a of the body.
    bytes: u64,
    /// The ranking has equal scores next to each other, among the listed
    /// interpretations or across the cut behind the last of them.
    tied: bool,
    /// Order-insensitive digest of the listed interpretations.
    interpretations: Option<u64>,
}

impl Digest {
    fn of(response: &QueryResponse, body: &str) -> Digest {
        let listed = response.interpretations.len();
        let ranked = &response.ranked[..response.ranked.len().min(listed + 1)];
        Digest {
            bytes: fnv1a(FNV_SEED, body.as_bytes()),
            tied: ranked.windows(2).any(|pair| pair[0].score == pair[1].score),
            interpretations: interpretation_set(body),
        }
    }

    /// The digest of a body off the wire, whose ranking `local` — the
    /// same request answered in process — knows.
    fn of_wire(body: &[u8], local: &Digest) -> Digest {
        Digest {
            bytes: fnv1a(FNV_SEED, body),
            tied: local.tied,
            interpretations: std::str::from_utf8(body).ok().and_then(interpretation_set),
        }
    }
}

/// Digest of the set of `(score, fingerprint)` pairs a JSON response body
/// lists, whatever their order. When the list is cut short of
/// `n_interpretations`, a tie can straddle the cut and put another member
/// of the tied group on the list, so the group with the last listed score
/// counts by score alone. `None` when the body is not a response.
fn interpretation_set(body: &str) -> Option<u64> {
    let doc = kdap_core::api::json::parse(body).ok()?;
    let total = doc.get("n_interpretations")?.as_num()? as usize;
    let listed = doc.get("interpretations")?.as_arr()?;
    let score_of = |item: &kdap_core::api::json::Json| Some(item.get("score")?.as_num()?.to_bits());
    let cut_score = match listed.last() {
        Some(last) if listed.len() < total => Some(score_of(last)?),
        _ => None,
    };
    listed.iter().try_fold(listed.len() as u64, |sum, item| {
        let score = score_of(item)?;
        let fingerprint = if Some(score) == cut_score {
            ""
        } else {
            item.get("fingerprint")?.as_str()?
        };
        let pair = fnv1a(
            fnv1a(FNV_SEED, &score.to_le_bytes()),
            fingerprint.as_bytes(),
        );
        Some(sum.wrapping_add(pair))
    })
}

/// A byte-identity check: every list must equal the first, position by
/// position — in bytes, or, where the ranking is tied, in the set of
/// interpretations listed.
fn identity_check(name: &str, what: &str, lists: &[&[Digest]]) -> Check {
    let (mut differ, mut reordered) = (0, 0);
    for (i, first) in lists[0].iter().enumerate() {
        let others = || lists[1..].iter().map(|l| &l[i]);
        if others().all(|d| d.bytes == first.bytes) {
            continue;
        }
        let same_set = first.interpretations.is_some()
            && others().all(|d| d.interpretations == first.interpretations);
        if first.tied && same_set {
            reordered += 1;
        } else {
            differ += 1;
        }
    }
    check(
        name,
        differ == 0,
        format!(
            "{} {what} × {} passes: {differ} differ, {reordered} only reorder tied interpretations",
            lists[0].len(),
            lists.len()
        ),
    )
}

/// What the server does with a request body, in process: decode, run,
/// encode. The three spans are what `core.api.*` is measured from.
fn answer_with(
    tr: &mut Tracer,
    id: u64,
    kdap: &Kdap,
    verb: Verb,
    body: &str,
) -> Result<(QueryResponse, String), String> {
    let (request, _) = tr.span("core.api.decode", id, |_| {
        QueryRequest::from_json(verb, body)
    });
    let request = request.map_err(|e| e.to_string())?;
    let (response, _) = tr.span("kdap.run", id, |_| kdap.run(&request));
    let response = response.map_err(|e| e.to_string())?;
    let (encoded, _) = tr.span("core.api.encode", id, |_| response.encode(WireFormat::Json));
    Ok((response, encoded.map_err(|e| e.to_string())?))
}

/// [`answer_with`], keeping only the encoded body.
fn answer(tr: &mut Tracer, id: u64, kdap: &Kdap, verb: Verb, body: &str) -> Result<String, String> {
    answer_with(tr, id, kdap, verb, body).map(|(_, encoded)| encoded)
}

/// The digest of one untraced [`answer_with`].
fn answer_digest(kdap: &Kdap, verb: Verb, body: &str) -> Result<Digest, String> {
    let mut quiet = Tracer::new(Instant::now(), false);
    let (response, encoded) = answer_with(&mut quiet, 0, kdap, verb, body)?;
    Ok(Digest::of(&response, &encoded))
}

/// Digests of the explore responses of `requests`, in order.
fn explore_digests(kdap: &Kdap, requests: &[&QueryRequest]) -> Result<Vec<Digest>, String> {
    requests
        .iter()
        .map(|r| {
            let response = kdap.run(r).map_err(|e| format!("`{}`: {e}", r.keywords))?;
            let body = response
                .encode(WireFormat::Json)
                .map_err(|e| e.to_string())?;
            Ok(Digest::of(&response, &body))
        })
        .collect()
}

/// Warms a session through its production entry point: the head ranks
/// once, then rank 0 again. The first and the repeated run of rank 0 are
/// what `core.session.first_explore_*` is measured from.
fn warm_session(tr: &mut Tracer, kdap: &Kdap, requests: &[QueryRequest]) {
    let run = |r: &QueryRequest| kdap.run(r).map(drop).expect("population queries answer");
    tr.span("core.session.first_explore", 0, |_| run(&requests[0]));
    for request in &requests[1..WARM_RANKS] {
        run(request);
    }
    tr.span("core.session.warm_explore", 0, |_| run(&requests[0]));
}

// ---------------------------------------------------- explore_scan_large

/// AW_ONLINE ×10: 604 800 facts, the largest scale whose three set-ups,
/// measured loop and checks fit a run of the acceptance budget.
const EXPLORE_SCALE: usize = 10;
/// Zipf(1.0) draws of the traced run's `core.cache.zipf_*` probe.
const ZIPF_DRAWS: usize = 256;

/// Engine threads of the measured `explore_scan_large` session: two where
/// the host has two cores, so that one end-to-end workload runs the
/// intra-query parallel path (`par_map`, the `*_exec` row-set operations).
pub fn explore_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn explore_warehouse() -> Warehouse {
    build_aw_online(Scale::full().scaled(EXPLORE_SCALE), AW_SEED).expect("generator is valid")
}

struct ExploreState {
    kdap: Kdap,
    requests: Vec<QueryRequest>,
}

fn explore_setup(tr: &mut Tracer) -> ExploreState {
    let (wh, _) = tr.span("datagen.build", 0, |_| explore_warehouse());
    let requests: Vec<QueryRequest> = population(&wh, 1)
        .iter()
        .map(|q| QueryRequest::new(Verb::Explore, q.text()))
        .collect();
    let (kdap, _) = tr.span("core.session.build", 0, |_| engine(wh, explore_threads()));
    warm_session(tr, &kdap, &requests);
    ExploreState { kdap, requests }
}

fn explore_scan_large(cfg: &RunConfig) -> Outcome {
    let mut tr = Tracer::new(Instant::now(), cfg.trace);
    let mut gauge = Gauge::new();
    let (state, setup_s) = repeat_setup(&mut tr, Some(&mut gauge), explore_setup);
    let ExploreState { kdap, requests } = &state;
    let planner = Planner::new(*kdap.planner().config(), false);
    let mut rng = Rng::new(cfg.seed);
    let mut schedule = HotColdCycle::new(requests.len(), HOT_RANKS, HOT_SHARE, &mut rng);
    let mut counts = Counts::default();
    let mut failed = 0u64;

    let measured = measure(cfg, &mut gauge, "explore", |id| {
        let request = &requests[schedule.next(&mut rng)];
        let (latency_ms, _) = tr.span("op", id, |tr| {
            let before = tr.enabled().then(|| CacheSnap::take(kdap));
            let (response, ns) = tr.span("production", id, |_| kdap.run(request));
            match (response, before) {
                (Err(_), _) => failed += 1,
                (Ok(_), None) => {}
                (Ok(response), Some(before)) => {
                    counts.add_cache_delta(&before, &CacheSnap::take(kdap));
                    tr.span("core.api.encode", id, |_| response.encode(WireFormat::Json))
                        .0
                        .ok();
                    layers::stage_explore(tr, id, kdap, &planner, &request.keywords, &mut counts);
                }
            }
            ns as f64 / 1e6
        });
        Some(latency_ms)
    });

    let mut layer = Metrics::new();
    if cfg.trace {
        // The popularity ISSUE 11 asked for, on the measured session as the
        // loop left it. It gates nothing; a change that is sensitive to skew
        // shows here.
        let zipf = Zipf::new(requests.len());
        let before = CacheSnap::take(kdap);
        for _ in 0..ZIPF_DRAWS {
            let request = &requests[zipf.sample(&mut rng)];
            tr.span("core.cache.zipf_explore", 0, |_| kdap.run(request).ok());
        }
        let hit_ratio = before.subspace_hit_ratio_since(&CacheSnap::take(kdap));
        layers::put(
            &mut layer,
            "core.cache.zipf_hit_ratio",
            hit_ratio,
            Some(ZIPF_DRAWS as u64),
        );
    }

    // Correctness: 32 distinct cold queries answer identically on a fresh
    // session with the other thread count (which never ran them: every
    // one a miss), on that session again (every one a hit), and on the
    // measured session.
    let threads = explore_threads();
    let other_threads = 3 - threads;
    let other = engine(explore_warehouse(), other_threads);
    if cfg.trace && threads == 2 {
        // `query.exec.speedup_t2`: 64 further cold queries on two sessions
        // that differ in nothing but their thread count — both fresh, so
        // neither has a cached semi-join, row mapper or subspace the other
        // lacks.
        let fresh = engine(explore_warehouse(), threads);
        for request in &requests[128..192] {
            tr.span("query.exec.t1", 0, |_| other.run(request).ok());
            tr.span("query.exec.t2", 0, |_| fresh.run(request).ok());
        }
    }
    let sample: Vec<&QueryRequest> = requests[64..128].iter().step_by(2).collect();
    let cache_before = CacheSnap::take(&other);
    let passes: Result<Vec<_>, _> = [&other, &other, kdap]
        .into_iter()
        .map(|session| explore_digests(session, &sample))
        .collect();
    let (hits, misses) = cache_before.subspace_hits_misses_since(&CacheSnap::take(&other));
    let checks = match passes {
        Ok(passes) => vec![
            identity_check(
                "two_passes_identical",
                &format!(
                    "explore bodies (fresh session: {misses} misses and {hits} hits over both)"
                ),
                &[&passes[0], &passes[1]],
            ),
            identity_check(
                &format!("threads{threads}_equals_fresh_threads{other_threads}"),
                "explore bodies",
                &[&passes[2], &passes[0]],
            ),
        ],
        Err(what) => vec![check("sampled_queries_answer", false, what)],
    };

    if cfg.trace {
        layer.extend(layers::probe_builds(&mut tr, kdap.warehouse()));
    }
    Outcome {
        setup_s,
        wall_s: measured.wall_s,
        host_factor: Some(measured.host_factor),
        samples: measured.samples,
        attempted: measured.attempted,
        failed,
        checks,
        fact_rows: kdap.warehouse().fact_rows(),
        approx_bytes: kdap.warehouse().approx_bytes(),
        peak_rss_mb: measured.peak_rss_mb,
        intended_top5_ratio: None,
        spans: tr.into_spans(),
        counts,
        layer,
    }
}

// ------------------------------------------------ differentiate_ambiguous

/// EBIZ ×10: its vocabulary collides across attribute domains, so a
/// query of 3–5 keywords has tens of interpretations.
const DIFFERENTIATE_SCALE: usize = 10;

struct DifferentiateState {
    kdap: Kdap,
    queries: Vec<LabeledQuery>,
    bodies: Vec<String>,
}

fn differentiate_setup(tr: &mut Tracer) -> DifferentiateState {
    let (wh, _) = tr.span("datagen.build", 0, |_| {
        build_ebiz(EbizScale::full().scaled(DIFFERENTIATE_SCALE), EBIZ_SEED)
            .expect("generator is valid")
    });
    let queries = population(&wh, 3);
    let bodies: Vec<String> = queries
        .iter()
        .map(|q| format!("{{\"keywords\": {}, \"limit\": 0}}", json_string(&q.text())))
        .collect();
    let (kdap, _) = tr.span("core.session.build", 0, |_| engine(wh, 1));
    let mut quiet = Tracer::new(Instant::now(), false);
    for body in &bodies[..WARM_RANKS] {
        answer(&mut quiet, 0, &kdap, Verb::Differentiate, body).expect("population queries answer");
    }
    DifferentiateState {
        kdap,
        queries,
        bodies,
    }
}

fn differentiate_ambiguous(cfg: &RunConfig) -> Outcome {
    let mut tr = Tracer::new(Instant::now(), cfg.trace);
    let mut gauge = Gauge::new();
    let (state, setup_s) = repeat_setup(&mut tr, Some(&mut gauge), differentiate_setup);
    let DifferentiateState {
        kdap,
        queries,
        bodies,
    } = &state;
    let mut rng = Rng::new(cfg.seed);
    let mut counts = Counts::default();
    let mut failed = 0u64;

    let measured = measure(cfg, &mut gauge, "differentiate", |id| {
        // No cache is on this path, so there is no hot set to model: all 256
        // queries are equally likely and no query's cost is an atom of the
        // latency distribution.
        let rank = (rng.next_u64() % bodies.len() as u64) as usize;
        let (latency_ms, _) = tr.span("op", id, |tr| {
            let (body, ns) = tr.span("production", id, |tr| {
                answer(tr, id, kdap, Verb::Differentiate, &bodies[rank])
            });
            if body.is_err() {
                failed += 1;
            } else if tr.enabled() {
                layers::stage_differentiate(tr, id, kdap, &queries[rank].text(), &mut counts);
            }
            ns as f64 / 1e6
        });
        Some(latency_ms)
    });

    let pass = || -> Result<Vec<Digest>, String> {
        bodies
            .iter()
            .step_by(8)
            .map(|b| answer_digest(kdap, Verb::Differentiate, b))
            .collect()
    };
    let mut checks = vec![match (pass(), pass()) {
        (Ok(first), Ok(second)) => identity_check(
            "two_passes_identical",
            "differentiate bodies",
            &[&first, &second],
        ),
        (first, second) => check(
            "sampled_queries_answer",
            false,
            first.and(second).err().unwrap_or_default(),
        ),
    }];
    // Ranking quality: the share of labeled queries whose ground-truth
    // interpretation is among the first five. Exact for fixed data.
    let top5 = queries
        .iter()
        .filter(|q| {
            let request = QueryRequest::new(Verb::Differentiate, q.text());
            kdap.run(&request)
                .is_ok_and(|r| layers::intended_in_top5(kdap.warehouse(), &r.ranked, q))
        })
        .count();
    let intended_top5_ratio = top5 as f64 / queries.len() as f64;
    checks.push(check(
        "intended_interpretations_rank",
        top5 > 0,
        format!("{top5} of {} within the top 5", queries.len()),
    ));

    let layer = if cfg.trace {
        layers::probe_builds(&mut tr, kdap.warehouse())
    } else {
        Metrics::new()
    };
    Outcome {
        setup_s,
        wall_s: measured.wall_s,
        host_factor: Some(measured.host_factor),
        samples: measured.samples,
        attempted: measured.attempted,
        failed,
        checks,
        fact_rows: kdap.warehouse().fact_rows(),
        approx_bytes: kdap.warehouse().approx_bytes(),
        peak_rss_mb: measured.peak_rss_mb,
        intended_top5_ratio: Some(intended_top5_ratio),
        spans: tr.into_spans(),
        counts,
        layer,
    }
}

// ----------------------------------------------------- serve_mixed_small

const TENANTS: [&str; 2] = ["aw", "ebiz"];
/// Request mix: 65 % explore, 25 % differentiate, 10 % stats. Like the
/// popularity it is synthetic — ISSUE 11's guess at an analyst who mostly
/// explores, fitted to no request log.
const EXPLORE_SHARE: f64 = 0.65;
const DIFFERENTIATE_SHARE: f64 = 0.25;

struct ServeState {
    server: Option<KdapServer>,
    addr: SocketAddr,
    engines: [Arc<Kdap>; 2],
    /// Per tenant: one JSON body per population query (explore and
    /// differentiate take the same body).
    bodies: [Vec<String>; 2],
}

impl Drop for ServeState {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn serve_warehouses() -> [Warehouse; 2] {
    [
        build_aw_online(Scale::full(), AW_SEED).expect("generator is valid"),
        build_ebiz(EbizScale::full(), EBIZ_SEED).expect("generator is valid"),
    ]
}

fn serve_setup(tr: &mut Tracer) -> ServeState {
    let (warehouses, _) = tr.span("datagen.build", 0, |_| serve_warehouses());
    let bodies = [&warehouses[0], &warehouses[1]].map(|wh| {
        population(wh, 1)
            .iter()
            .map(explore_body)
            .collect::<Vec<_>>()
    });
    let (engines, _) = tr.span("core.session.build", 0, |_| {
        warehouses.map(|wh| Arc::new(engine(wh, 1)))
    });
    let mut registry = EngineRegistry::new();
    for (name, kdap) in TENANTS.iter().zip(&engines) {
        registry.register(*name, Arc::clone(kdap));
    }
    let config = ServerConfig {
        port: 0,
        workers: SERVER_WORKERS,
        ..ServerConfig::default()
    };
    let server = KdapServer::start(registry, &config).expect("ephemeral loopback bind");
    let addr = server.addr();
    let state = ServeState {
        server: Some(server),
        addr,
        engines,
        bodies,
    };
    let mut client = Client::new(addr);
    for (tenant, bodies) in TENANTS.iter().zip(&state.bodies) {
        let path = format!("/v1/{tenant}/explore");
        for body in &bodies[..WARM_RANKS] {
            let reply = client
                .request("POST", &path, body)
                .expect("server answers warm-up");
            assert_eq!(reply.status, 200, "warm-up explore on `{tenant}`");
        }
    }
    state
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientTally {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    status_4xx: u64,
    status_5xx: u64,
    response_bytes: u64,
    connects: u64,
    edge_ms: Vec<f64>,
    spans: Vec<Span>,
}

fn serve_client(
    state: &ServeState,
    cfg: &RunConfig,
    thread: u64,
    origin: Instant,
    start: Instant,
    mirrors: Option<[Kdap; 2]>,
) -> ClientTally {
    let deadline = start + Duration::from_secs(cfg.seconds);
    let mut tr = Tracer::new(origin, cfg.trace);
    let mut tally = ClientTally::default();
    let mut client = Client::new(state.addr);
    // Each client draws its own stream from the one seed.
    let mut rng = Rng::new(cfg.seed ^ (thread + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut schedule = HotColdCycle::new(POPULATION, HOT_RANKS, HOT_SHARE, &mut rng);
    let paths = TENANTS.map(|t| {
        [
            format!("/v1/{t}/explore"),
            format!("/v1/{t}/differentiate"),
            format!("/v1/{t}/stats"),
        ]
    });
    while Instant::now() < deadline {
        tally.attempted += 1;
        let id = thread << 32 | tally.attempted;
        let mix = rng.next_f64();
        let tenant = (rng.next_u64() & 1) as usize;
        let rank = schedule.next(&mut rng);
        let (kind, span_name, method, path, body) = if mix < EXPLORE_SHARE {
            (
                "explore",
                "http.explore",
                "POST",
                &paths[tenant][0],
                state.bodies[tenant][rank].as_str(),
            )
        } else if mix < EXPLORE_SHARE + DIFFERENTIATE_SHARE {
            (
                "differentiate",
                "http.differentiate",
                "POST",
                &paths[tenant][1],
                state.bodies[tenant][rank].as_str(),
            )
        } else {
            ("stats", "http.stats", "GET", &paths[tenant][2], "")
        };
        tr.span("op", id, |tr| {
            let (reply, rtt_ns) = tr.span("production", id, |tr| {
                tr.span(span_name, id, |_| client.request(method, path, body))
                    .0
            });
            tally.samples.push(Sample {
                latency_ms: rtt_ns as f64 / 1e6,
                kind,
            });
            match &reply {
                Ok(reply) => {
                    tally.response_bytes += reply.body.len() as u64;
                    match reply.status {
                        200..=299 => {}
                        400..=499 => tally.status_4xx += 1,
                        _ => tally.status_5xx += 1,
                    }
                    tally.failed += u64::from(!(200..300).contains(&reply.status));
                }
                Err(_) => tally.failed += 1,
            }
            let Some(mirrors) = &mirrors else { return };
            // Staged: the no-engine round trip, and the same explore
            // answered in process on this client's own mirror engine
            // (profile capture and cache state are per session, so the
            // served engines see production traffic only).
            tr.span("server.healthz", id, |_| {
                client.request("GET", "/healthz", "")
            })
            .0
            .ok();
            if kind == "explore" && reply.is_ok() {
                let (_, inproc_ns) = tr.span("inprocess", id, |tr| {
                    answer(tr, id, &mirrors[tenant], Verb::Explore, body).ok()
                });
                tally.edge_ms.push((rtt_ns as f64 - inproc_ns as f64) / 1e6);
            }
        });
    }
    tally.connects = client.connects;
    tally.spans = tr.into_spans();
    tally
}

fn serve_mixed_small(cfg: &RunConfig) -> Outcome {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, cfg.trace);
    // No gauge on this workload: its warm-up and its measured loop alike
    // wait on the watcher's 5 ms timer, which does not slow down with the
    // host, so dividing by a host factor would turn a slow host into an
    // apparent gain.
    let (state, setup_s) = repeat_setup(&mut tr, None, serve_setup);
    let mut mirrors: Vec<Option<[Kdap; 2]>> = (0..SERVE_CLIENTS)
        .map(|_| {
            cfg.trace
                .then(|| serve_warehouses().map(|wh| engine(wh, 1)))
        })
        .collect();
    let before = state.engines.each_ref().map(|k| CacheSnap::take(k));

    let start = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let handles: Vec<_> = mirrors
            .iter_mut()
            .enumerate()
            .map(|(t, mirror)| {
                let (state, mirror) = (&state, mirror.take());
                s.spawn(move || serve_client(state, cfg, t as u64, origin, start, mirror))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();

    let mut counts = Counts::default();
    for (kdap, before) in state.engines.iter().zip(&before) {
        counts.add_cache_delta(before, &CacheSnap::take(kdap));
    }
    let mut total = ClientTally::default();
    let mut thread_spans = vec![tr.into_spans()];
    for tally in tallies {
        total.samples.extend(tally.samples);
        total.attempted += tally.attempted;
        total.failed += tally.failed;
        total.status_4xx += tally.status_4xx;
        total.status_5xx += tally.status_5xx;
        total.response_bytes += tally.response_bytes;
        total.connects += tally.connects;
        total.edge_ms.extend(tally.edge_ms);
        thread_spans.push(tally.spans);
    }

    // Correctness: sampled explore and differentiate bodies off the wire
    // equal the in-process encoding byte for byte, twice.
    let mut client = Client::new(state.addr);
    let mut lists: [Vec<Digest>; 3] = Default::default();
    let mut broken = None;
    for (t, tenant) in TENANTS.iter().enumerate() {
        for (verb, action) in [
            (Verb::Explore, "explore"),
            (Verb::Differentiate, "differentiate"),
        ] {
            let path = format!("/v1/{tenant}/{action}");
            for body in state.bodies[t].iter().step_by(16) {
                let local = match answer_digest(&state.engines[t], verb, body) {
                    Ok(digest) => digest,
                    Err(e) => {
                        broken = Some(format!("{path} {body}: {e}"));
                        continue;
                    }
                };
                lists[0].push(local);
                for wire in &mut lists[1..] {
                    match client.request("POST", &path, body) {
                        Ok(reply) if reply.status == 200 => {
                            wire.push(Digest::of_wire(&reply.body, &local))
                        }
                        Ok(reply) => {
                            broken = Some(format!("{path} {body}: status {}", reply.status))
                        }
                        Err(e) => broken = Some(format!("{path} {body}: {e}")),
                    }
                }
            }
        }
    }
    let checks = vec![match broken {
        None => identity_check(
            "wire_equals_in_process_twice",
            "bodies (in process, wire, wire)",
            &[&lists[0], &lists[1], &lists[2]],
        ),
        Some(what) => check("sampled_queries_answer", false, what),
    }];

    let mut layer = Metrics::new();
    if cfg.trace {
        let mut probe = Tracer::new(origin, true);
        layer = layers::probe_builds(&mut probe, state.engines[0].warehouse());
        thread_spans.push(probe.into_spans());
        let ops = total.attempted.max(1) as f64;
        layers::put(
            &mut layer,
            "server.connects",
            Some(total.connects as f64),
            None,
        );
        layers::put(
            &mut layer,
            "server.status_4xx",
            Some(total.status_4xx as f64),
            None,
        );
        layers::put(
            &mut layer,
            "server.status_5xx",
            Some(total.status_5xx as f64),
            None,
        );
        layers::put(
            &mut layer,
            "server.response_bytes_mean",
            Some(total.response_bytes as f64 / ops),
            Some(total.attempted),
        );
        layers::put(
            &mut layer,
            "server.edge_ms",
            crate::stats::median(&total.edge_ms),
            Some(total.edge_ms.len() as u64),
        );
    }
    let warehouses = state.engines.each_ref().map(|k| k.warehouse());
    Outcome {
        setup_s,
        wall_s,
        host_factor: None,
        samples: total.samples,
        attempted: total.attempted,
        failed: total.failed,
        checks,
        fact_rows: warehouses.iter().map(|w| w.fact_rows()).sum(),
        approx_bytes: warehouses.iter().map(|w| w.approx_bytes()).sum(),
        peak_rss_mb,
        intended_top5_ratio: None,
        spans: trace::merge(thread_spans),
        counts,
        layer,
    }
}

// ------------------------------------------------------------ cold_start

/// A third of AW_ONLINE ×1: one cold start is then ≈ 50 ms, so a run
/// collects the ≥ 200 time-to-first-answer samples a p95 needs.
fn cold_scale() -> Scale {
    Scale {
        facts: Scale::full().facts / 3,
        ..Scale::full()
    }
}

/// The first query of a cold start rotates over this many, so that no
/// single query's cost is a large atom of the latency distribution.
const COLD_FIRST_QUERIES: usize = 64;
/// Further distinct explores after the first answer, outside the latency.
const COLD_MORE_QUERIES: usize = 4;

struct ColdState {
    dir: PathBuf,
    requests: Vec<QueryRequest>,
    /// Digests of the first responses of an engine over the in-memory,
    /// never-saved warehouse.
    reference: Vec<Digest>,
    fact_rows: usize,
    approx_bytes: usize,
}

impl Drop for ColdState {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn cold_setup(tr: &mut Tracer) -> ColdState {
    let (wh, _) = tr.span("datagen.build", 0, |_| {
        build_aw_online(cold_scale(), AW_SEED).expect("generator is valid")
    });
    let requests: Vec<QueryRequest> = population(&wh, 1)
        .iter()
        .take(COLD_FIRST_QUERIES + COLD_MORE_QUERIES)
        .map(|q| QueryRequest::new(Verb::Explore, q.text()))
        .collect();
    let dir = PathBuf::from(format!(
        "target/kdap_bench/cold_start_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    tr.span("warehouse.save", 0, |_| {
        save_warehouse(&wh, &dir).expect("warehouse saves under target/")
    });
    let (fact_rows, approx_bytes) = (wh.fact_rows(), wh.approx_bytes());
    let kdap = engine(wh, 1);
    let firsts: Vec<&QueryRequest> = requests[..COLD_FIRST_QUERIES].iter().collect();
    let reference = explore_digests(&kdap, &firsts).expect("population queries answer");
    ColdState {
        dir,
        requests,
        reference,
        fact_rows,
        approx_bytes,
    }
}

fn cold_start(cfg: &RunConfig) -> Outcome {
    let mut tr = Tracer::new(Instant::now(), cfg.trace);
    let mut gauge = Gauge::new();
    let (state, setup_s) = repeat_setup(&mut tr, Some(&mut gauge), cold_setup);
    let (mut failed, mut wrong_rows) = (0u64, 0u64);
    let (mut expected, mut observed) = (Vec::new(), Vec::new());
    let mut layer = Metrics::new();

    let measured = measure(cfg, &mut gauge, "cold_start", |id| {
        let which = (id as usize - 1) % COLD_FIRST_QUERIES;
        let first = &state.requests[which];
        let mut first_answer_ms = None;
        tr.span("op", id, |tr| {
            let (answered, _) = tr.span("production", id, |tr| {
                let begin = Instant::now();
                let (wh, _) = tr.span("warehouse.load", id, |_| load_warehouse(&state.dir));
                let wh = wh.ok()?;
                let rows = wh.fact_rows();
                let (kdap, _) = tr.span("core.session.build", id, |_| engine(wh, 1));
                let (response, _) = tr.span("core.session.first_explore", id, |_| kdap.run(first));
                first_answer_ms = Some(begin.elapsed().as_secs_f64() * 1e3);
                let response = response.ok()?;
                let body = response.encode(WireFormat::Json).ok()?;
                let first_digest = Digest::of(&response, &body);
                for request in &state.requests[COLD_FIRST_QUERIES..] {
                    kdap.run(request).ok()?;
                }
                Some((kdap, rows, first_digest))
            });
            let Some((kdap, rows, first_digest)) = answered else {
                failed += 1;
                return;
            };
            wrong_rows += u64::from(rows != state.fact_rows);
            expected.push(state.reference[which]);
            observed.push(first_digest);
            if tr.enabled() {
                tr.span("core.session.warm_explore", id, |_| kdap.run(first).ok());
                // The index builds `build()` just paid for, on their own.
                layer = layers::probe_builds(tr, kdap.warehouse());
            }
        });
        first_answer_ms
    });

    let checks = vec![
        check(
            "loaded_fact_rows",
            wrong_rows == 0,
            format!(
                "{} generated; {wrong_rows} of {} loads differ",
                state.fact_rows, measured.attempted
            ),
        ),
        identity_check(
            "first_response_equals_in_memory",
            "first responses",
            &[&expected, &observed],
        ),
    ];
    Outcome {
        setup_s,
        wall_s: measured.wall_s,
        host_factor: Some(measured.host_factor),
        samples: measured.samples,
        attempted: measured.attempted,
        failed,
        checks,
        fact_rows: state.fact_rows,
        approx_bytes: state.approx_bytes,
        peak_rss_mb: measured.peak_rss_mb,
        intended_top5_ratio: None,
        spans: tr.into_spans(),
        counts: Counts::default(),
        layer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A response body listing `listed` as `(score, fingerprint)` out of `total`.
    fn body(total: usize, listed: &[(f64, &str)]) -> String {
        let items: Vec<String> = listed
            .iter()
            .enumerate()
            .map(|(i, (score, fingerprint))| {
                format!(
                    "{{\"rank\": {}, \"score\": {score}, \"display\": \"d\", \"fingerprint\": \"{fingerprint}\"}}",
                    i + 1
                )
            })
            .collect();
        format!(
            "{{\"verb\": \"explore\", \"n_interpretations\": {total}, \"interpretations\": [{}], \"picked\": 1}}",
            items.join(", ")
        )
    }

    fn same(tied: bool, first: &str, second: &str) -> bool {
        let digest = |body: &str| Digest {
            bytes: fnv1a(FNV_SEED, body.as_bytes()),
            tied,
            interpretations: interpretation_set(body),
        };
        identity_check("check", "bodies", &[&[digest(first)], &[digest(second)]]).ok
    }

    #[test]
    fn only_a_reordering_of_tied_scores_is_accepted() {
        let a = body(3, &[(2.0, "x"), (1.0, "y"), (1.0, "z")]);
        let reordered = body(3, &[(2.0, "x"), (1.0, "z"), (1.0, "y")]);
        let other_member = body(3, &[(2.0, "x"), (1.0, "y"), (1.0, "w")]);
        let other_score = body(3, &[(2.0, "x"), (1.0, "y"), (0.5, "z")]);
        assert!(same(false, &a, &a));
        assert!(same(true, &a, &reordered));
        assert!(!same(false, &a, &reordered), "no tie: bytes must match");
        assert!(!same(true, &a, &other_member));
        assert!(!same(true, &a, &other_score));
        assert!(!same(true, &a, "not a response"));
    }

    #[test]
    fn a_tie_across_the_cut_may_list_another_member_of_the_tied_group() {
        let a = body(3, &[(2.0, "x"), (1.0, "y")]);
        let straddling = body(3, &[(2.0, "x"), (1.0, "z")]);
        let above_the_cut = body(3, &[(2.0, "w"), (1.0, "y")]);
        assert!(same(true, &a, &straddling));
        assert!(!same(true, &a, &above_the_cut));
        // Nothing is cut when everything is listed.
        let all = body(2, &[(2.0, "x"), (1.0, "y")]);
        let all_other = body(2, &[(2.0, "x"), (1.0, "z")]);
        assert!(!same(true, &all, &all_other));
    }
}
