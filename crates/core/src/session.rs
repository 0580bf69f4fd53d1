//! End-to-end KDAP session: the two-phase differentiate/explore loop of
//! Figure 1.
//!
//! ```text
//! QueryRequest ──▶ run() ──▶ differentiate: ranked star nets
//!                  ──(pick, refine)──▶ explore: aggregates + dynamic facets
//! ```
//!
//! Sessions are configured through [`KdapBuilder`] and may run the
//! explore phase over several worker threads; `threads = 1` (the
//! default) reproduces the serial pipeline bit for bit.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use kdap_obs::{CacheCounters, CacheOutcome, Obs, QueryProfile};
use kdap_query::{ExecConfig, JoinIndex, MeasureVector};
use kdap_textindex::{tokenize_terms, TextIndex};
use kdap_warehouse::{Measure, Warehouse};

use crate::api::{
    ConstraintSummary, InterpretationSummary, QueryOptions, QueryRequest, QueryResponse, Verb,
};
use crate::cache::{Explored, SubspaceCache};
use crate::error::KdapError;
use crate::facet::{explore_subspace, DataspaceGroups, Exploration, FacetConfig};
use crate::governor::{record_breach, CancelToken, Governor};
use crate::interpret::{try_generate_star_nets, GenConfig, NetText, StarNet};
use crate::navigate::refine;
use crate::plan::Planner;
use crate::rank::{rank_star_nets, RankMethod, RankedStarNet};
use crate::subspace::materialize_planned;

/// Configures and constructs a [`Kdap`] session.
///
/// ```no_run
/// # use kdap_core::Kdap;
/// # fn wh() -> kdap_warehouse::Warehouse { unimplemented!() }
/// let kdap = Kdap::builder(wh())
///     .measure("Revenue")
///     .cache_capacity(64)
///     .threads(4)
///     .build()
///     .expect("valid session");
/// ```
pub struct KdapBuilder {
    wh: Warehouse,
    measure: Option<String>,
    cache_capacity: Option<usize>,
    gen: GenConfig,
    facet: FacetConfig,
    method: RankMethod,
    threads: usize,
    observability: bool,
    deadline: Option<Duration>,
    memory_budget: Option<u64>,
    cancel: Option<CancelToken>,
}

impl KdapBuilder {
    /// Starts a builder over `wh` with default configuration: first
    /// declared measure, no cache, serial execution.
    pub fn new(wh: Warehouse) -> Self {
        KdapBuilder {
            wh,
            measure: None,
            cache_capacity: None,
            gen: GenConfig::default(),
            facet: FacetConfig::default(),
            method: RankMethod::Standard,
            threads: 1,
            observability: false,
            deadline: None,
            memory_budget: None,
            cancel: None,
        }
    }

    /// Selects the measure by name (default: the warehouse's first
    /// declared measure).
    pub fn measure(mut self, name: impl Into<String>) -> Self {
        self.measure = Some(name.into());
        self
    }

    /// Enables the session cache with the given total capacity in nets
    /// (§7 future-work optimization): a repeated exploration — same net,
    /// same effective options — is answered from the cache, without
    /// materializing or scanning anything.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Sets the differentiate-phase configuration.
    pub fn gen_config(mut self, gen: GenConfig) -> Self {
        self.gen = gen;
        self
    }

    /// Sets the explore-phase configuration.
    pub fn facet_config(mut self, facet: FacetConfig) -> Self {
        self.facet = facet;
        self
    }

    /// Sets the star-net ranking method (Standard unless ablating).
    pub fn rank_method(mut self, method: RankMethod) -> Self {
        self.method = method;
        self
    }

    /// Sets the worker-thread count for the parallel execution engine.
    /// `1` (the default) runs serially; `0` uses all available cores.
    /// Results are identical for every setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables the observability recorder (default:
    /// disabled). Enabled, the session records per-stage timings into
    /// query profiles ([`Verb::Profile`]) and metrics; disabled,
    /// every instrumentation point is a no-op branch and results are
    /// bit-identical either way.
    pub fn observability(mut self, enabled: bool) -> Self {
        self.observability = enabled;
        self
    }

    /// Sets a per-query wall-clock deadline. Each `run`/`explore` call
    /// restarts the clock; a query running past it aborts
    /// cooperatively with [`KdapError::Timeout`] at the next kernel
    /// chunk boundary.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a per-query memory budget in bytes, charged by accumulator
    /// and bitmap allocations. A query charging past it aborts with
    /// [`KdapError::BudgetExceeded`].
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Attaches an externally owned cancellation token instead of a
    /// private one. Interactive frontends hand the same token to a
    /// console signal handler; server deployments keep each session's
    /// token private and pass per-request tokens through
    /// [`Kdap::run_cancellable`] instead.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Builds the offline indexes and the session; a `FacetConfig` the
    /// explore phase cannot serve is a [`KdapError::BadFacetConfig`].
    pub fn build(self) -> Result<Kdap, KdapError> {
        self.facet.validate()?;
        let measure = match &self.measure {
            Some(name) => self
                .wh
                .schema()
                .measure_by_name(name)
                .cloned()
                .ok_or_else(|| KdapError::UnknownMeasure(name.clone()))?,
            None => self
                .wh
                .schema()
                .measures()
                .first()
                .cloned()
                .ok_or(KdapError::NoMeasure)?,
        };
        let obs = if self.observability {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let index = TextIndex::build(&self.wh);
        let jidx = JoinIndex::build(&self.wh);
        let exec = if self.threads == 1 {
            ExecConfig::serial()
        } else {
            ExecConfig::with_threads(self.threads)
        }
        .with_obs(obs);
        Ok(Kdap {
            wh: self.wh,
            index,
            jidx,
            gen: self.gen,
            facet: self.facet,
            method: self.method,
            measure,
            cache: self.cache_capacity.map(SubspaceCache::new),
            exec,
            planner: Planner::cached(),
            governor: Governor {
                deadline: self.deadline,
                memory_budget: self.memory_budget,
                cancel: self.cancel.unwrap_or_default(),
            },
            measure_vector: OnceLock::new(),
            dataspace_groups: DataspaceGroups::default(),
        })
    }
}

/// A ready-to-query KDAP system over one warehouse: text index and join
/// indexes are built once at construction. A session is immutable:
/// [`KdapBuilder`] configures it once, [`QueryOptions`] override it per
/// call, so one `Arc<Kdap>` serves concurrent requests.
pub struct Kdap {
    wh: Warehouse,
    index: TextIndex,
    jidx: JoinIndex,
    gen: GenConfig,
    facet: FacetConfig,
    method: RankMethod,
    measure: Measure,
    cache: Option<SubspaceCache>,
    /// The session's execution config; its `obs` is the session's one
    /// observability handle (metrics, no profile).
    exec: ExecConfig,
    planner: Planner,
    governor: Governor,
    /// The measure decoded to a flat `f64` vector on first use, for the
    /// life of the session — every exploration shares one decode.
    measure_vector: OnceLock<MeasureVector>,
    /// Facet group-bys over the whole dataspace (the roll-up to ALL),
    /// computed once per session; bounded by the schema's candidates.
    dataspace_groups: DataspaceGroups,
}

impl Kdap {
    /// Starts a [`KdapBuilder`] over `wh`.
    pub fn builder(wh: Warehouse) -> KdapBuilder {
        KdapBuilder::new(wh)
    }

    /// The underlying warehouse.
    pub fn warehouse(&self) -> &Warehouse {
        &self.wh
    }

    /// The full-text index.
    pub fn text_index(&self) -> &TextIndex {
        &self.index
    }

    /// The join indexes.
    pub fn join_index(&self) -> &JoinIndex {
        &self.jidx
    }

    /// The active measure.
    pub fn measure(&self) -> &Measure {
        &self.measure
    }

    /// The differentiate-phase configuration.
    pub fn gen_config(&self) -> &GenConfig {
        &self.gen
    }

    /// The explore-phase configuration.
    pub fn facet_config(&self) -> &FacetConfig {
        &self.facet
    }

    /// The star-net ranking method.
    pub fn rank_method(&self) -> RankMethod {
        self.method
    }

    /// The execution configuration of the parallel engine.
    pub fn exec_config(&self) -> &ExecConfig {
        &self.exec
    }

    /// A clonable handle that cancels the in-flight query when tripped
    /// (safe to call from a signal handler). Once handed out, every query
    /// of this session polls it at chunk granularity; call
    /// [`CancelToken::reset`] after a cancelled query unwinds.
    pub fn cancel_token(&self) -> CancelToken {
        self.governor.cancel.clone()
    }

    /// A request-scoped execution config: the session's `exec` governed
    /// by a [`Governor`] built from the request's overrides (`timeout_ms`
    /// / `budget_bytes` replace the session defaults when present) and an
    /// optional per-request cancel token (the server trips one on client
    /// disconnect). Fresh per call, so the deadline clock restarts here.
    /// A `timeout_ms` of 0 is an already-expired deadline.
    fn request_exec(&self, options: &QueryOptions, cancel: Option<CancelToken>) -> ExecConfig {
        let deadline = options
            .timeout_ms
            .map(Duration::from_millis)
            .or(self.governor.deadline);
        let memory_budget = options.budget_bytes.or(self.governor.memory_budget);
        // An externally supplied token is shared by construction (its
        // owner holds a clone); the session token only counts when an
        // embedder has taken a handle out via `cancel_token()`.
        let shared = cancel.is_some() || self.governor.cancel.is_shared();
        if deadline.is_none() && memory_budget.is_none() && !shared {
            return self.exec.clone();
        }
        let governor = Governor {
            deadline,
            memory_budget,
            cancel: cancel.unwrap_or_else(|| self.governor.cancel.clone()),
        };
        self.exec.clone().with_govern(governor.fresh_context())
    }

    /// Counts a governance breach in the obs metrics on its way out.
    fn recorded<T>(&self, result: Result<T, KdapError>) -> Result<T, KdapError> {
        if let Err(err) = &result {
            record_breach(&self.exec.obs, err);
        }
        result
    }

    /// The differentiate pipeline with explicit ranking method and
    /// execution config.
    fn interpret_stage(
        &self,
        query: &str,
        method: RankMethod,
        exec: &ExecConfig,
    ) -> Result<Vec<RankedStarNet>, KdapError> {
        let span = exec.obs.span("differentiate");
        let keywords = split_query(query);
        if !has_usable_keyword(&keywords) {
            return Err(KdapError::EmptyQuery);
        }
        span.note("keywords", keywords.len());
        let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
        let nets = {
            let _s = exec.obs.span("generate_star_nets");
            try_generate_star_nets(&self.wh, &self.index, &refs, &self.gen, exec)?
        };
        let ranked = {
            let _s = exec.obs.span("rank_star_nets");
            rank_star_nets(nets, method)
        };
        span.rows_out(ranked.len() as u64);
        Ok(ranked)
    }

    /// Explore phase as a plain call: aggregates `net`'s subspace and
    /// constructs its dynamic facets, under the session configuration and
    /// governance limits. The stage [`Kdap::run`] runs on the picked
    /// interpretation, for callers that hold a net of their own (a
    /// hand-built net, or the explore stage timed alone).
    pub fn explore(&self, net: &StarNet) -> Result<Exploration, KdapError> {
        let exec = self.request_exec(&QueryOptions::default(), None);
        self.recorded(self.explore_stage(net, &self.facet, &exec, false))
            .map(|explored| explored.exploration.clone())
    }

    /// The explore pipeline with explicit facet and execution configs:
    /// answer from the session cache when it holds this net's exploration
    /// under the same `facet`; otherwise materialize the net through the
    /// semi-join cache, run the fused facet scans (whole-dataspace groups
    /// come from, and go to, the session memo), and cache the answer. Every
    /// session memory takes whole entries only: the semi-join cache and
    /// the memo as each step or scan finishes, the cache once the answer
    /// exists.
    ///
    /// `explain` skips the cache lookup, so the stages run and record
    /// their tree; the `explore` node notes instead whether the cache
    /// held the answer (`answer_cache=held|absent`).
    fn explore_stage(
        &self,
        net: &StarNet,
        facet: &FacetConfig,
        exec: &ExecConfig,
        explain: bool,
    ) -> Result<Arc<Explored>, KdapError> {
        let span = exec.obs.span("explore");
        // A hit is governed like any other stage: an expired deadline or
        // a tripped cancel token wins over the lookup. (A byte budget
        // charges what a request allocates; a hit allocates nothing.)
        exec.check_at("explore", 0, 0)?;
        let cache = self.cache.as_ref().map(|c| (c, net.explore_key()));
        if let Some((cache, key)) = &cache {
            if explain {
                let held = cache.holds(key, facet);
                span.note("answer_cache", if held { "held" } else { "absent" });
            } else if let Some(hit) = cache.get(key, facet) {
                span.cache(CacheOutcome::Hit);
                span.rows_out(hit.exploration.subspace_size as u64);
                return Ok(hit);
            } else {
                span.cache(CacheOutcome::Miss);
            }
        }
        let sub = materialize_planned(&self.wh, &self.jidx, net, &self.planner, exec)?;
        let mv = self
            .measure_vector
            .get_or_init(|| MeasureVector::build(&self.wh, &self.measure));
        let exploration = explore_subspace(
            &self.wh,
            &self.jidx,
            net,
            &sub,
            mv,
            facet,
            &self.planner,
            exec,
            &self.dataspace_groups,
        )?;
        span.rows_out(exploration.subspace_size as u64);
        let explored = Arc::new(Explored {
            facet: facet.clone(),
            exploration,
        });
        if let Some((cache, key)) = cache {
            cache.insert(key, Arc::clone(&explored));
        }
        Ok(explored)
    }

    /// The session's planner (its semi-join cache).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The session's observability handle (disabled unless the session
    /// was built with [`KdapBuilder::observability`]).
    pub fn obs(&self) -> &Obs {
        &self.exec.obs
    }

    /// Session-cache hit/miss/eviction counters, when the cache is
    /// enabled: one lookup per explore that reached the cache layer.
    pub fn subspace_cache_counters(&self) -> Option<CacheCounters> {
        self.cache.as_ref().map(|c| c.counters())
    }

    /// Semi-join-cache hit/miss/eviction counters.
    pub fn semijoin_counters(&self) -> Option<CacheCounters> {
        self.planner.cache_counters()
    }

    /// Number of explorations in the session cache, when enabled.
    /// Governance tests use this to assert that aborted queries commit
    /// nothing.
    pub fn subspace_cache_len(&self) -> Option<usize> {
        self.cache.as_ref().map(|c| c.len())
    }

    /// Number of entries in the planner's semi-join cache.
    pub fn semijoin_cache_len(&self) -> Option<usize> {
        self.planner.cache().map(|c| c.len())
    }

    /// Number of memoized whole-dataspace group-bys: at most one per
    /// `(attribute, join path)` facet candidate, plus the total.
    pub fn dataspace_groups_len(&self) -> usize {
        self.dataspace_groups.len()
    }

    /// Always zero — the join index has no row-mapper cache. Kept only
    /// because the frozen `kdap_bench` reads it (and prints `null`).
    pub fn mapper_counters(&self) -> CacheCounters {
        CacheCounters::default()
    }

    /// Container histogram over every row set the session holds on to —
    /// the semi-join cache's step bitmaps — showing how the live hybrid
    /// bitmaps compress into array/bitmap/run blocks.
    pub fn cache_container_histogram(&self) -> kdap_query::ContainerHistogram {
        self.planner
            .cache()
            .map(|cache| cache.container_histogram())
            .unwrap_or_default()
    }

    /// Executes one typed [`QueryRequest`] — **the** unified entry point
    /// every frontend (HTTP server, CLI, REPL) drives. The verb selects
    /// the pipeline: `differentiate` ranks interpretations,
    /// `explore`/`profile`/`explain` additionally run the explore phase
    /// on the picked interpretation after applying the request's `refine`
    /// steps to it — drill, roll-up and drop are requests, replayed from
    /// the pick each time; the caches make the replayed prefix cheap.
    /// `profile` records the request's stage tree with clocks, when the
    /// session observes; `explain` records the same tree whether or not
    /// it does, skipping the answer cache's lookup so every stage runs,
    /// and the response carries it without clocks. Request options
    /// override the session's ranking method, facet configuration and
    /// governance limits for this call only.
    ///
    /// Errors are typed [`KdapError`]s ([`crate::api::ApiError::from_kdap`]
    /// maps them onto HTTP statuses), and governance breaches are counted
    /// in the obs metrics before returning.
    pub fn run(&self, request: &QueryRequest) -> Result<QueryResponse, KdapError> {
        self.run_cancellable(request, None)
    }

    /// [`Kdap::run`] with an explicit per-request cancellation token.
    /// The server trips the token when the client disconnects mid-query;
    /// the query then unwinds with [`KdapError::Cancelled`] at the next
    /// kernel chunk boundary, leaving no partial entry in any cache.
    pub fn run_cancellable(
        &self,
        request: &QueryRequest,
        cancel: Option<CancelToken>,
    ) -> Result<QueryResponse, KdapError> {
        let mut exec = self.request_exec(&request.options, cancel);
        match request.verb {
            Verb::Profile => exec.obs = exec.obs.profiled(&request.keywords),
            Verb::Explain => exec.obs = exec.obs.recording(&request.keywords),
            Verb::Differentiate | Verb::Explore => {}
        }
        let mut response = self.recorded(self.run_stages(request, &exec))?;
        if matches!(request.verb, Verb::Profile | Verb::Explain) {
            let mut profile = exec
                .obs
                .take_profile()
                .unwrap_or_else(|| QueryProfile::empty(&request.keywords));
            if request.verb == Verb::Profile {
                profile.trace_id = request.trace_id.clone();
            }
            response.profile = Some(profile);
        }
        Ok(response)
    }

    fn run_stages(
        &self,
        request: &QueryRequest,
        exec: &ExecConfig,
    ) -> Result<QueryResponse, KdapError> {
        let method = request.options.rank.unwrap_or(self.method);
        let ranked = self.interpret_stage(&request.keywords, method, exec)?;
        let n = ranked.len();
        let shown = if request.limit == 0 { n } else { request.limit };
        // The nets share a few distinct constraints: each one's text is
        // formed once for the whole list.
        let mut text = NetText::default();
        let interpretations = ranked
            .iter()
            .take(shown)
            .enumerate()
            .map(|(i, r)| InterpretationSummary {
                rank: i + 1,
                score: r.score,
                display: text.display(&self.wh, &r.net),
                fingerprint: text.fingerprint(&r.net),
            })
            .collect();
        let mut response = QueryResponse {
            verb: request.verb,
            keywords: request.keywords.clone(),
            n_interpretations: n,
            interpretations,
            ranked,
            picked: None,
            constraints: None,
            exploration: None,
            profile: None,
        };
        if request.verb == Verb::Differentiate {
            if !request.refine.is_empty() {
                return Err(KdapError::BadRefine {
                    step: 1,
                    reason: "`differentiate` picks no interpretation to refine".to_string(),
                });
            }
            return Ok(response);
        }
        let Some(picked) = response.ranked.get(request.pick.wrapping_sub(1)) else {
            return Err(KdapError::NoInterpretation {
                pick: request.pick,
                available: n,
            });
        };
        let refined;
        let net = if request.refine.is_empty() {
            &picked.net
        } else {
            refined = refine(&self.wh, &self.jidx, &picked.net, &request.refine)?;
            response.constraints = Some(self.summarize(&refined));
            &refined
        };
        let facet = request.options.apply_facet(self.facet.clone());
        let explored = self.explore_stage(net, &facet, exec, request.verb == Verb::Explain)?;
        response.picked = Some(request.pick);
        response.exploration = Some(explored.exploration.clone());
        Ok(response)
    }

    /// The wire echo of a refined net's constraints, in index order.
    fn summarize(&self, net: &StarNet) -> Vec<ConstraintSummary> {
        let schema = self.wh.schema();
        net.constraints
            .iter()
            .enumerate()
            .map(|(i, c)| ConstraintSummary {
                index: i + 1,
                dimension: c
                    .path
                    .dimension(schema)
                    .map(|d| schema.dimension(d).name.clone()),
                attr: self.wh.col_name(c.group.attr),
                values: c.group.hits.iter().map(|h| h.value.to_string()).collect(),
                display: c.display(&self.wh),
            })
            .collect()
    }
}

/// The classic Lucene StandardAnalyzer stopword list. Keyword input made
/// entirely of these (plus punctuation) carries no analytical intent, so
/// the session rejects it with [`KdapError::EmptyQuery`] instead of
/// generating a degenerate star net over the whole dataspace.
const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if", "in", "into", "is", "it",
    "no", "not", "of", "on", "or", "such", "that", "the", "their", "then", "there", "these",
    "they", "this", "to", "was", "will", "with",
];

/// True when at least one keyword tokenizes to a non-stopword term.
fn has_usable_keyword(keywords: &[String]) -> bool {
    keywords.iter().any(|k| {
        tokenize_terms(k)
            .iter()
            .any(|t| !STOPWORDS.contains(&t.as_str()))
    })
}

/// Splits a raw query into keywords; double-quoted spans stay together so
/// the text engine can treat them as phrases directly.
pub fn split_query(query: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = query.trim();
    while !rest.is_empty() {
        if let Some(stripped) = rest.strip_prefix('"') {
            match stripped.find('"') {
                Some(end) => {
                    let phrase = &stripped[..end];
                    if !phrase.trim().is_empty() {
                        out.push(phrase.trim().to_string());
                    }
                    rest = stripped[end + 1..].trim_start();
                }
                None => {
                    // Unbalanced quote: treat the remainder as one phrase.
                    if !stripped.trim().is_empty() {
                        out.push(stripped.trim().to_string());
                    }
                    rest = "";
                }
            }
        } else {
            let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
            out.push(rest[..end].to_string());
            rest = rest[end..].trim_start();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ebiz_fixture;

    fn session() -> Kdap {
        let fx = ebiz_fixture();
        Kdap::builder(fx.wh).build().unwrap()
    }

    /// The ranked interpretations of `query`: `run` with `differentiate`.
    fn differentiate(kdap: &Kdap, query: &str) -> Vec<RankedStarNet> {
        kdap.run(&QueryRequest::new(Verb::Differentiate, query))
            .unwrap()
            .ranked
    }

    #[test]
    fn split_query_handles_phrases_and_whitespace() {
        assert_eq!(split_query("columbus lcd"), vec!["columbus", "lcd"]);
        assert_eq!(split_query("\"san jose\" tv"), vec!["san jose", "tv"]);
        assert_eq!(split_query("  a   b  "), vec!["a", "b"]);
        assert_eq!(
            split_query("\"unbalanced phrase"),
            vec!["unbalanced phrase"]
        );
        assert!(split_query("").is_empty());
        assert!(split_query("\"\"").is_empty());
    }

    #[test]
    fn end_to_end_differentiate_then_explore() {
        let kdap = session();
        let ranked = differentiate(&kdap, "columbus lcd");
        assert_eq!(ranked.len(), 4);
        // Scores are sorted descending.
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        let ex = kdap.explore(&ranked[0].net).unwrap();
        assert!(ex.subspace_size > 0);
        assert!(!ex.panels.is_empty());
    }

    #[test]
    fn quoted_phrase_changes_interpretation() {
        let kdap = session();
        // Quoted form searches the phrase directly; "columbus day" only
        // exists in the holiday domain.
        let ranked = differentiate(&kdap, "\"columbus day\"");
        assert!(!ranked.is_empty());
        let top = ranked[0].net.display(kdap.warehouse());
        assert!(top.contains("HOLIDAY"), "got {top}");
    }

    #[test]
    fn session_without_measure_is_rejected() {
        use kdap_warehouse::{ValueType, WarehouseBuilder};
        let mut b = WarehouseBuilder::new();
        b.table("F", &[("Id", ValueType::Int, false)]).unwrap();
        b.fact("F").unwrap();
        let wh = b.finish().unwrap();
        assert!(matches!(
            Kdap::builder(wh).build(),
            Err(KdapError::NoMeasure)
        ));
    }

    #[test]
    fn builder_rejects_unknown_measure() {
        let fx = ebiz_fixture();
        assert!(matches!(
            Kdap::builder(fx.wh).measure("Nope").build(),
            Err(KdapError::UnknownMeasure(_))
        ));
    }

    #[test]
    fn builder_selects_measure_by_name() {
        let fx = ebiz_fixture();
        let kdap = Kdap::builder(fx.wh).measure("Revenue").build().unwrap();
        assert_eq!(kdap.measure().name, "Revenue");
    }

    #[test]
    fn cached_session_counts_hits_and_matches_uncached() {
        let fx = ebiz_fixture();
        let kdap_plain = session();
        let kdap_cached = Kdap::builder(fx.wh).cache_capacity(16).build().unwrap();
        assert_eq!(kdap_plain.subspace_cache_counters(), None);
        let ranked = differentiate(&kdap_cached, "columbus");
        let a = kdap_cached.explore(&ranked[0].net).unwrap();
        let b = kdap_cached.explore(&ranked[0].net).unwrap();
        assert_eq!(a.subspace_size, b.subspace_size);
        assert_eq!(a.total_aggregate, b.total_aggregate);
        assert_eq!(
            kdap_cached.subspace_cache_counters(),
            Some(CacheCounters::new(1, 1, 0))
        );
        // Same numbers as the uncached session.
        let ranked_p = differentiate(&kdap_plain, "columbus");
        let c = kdap_plain.explore(&ranked_p[0].net).unwrap();
        assert_eq!(a.total_aggregate, c.total_aggregate);
    }

    #[test]
    fn threaded_session_matches_serial() {
        let fx = ebiz_fixture();
        let serial = session();
        let threaded = Kdap::builder(fx.wh).threads(4).build().unwrap();
        let rs = differentiate(&serial, "columbus lcd");
        let rt = differentiate(&threaded, "columbus lcd");
        assert_eq!(rs.len(), rt.len());
        for (a, b) in rs.iter().zip(&rt) {
            assert_eq!(
                serial.explore(&a.net).unwrap(),
                threaded.explore(&b.net).unwrap()
            );
        }
    }

    /// The `semijoin` leaves of a tree's materialization.
    fn semijoins(tree: &QueryProfile) -> &[kdap_obs::ProfileNode] {
        &find(&tree.roots, "materialize").children
    }

    #[test]
    fn explain_replays_the_request_through_the_session_planner() {
        let kdap = session();
        let request = QueryRequest::new(Verb::Explain, "columbus lcd");
        let first = kdap.run(&request).unwrap();
        let size = first.exploration.unwrap().subspace_size;
        let tree = first.profile.unwrap();
        let materialize = find(&tree.roots, "materialize");
        assert_eq!(materialize.rows_out, Some(size as u64));
        // A fresh session holds no step yet.
        let leaves = semijoins(&tree);
        assert_eq!(leaves.len(), first.ranked[0].net.constraints.len());
        for leaf in leaves {
            assert_eq!(leaf.name, "semijoin");
            assert_eq!(leaf.cache, Some(CacheOutcome::Miss), "{leaf:?}");
            assert!(leaf.rows_out >= Some(size as u64));
            assert!(note(leaf, "path").unwrap().contains(" → "), "{leaf:?}");
        }
        // The first request cached every step, so a repeat hits on all.
        let again = kdap.run(&request).unwrap().profile.unwrap();
        assert!(semijoins(&again)
            .iter()
            .all(|leaf| leaf.cache == Some(CacheOutcome::Hit)));
    }

    fn profile(kdap: &Kdap, query: &str) -> QueryResponse {
        kdap.run(&QueryRequest::new(Verb::Profile, query)).unwrap()
    }

    #[test]
    fn profile_records_stage_tree() {
        let fx = ebiz_fixture();
        let kdap = Kdap::builder(fx.wh)
            .cache_capacity(16)
            .observability(true)
            .build()
            .unwrap();
        assert!(kdap.obs().is_enabled());
        let report = profile(&kdap, "columbus lcd");
        assert!(!report.ranked.is_empty());
        assert!(report.exploration.is_some());
        let stages = report.profile.as_ref().unwrap().stage_names();
        assert_eq!(stages[0], "differentiate");
        assert!(stages.iter().any(|s| s.trim() == "textindex.search"));
        assert!(stages.iter().any(|s| s.trim() == "rank_star_nets"));
        assert!(stages.iter().any(|s| s.trim() == "explore"));
        assert!(stages.iter().any(|s| s.trim() == "materialize"));
        assert!(stages.iter().any(|s| s.trim() == "multi_group_by"));
        let explore_node = |p: &QueryProfile| {
            let node = p.roots.iter().find(|n| n.name == "explore");
            node.expect("an explore stage").clone()
        };
        let first = explore_node(report.profile.as_ref().unwrap());
        assert_eq!(first.cache, Some(CacheOutcome::Miss));
        // On a miss, `materialize` holds exactly one `semijoin` leaf per
        // constraint, in net order: each leaf's rows are its constraint's
        // own.
        let net = &report.ranked[0].net;
        let leaves = &find(&first.children, "materialize").children;
        assert_eq!(leaves.len(), net.n_groups());
        for (leaf, c) in leaves.iter().zip(&net.constraints) {
            assert_eq!(leaf.name, "semijoin");
            assert!(leaf.children.is_empty());
            let alone = StarNet {
                constraints: vec![c.clone()],
            };
            let rows = crate::subspace::materialize(&kdap.wh, &kdap.jidx, &alone).len();
            assert_eq!(leaf.rows_out, Some(rows as u64));
        }
        // Profiling again answers the same net from the session cache:
        // the explore stage says so, reports the same subspace, and has
        // nothing underneath it.
        let again = explore_node(&profile(&kdap, "columbus lcd").profile.unwrap());
        assert_eq!(again.cache, Some(CacheOutcome::Hit));
        assert_eq!(again.rows_out, first.rows_out);
        assert_eq!(
            again.rows_out,
            report
                .exploration
                .as_ref()
                .map(|ex| ex.subspace_size as u64)
        );
        assert!(again.children.is_empty(), "{:?}", again.children);
        // Metrics accumulated along the way.
        let snap = kdap.obs().metrics_snapshot();
        assert!(snap.counters["textindex.searches"] >= 2);
        assert!(snap.histograms.contains_key("query.semijoin_step_ns"));
    }

    /// The first node named `name` in a depth-first walk of `nodes`.
    fn find<'a>(nodes: &'a [kdap_obs::ProfileNode], name: &str) -> &'a kdap_obs::ProfileNode {
        fn walk<'a>(
            nodes: &'a [kdap_obs::ProfileNode],
            name: &str,
        ) -> Option<&'a kdap_obs::ProfileNode> {
            nodes.iter().find_map(|n| {
                (n.name == name)
                    .then_some(n)
                    .or_else(|| walk(&n.children, name))
            })
        }
        walk(nodes, name).unwrap_or_else(|| panic!("no `{name}` node"))
    }

    fn note<'a>(node: &'a kdap_obs::ProfileNode, key: &str) -> Option<&'a str> {
        node.notes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn a_roll_up_to_all_is_scanned_once_per_session() {
        let fx = ebiz_fixture();
        // No answer cache: every explore below is a full miss.
        let kdap = Kdap::builder(fx.wh).observability(true).build().unwrap();
        // PGROUP.GroupName tops the Product hierarchy: its roll-up is ALL.
        let pick = differentiate(&kdap, "lcd")
            .iter()
            .position(|r| r.net.display(kdap.warehouse()).contains("PGROUP"))
            .unwrap();
        let mut request = QueryRequest::new(Verb::Profile, "lcd");
        request.pick = pick + 1;
        assert_eq!(kdap.dataspace_groups_len(), 0);
        let cold = kdap.run(&request).unwrap();
        let memo = kdap.dataspace_groups_len();
        assert!(memo > 0);
        let warm = kdap.run(&request).unwrap();
        assert_eq!(kdap.dataspace_groups_len(), memo, "nothing new to memoize");
        assert_eq!(warm.exploration, cold.exploration);

        // Cold, the roll-up scans every spec. Warm, the memo answers all
        // but the bucket specs, and a `multi_group_by` leaf's `specs` note
        // counts only what it scanned.
        let count = |node: &kdap_obs::ProfileNode, key: &str| -> usize {
            note(node, key).unwrap().parse().unwrap()
        };
        let scanned = |node: &kdap_obs::ProfileNode| -> usize {
            node.children.iter().map(|leaf| count(leaf, "specs")).sum()
        };
        let cold_rups = find(
            &cold.profile.as_ref().unwrap().roots,
            "explore.rollup_scans",
        );
        assert_eq!(count(cold_rups, "memo_specs"), 0);
        let warm_rups = find(
            &warm.profile.as_ref().unwrap().roots,
            "explore.rollup_scans",
        );
        assert_eq!(count(warm_rups, "memo_specs"), memo);
        assert_eq!(memo + scanned(warm_rups), scanned(cold_rups));
        // DS′ is not the whole dataspace: scan A never reads the memo.
        let scan_a = find(&warm.profile.as_ref().unwrap().roots, "explore.scan_a");
        assert_eq!(count(scan_a, "memo_specs"), 0);
    }

    #[test]
    fn profile_structure_is_identical_across_thread_counts() {
        let fx = ebiz_fixture();
        let serial = Kdap::builder(fx.wh)
            .observability(true)
            .threads(1)
            .build()
            .unwrap();
        let fx4 = ebiz_fixture();
        let threaded = Kdap::builder(fx4.wh)
            .observability(true)
            .threads(4)
            .build()
            .unwrap();
        let a = profile(&serial, "columbus lcd");
        let b = profile(&threaded, "columbus lcd");
        assert_eq!(
            a.profile.unwrap().stage_names(),
            b.profile.unwrap().stage_names()
        );
        assert_eq!(a.exploration, b.exploration);
    }

    #[test]
    fn observability_off_is_bit_identical_and_profile_empty() {
        let fx = ebiz_fixture();
        let off = session();
        let on = Kdap::builder(fx.wh).observability(true).build().unwrap();
        assert!(!off.obs().is_enabled());
        let ro = profile(&off, "columbus lcd");
        let rn = profile(&on, "columbus lcd");
        assert!(ro.profile.as_ref().unwrap().is_empty());
        assert!(!rn.profile.as_ref().unwrap().is_empty());
        assert_eq!(ro.ranked.len(), rn.ranked.len());
        for (a, b) in ro.ranked.iter().zip(&rn.ranked) {
            assert_eq!(a.score, b.score);
            assert_eq!(a.net.fingerprint(), b.net.fingerprint());
        }
        assert_eq!(ro.exploration, rn.exploration);
    }

    #[test]
    fn explain_notes_whether_the_answer_cache_held_the_net() {
        let fx = ebiz_fixture();
        let kdap = Kdap::builder(fx.wh).cache_capacity(16).build().unwrap();
        let request = QueryRequest::new(Verb::Explain, "columbus lcd");
        let held = |kdap: &Kdap| {
            let tree = kdap.run(&request).unwrap().profile.unwrap();
            let explore = find(&tree.roots, "explore");
            // No lookup, so no cache outcome; the stages ran.
            assert_eq!(explore.cache, None);
            assert!(explore.children.iter().any(|c| c.name == "materialize"));
            note(explore, "answer_cache").unwrap().to_string()
        };
        assert_eq!(held(&kdap), "absent");
        // Explain inserts its answer as a miss would, and looks nothing up.
        assert_eq!(kdap.subspace_cache_len(), Some(1));
        assert_eq!(held(&kdap), "held");
        assert_eq!(
            kdap.subspace_cache_counters(),
            Some(CacheCounters::default())
        );
        let mut explore = request.clone();
        explore.verb = Verb::Explore;
        kdap.run(&explore).unwrap();
        assert_eq!(
            kdap.subspace_cache_counters(),
            Some(CacheCounters::new(1, 0, 0))
        );
    }

    #[test]
    fn run_differentiate_matches_the_pipeline_stages() {
        let kdap = session();
        let nets = crate::interpret::generate_star_nets(
            kdap.warehouse(),
            kdap.text_index(),
            &["columbus", "lcd"],
            kdap.gen_config(),
        );
        let direct = rank_star_nets(nets, kdap.rank_method());
        let resp = kdap
            .run(&QueryRequest::new(Verb::Differentiate, "columbus lcd"))
            .unwrap();
        assert_eq!(resp.n_interpretations, direct.len());
        assert_eq!(resp.ranked.len(), direct.len());
        for (r, d) in resp.ranked.iter().zip(&direct) {
            assert_eq!(r.score, d.score);
            assert_eq!(r.net.fingerprint(), d.net.fingerprint());
        }
        for (i, s) in resp.interpretations.iter().enumerate() {
            assert_eq!(s.rank, i + 1);
            assert_eq!(s.fingerprint, direct[i].net.fingerprint());
            assert_eq!(s.display, direct[i].net.display(kdap.warehouse()));
        }
        assert!(resp.exploration.is_none());
        // limit truncates the summaries but not the ranking.
        let mut req = QueryRequest::new(Verb::Differentiate, "columbus lcd");
        req.limit = 1;
        let resp = kdap.run(&req).unwrap();
        assert_eq!(resp.interpretations.len(), 1);
        assert_eq!(resp.ranked.len(), direct.len());
    }

    #[test]
    fn run_explore_matches_direct_calls_and_options_do_not_stick() {
        let kdap = session();
        let direct = differentiate(&kdap, "columbus lcd");
        let expected = kdap.explore(&direct[0].net).unwrap();
        let resp = kdap
            .run(&QueryRequest::new(Verb::Explore, "columbus lcd"))
            .unwrap();
        assert_eq!(resp.picked, Some(1));
        assert_eq!(resp.exploration.as_ref(), Some(&expected));
        // Per-request overrides do not mutate the session config.
        let mut req = QueryRequest::new(Verb::Explore, "columbus lcd");
        req.options.top_k_attrs = Some(1);
        req.options.mode = Some(crate::interest::InterestMode::Bellwether);
        let over = kdap.run(&req).unwrap();
        assert!(over
            .exploration
            .unwrap()
            .panels
            .iter()
            .all(|p| p.attrs.len() <= 1));
        assert_eq!(
            kdap.facet_config().mode,
            crate::interest::InterestMode::Surprise
        );
        // And a plain request afterwards reproduces the original result.
        let resp = kdap
            .run(&QueryRequest::new(Verb::Explore, "columbus lcd"))
            .unwrap();
        assert_eq!(resp.exploration.as_ref(), Some(&expected));
    }

    #[test]
    fn run_rejects_out_of_range_pick() {
        let kdap = session();
        let mut req = QueryRequest::new(Verb::Explore, "columbus lcd");
        req.pick = 99;
        match kdap.run(&req) {
            Err(KdapError::NoInterpretation { pick, available }) => {
                assert_eq!(pick, 99);
                assert!(available > 0);
            }
            other => panic!("expected NoInterpretation, got {other:?}"),
        }
    }

    #[test]
    fn run_profile_and_explain_carry_their_payloads() {
        let fx = ebiz_fixture();
        let kdap = Kdap::builder(fx.wh).observability(true).build().unwrap();
        let resp = kdap
            .run(&QueryRequest::new(Verb::Profile, "columbus lcd"))
            .unwrap();
        let profile = resp.profile.expect("profile captured");
        assert!(!profile.is_empty());
        assert!(profile.stage_names().iter().any(|s| s.trim() == "explore"));
        let resp = kdap
            .run(&QueryRequest::new(Verb::Explain, "columbus lcd"))
            .unwrap();
        let body = resp.to_json();
        assert!(body.contains("\"explain\": {"), "{body}");
        assert!(
            !body.contains("\"profile\"") && !body.contains("_ns\""),
            "{body}"
        );
        let tree = resp.profile.expect("explain records its tree");
        assert!(find(&tree.roots, "explore")
            .children
            .iter()
            .any(|c| c.name == "facet" && note(c, "kernel").is_some()));
        assert!(resp.exploration.is_some());
    }

    #[test]
    fn run_zero_timeout_times_out_without_touching_caches() {
        let fx = ebiz_fixture();
        let kdap = Kdap::builder(fx.wh)
            .cache_capacity(16)
            .observability(true)
            .build()
            .unwrap();
        let mut req = QueryRequest::new(Verb::Explore, "columbus lcd");
        req.options.timeout_ms = Some(0);
        let err = kdap.run(&req).unwrap_err();
        assert!(matches!(err, KdapError::Timeout { .. }), "{err:?}");
        assert_eq!(kdap.subspace_cache_len(), Some(0));
        assert_eq!(kdap.semijoin_cache_len(), Some(0));
        let snap = kdap.obs().metrics_snapshot();
        assert_eq!(snap.counters.get("governor.timeouts"), Some(&1));
        // The session itself remains ungoverned: a follow-up request
        // with no overrides succeeds.
        req.options.timeout_ms = None;
        assert!(kdap.run(&req).is_ok());
    }

    #[test]
    fn run_cancellable_observes_a_pre_tripped_token() {
        let kdap = session();
        let token = CancelToken::new();
        token.cancel();
        let err = kdap
            .run_cancellable(
                &QueryRequest::new(Verb::Explore, "columbus lcd"),
                Some(token.clone()),
            )
            .unwrap_err();
        assert!(matches!(err, KdapError::Cancelled { .. }), "{err:?}");
        // The per-request token does not poison the session.
        assert!(!kdap.cancel_token().is_cancelled());
        assert!(kdap
            .run(&QueryRequest::new(Verb::Explore, "columbus lcd"))
            .is_ok());
    }

    #[test]
    fn request_options_override_without_mutation() {
        let kdap = session();
        let ranked = differentiate(&kdap, "columbus lcd");
        let base = kdap.explore(&ranked[0].net).unwrap();
        let mut request = QueryRequest::new(Verb::Explore, "columbus lcd");
        request.options.top_k_instances = Some(1);
        let narrowed = kdap.run(&request).unwrap().exploration.unwrap();
        // top_k_instances bounds categorical facets (numerical facets keep
        // their merged display intervals).
        assert!(narrowed
            .panels
            .iter()
            .flat_map(|p| p.attrs.iter())
            .filter(|a| a.kind == kdap_warehouse::AttrKind::Categorical)
            .all(|a| a.entries.len() <= 1));
        assert_eq!(kdap.explore(&ranked[0].net).unwrap(), base);
    }

    #[test]
    fn explain_is_governed_like_every_other_stage() {
        let fx = ebiz_fixture();
        let kdap = Kdap::builder(fx.wh)
            .deadline(Duration::ZERO)
            .observability(true)
            .build()
            .unwrap();
        let err = kdap
            .run(&QueryRequest::new(Verb::Explain, "columbus lcd"))
            .unwrap_err();
        assert!(matches!(err, KdapError::Timeout { .. }), "{err:?}");
        assert_eq!(kdap.semijoin_cache_len(), Some(0));
        let snap = kdap.obs().metrics_snapshot();
        assert_eq!(snap.counters.get("governor.timeouts"), Some(&1));
    }

    fn drill(dimension: &str, attr: &str, value: &str) -> crate::api::Refine {
        crate::api::Refine::Drill {
            dimension: dimension.into(),
            attr: attr.into(),
            value: value.into(),
        }
    }

    #[test]
    fn refine_explores_the_refined_net_and_echoes_its_constraints() {
        let kdap = session();
        let ranked = differentiate(&kdap, "columbus");
        let store = ranked
            .iter()
            .position(|r| r.net.display(kdap.warehouse()).contains("STORE → LOC"))
            .unwrap();
        let mut request = QueryRequest::new(Verb::Explore, "columbus");
        request.pick = store + 1;
        let plain = kdap.run(&request).unwrap();
        assert_eq!(plain.constraints, None);
        request
            .refine
            .push(drill("Product", "PGROUP.GroupName", "LCD Projectors"));
        let resp = kdap.run(&request).unwrap();
        let echoed = resp.constraints.expect("refine echoes the net");
        assert_eq!(echoed.len(), 2);
        assert_eq!(
            (echoed[1].index, echoed[1].dimension.as_deref()),
            (2, Some("Product"))
        );
        assert_eq!(echoed[1].attr, "PGROUP.GroupName");
        assert_eq!(echoed[1].values, vec!["LCD Projectors"]);
        assert!(echoed[1].display.contains("via"), "{}", echoed[1].display);
        // The exploration is that of the net `navigate` builds by hand.
        let wh = kdap.warehouse();
        let attr = wh.col_ref("PGROUP", "GroupName").unwrap();
        let code = wh.column(attr).dict().unwrap().code_of("LCD Projectors");
        let dim = wh.schema().dimension_by_name("Product").unwrap();
        let path = crate::facet::path_for_attr(wh, &ranked[store].net, dim, attr.table).unwrap();
        let by_hand =
            crate::navigate::drill_down(wh, &ranked[store].net, attr, &path, vec![code.unwrap()])
                .unwrap();
        assert_eq!(resp.exploration.unwrap(), kdap.explore(&by_hand).unwrap());
        // Explain and profile take the same list.
        request.verb = Verb::Explain;
        let explained = kdap.run(&request).unwrap();
        assert!(explained.constraints.is_some());
        let tree = explained.profile.unwrap();
        let attrs: Vec<_> = semijoins(&tree)
            .iter()
            .map(|leaf| note(leaf, "attr").unwrap())
            .collect();
        assert_eq!(attrs, ["LOC.City", "PGROUP.GroupName"]);
    }

    #[test]
    fn bad_refine_fails_before_anything_is_materialized() {
        let fx = ebiz_fixture();
        let kdap = Kdap::builder(fx.wh).cache_capacity(16).build().unwrap();
        let mut request = QueryRequest::new(Verb::Explore, "columbus");
        request.refine = vec![
            drill("Product", "PGROUP.GroupName", "LCD Projectors"),
            crate::api::Refine::Up(7),
        ];
        match kdap.run(&request) {
            Err(KdapError::BadRefine { step: 2, reason }) => {
                assert!(reason.contains("no constraint #7"), "{reason}")
            }
            other => panic!("expected BadRefine, got {other:?}"),
        }
        request.verb = Verb::Differentiate;
        assert!(matches!(
            kdap.run(&request),
            Err(KdapError::BadRefine { step: 1, .. })
        ));
        assert_eq!(kdap.subspace_cache_len(), Some(0));
        assert_eq!(kdap.semijoin_cache_len(), Some(0));
        assert_eq!(
            kdap.subspace_cache_counters(),
            Some(CacheCounters::default())
        );
        assert_eq!(kdap.semijoin_counters(), Some(CacheCounters::default()));
    }

    #[test]
    fn builder_configuration_is_what_the_session_reports() {
        let fx = ebiz_fixture();
        let kdap = Kdap::builder(fx.wh)
            .threads(4)
            .rank_method(RankMethod::Baseline)
            .facet_config(FacetConfig {
                top_k_attrs: 1,
                ..FacetConfig::default()
            })
            .build()
            .unwrap();
        assert_eq!(kdap.rank_method(), RankMethod::Baseline);
        assert_eq!(kdap.facet_config().top_k_attrs, 1);
        assert!(!kdap.exec_config().is_serial());
        assert!(session().exec_config().is_serial());
    }
}
