//! The unified request/response layer every KDAP frontend speaks.
//!
//! Historically the CLI, the REPL and the examples each hand-rolled
//! their own option plumbing and result rendering. This module is the
//! single typed surface instead: a [`QueryRequest`] names the operation
//! ([`Verb`]), the keywords and every per-request option
//! ([`QueryOptions`] — ranking, facets, governance) and any navigation
//! from the picked interpretation ([`Refine`]); [`Kdap::run`] executes it; the [`QueryResponse`] carries the full result
//! (interpretations, exploration, plan/report text, profile) plus
//! wire encoders. [`ApiError`] maps engine errors onto HTTP-style
//! status codes for the server.
//!
//! Everything is serde-free: request bodies decode through the small
//! JSON parser in [`json`], responses encode into JSON through
//! [`kdap_obs::JsonWriter`] or into CSV ([`WireFormat`]). Non-finite aggregates (the empty-set MIN/MAX/AVG is
//! NaN) encode as JSON `null` and as an empty CSV field.
//!
//! [`Kdap::run`]: crate::session::Kdap::run

pub mod json;

use std::fmt;

use kdap_obs::{JsonWriter, Layout, QueryProfile};
use kdap_query::AggFunc;

use crate::error::KdapError;
use crate::facet::{Exploration, FacetAttr, FacetConfig, FacetOrder};
use crate::interest::InterestMode;
use crate::rank::{RankMethod, RankedStarNet};

use self::json::Json;

/// The four query operations of the `/v1/{tenant}/…` surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Differentiate phase only: ranked interpretations of the keywords.
    Differentiate,
    /// Differentiate, then explore the picked interpretation.
    Explore,
    /// Differentiate + explore under the profiler; the response carries
    /// the per-stage timing tree.
    Profile,
    /// Differentiate, then EXPLAIN the picked interpretation: physical
    /// plan and fused-scan accounting alongside the exploration.
    Explain,
}

impl Verb {
    /// All verbs, in route-declaration order.
    pub const ALL: [Verb; 4] = [
        Verb::Differentiate,
        Verb::Explore,
        Verb::Profile,
        Verb::Explain,
    ];

    /// The verb's path segment / wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verb::Differentiate => "differentiate",
            Verb::Explore => "explore",
            Verb::Profile => "profile",
            Verb::Explain => "explain",
        }
    }

    /// Parses a path segment into a verb.
    pub fn parse(s: &str) -> Option<Verb> {
        Verb::ALL.into_iter().find(|v| v.as_str() == s)
    }
}

impl fmt::Display for Verb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-request option overrides. Every field is optional; `None` means
/// "use the session's configured default". Frontends never touch
/// [`FacetConfig`]/[`RankMethod`] plumbing directly — they fill this in
/// and hand it to [`Kdap::run`].
///
/// [`Kdap::run`]: crate::session::Kdap::run
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOptions {
    /// Star-net ranking method (`standard`, `no-group-number-norm`,
    /// `no-group-size-norm`, `baseline`).
    pub rank: Option<RankMethod>,
    /// Interestingness mode (`surprise`, `bellwether`).
    pub mode: Option<InterestMode>,
    /// Facet ordering (`dynamic`, `consistent`, `hybrid:<pinned>`).
    pub order: Option<FacetOrder>,
    /// Aggregation function (`sum`, `count`, `avg`, `min`, `max`).
    pub agg: Option<AggFunc>,
    /// Top-k group-by attributes per dimension panel.
    pub top_k_attrs: Option<usize>,
    /// Top-k instances per categorical facet.
    pub top_k_instances: Option<usize>,
    /// Per-request wall-clock deadline in milliseconds. `0` is an
    /// already-expired deadline: the query aborts at its first
    /// governance check (useful for admission tests).
    pub timeout_ms: Option<u64>,
    /// Per-request memory budget in bytes, charged for what the request
    /// allocates (accumulators, result bitmaps). An exploration answered
    /// from the session cache allocates nothing and passes under any
    /// budget.
    pub budget_bytes: Option<u64>,
}

impl QueryOptions {
    /// `base` with this request's facet overrides applied.
    pub fn apply_facet(&self, mut base: FacetConfig) -> FacetConfig {
        if let Some(mode) = self.mode {
            base.mode = mode;
        }
        if let Some(order) = self.order {
            base.order = order;
        }
        if let Some(agg) = self.agg {
            base.agg = agg;
        }
        if let Some(k) = self.top_k_attrs {
            base.top_k_attrs = k;
        }
        if let Some(k) = self.top_k_instances {
            base.top_k_instances = k;
        }
        base
    }
}

/// One navigation step from the picked interpretation. A request's
/// `refine` list is applied in order before the explore phase, each step
/// to the net the steps before it produced; constraint numbers are
/// 1-based positions in that net (the order a response's `constraints`
/// echo lists them).
#[derive(Debug, Clone, PartialEq)]
pub enum Refine {
    /// Drill into one instance of a facet, named as an exploration
    /// displays it. The new constraint follows the join path the facet
    /// was aggregated on and replaces an existing constraint on the same
    /// attribute and path.
    Drill {
        /// The panel's dimension name.
        dimension: String,
        /// The facet's `Table.Column` name.
        attr: String,
        /// The entry's label.
        value: String,
    },
    /// Roll constraint `n` one hierarchy level up (removing it at the top).
    Up(usize),
    /// Drop constraint `n`.
    Drop(usize),
}

/// One typed query against a KDAP session — the single entry point the
/// server, CLI and REPL all construct.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Which operation runs.
    pub verb: Verb,
    /// The raw keyword query (double quotes group phrases).
    pub keywords: String,
    /// Which ranked interpretation explore/profile/explain act on
    /// (1-based; default 1).
    pub pick: usize,
    /// Maximum interpretations included in the response summary
    /// (`0` = all; default 8).
    pub limit: usize,
    /// Navigation steps applied to the picked interpretation before it
    /// is explored (empty: explore it as ranked). Not valid on
    /// `differentiate`.
    pub refine: Vec<Refine>,
    /// Per-request option overrides.
    pub options: QueryOptions,
    /// The request's trace id. Set programmatically by the service edge
    /// (HTTP router or CLI) — never decoded from the body, so the JSON
    /// surface stays strict and the echoed id is byte-identical to what
    /// the client sent.
    pub trace_id: Option<String>,
}

impl QueryRequest {
    /// A request with default pick/limit and no option overrides.
    pub fn new(verb: Verb, keywords: impl Into<String>) -> Self {
        QueryRequest {
            verb,
            keywords: keywords.into(),
            pick: 1,
            limit: 8,
            refine: Vec::new(),
            options: QueryOptions::default(),
            trace_id: None,
        }
    }

    /// Sets the trace id (builder style).
    pub fn with_trace_id(mut self, trace_id: impl Into<String>) -> Self {
        self.trace_id = Some(trace_id.into());
        self
    }

    /// Replaces the option overrides (builder style).
    pub fn with_options(mut self, options: QueryOptions) -> Self {
        self.options = options;
        self
    }

    /// Decodes a request body for `verb`. The body must be a JSON object
    /// with at least `"keywords"`; unknown fields, wrong types and
    /// malformed JSON are all typed [`ApiError::bad_request`]s so the
    /// server can answer with a precise 400.
    pub fn from_json(verb: Verb, body: &str) -> Result<QueryRequest, ApiError> {
        let doc = json::parse(body).map_err(|e| ApiError::bad_request(e.to_string()))?;
        let Some(fields) = doc.as_obj() else {
            return Err(ApiError::bad_request(format!(
                "request body must be a JSON object, got {}",
                doc.type_name()
            )));
        };
        let mut req = QueryRequest::new(verb, "");
        let mut saw_keywords = false;
        for (key, value) in fields {
            match key.as_str() {
                "keywords" => {
                    req.keywords = str_field(key, value)?.to_string();
                    saw_keywords = true;
                }
                "pick" => {
                    req.pick = usize_field(key, value)?;
                    if req.pick == 0 {
                        return Err(ApiError::bad_request("`pick` is 1-based; 0 is invalid"));
                    }
                }
                "limit" => req.limit = usize_field(key, value)?,
                "refine" => req.refine = refine_field(value)?,
                "rank" => req.options.rank = Some(parse_rank(str_field(key, value)?)?),
                "mode" => req.options.mode = Some(parse_mode(str_field(key, value)?)?),
                "order" => req.options.order = Some(parse_order(str_field(key, value)?)?),
                "agg" => req.options.agg = Some(parse_agg(str_field(key, value)?)?),
                "top_k_attrs" => req.options.top_k_attrs = Some(usize_field(key, value)?),
                "top_k_instances" => req.options.top_k_instances = Some(usize_field(key, value)?),
                "timeout_ms" => req.options.timeout_ms = Some(u64_field(key, value)?),
                "budget_bytes" => req.options.budget_bytes = Some(u64_field(key, value)?),
                other => {
                    return Err(ApiError::bad_request(format!(
                        "unknown field `{other}` (expected keywords, pick, limit, refine, rank, \
                         mode, order, agg, top_k_attrs, top_k_instances, timeout_ms, budget_bytes)"
                    )))
                }
            }
        }
        if !saw_keywords {
            return Err(ApiError::bad_request("missing required field `keywords`"));
        }
        Ok(req)
    }
}

fn str_field<'a>(key: &str, v: &'a Json) -> Result<&'a str, ApiError> {
    v.as_str().ok_or_else(|| {
        ApiError::bad_request(format!("`{key}` must be a string, got {}", v.type_name()))
    })
}

/// The largest integer below which every integer literal is its own
/// `f64`: the parser reads numbers as `f64`, so a larger literal may have
/// been rounded to a neighbour on the way in.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_991.0; // 2^53 - 1

fn u64_field(key: &str, v: &Json) -> Result<u64, ApiError> {
    let n = v.as_num().ok_or_else(|| {
        ApiError::bad_request(format!("`{key}` must be a number, got {}", v.type_name()))
    })?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(ApiError::bad_request(format!(
            "`{key}` must be a non-negative integer"
        )));
    }
    if n > MAX_EXACT_INT {
        return Err(ApiError::bad_request(format!(
            "`{key}` is out of range: integers above 2^53 - 1 are not read exactly"
        )));
    }
    Ok(n as u64)
}

fn usize_field(key: &str, v: &Json) -> Result<usize, ApiError> {
    let n = u64_field(key, v)?;
    usize::try_from(n).map_err(|_| ApiError::bad_request(format!("`{key}` is out of range")))
}

/// Decodes `refine`: an array of single-key step objects, as strict as
/// the request object itself. Errors name the 1-based step.
fn refine_field(v: &Json) -> Result<Vec<Refine>, ApiError> {
    let Some(steps) = v.as_arr() else {
        return Err(ApiError::bad_request(format!(
            "`refine` must be an array, got {}",
            v.type_name()
        )));
    };
    steps
        .iter()
        .enumerate()
        .map(|(i, step)| {
            refine_step(step).map_err(|e| {
                ApiError::bad_request(format!("`refine` step {}: {}", i + 1, e.message))
            })
        })
        .collect()
}

fn refine_step(v: &Json) -> Result<Refine, ApiError> {
    let Some([(key, value)]) = v.as_obj() else {
        return Err(ApiError::bad_request(
            "must be an object with exactly one of `drill`, `up`, `drop`",
        ));
    };
    match key.as_str() {
        "drill" => {
            let Some(fields) = value.as_obj() else {
                return Err(ApiError::bad_request(format!(
                    "`drill` must be an object, got {}",
                    value.type_name()
                )));
            };
            if let Some((other, _)) = fields
                .iter()
                .find(|(k, _)| !["dimension", "attr", "value"].contains(&k.as_str()))
            {
                return Err(ApiError::bad_request(format!(
                    "unknown field `{other}` in `drill` (expected dimension, attr, value)"
                )));
            }
            let field = |name: &str| match value.get(name) {
                Some(v) => str_field(name, v).map(str::to_string),
                None => Err(ApiError::bad_request(format!("`drill` requires `{name}`"))),
            };
            Ok(Refine::Drill {
                dimension: field("dimension")?,
                attr: field("attr")?,
                value: field("value")?,
            })
        }
        "up" => Ok(Refine::Up(usize_field(key, value)?)),
        "drop" => Ok(Refine::Drop(usize_field(key, value)?)),
        other => Err(ApiError::bad_request(format!(
            "unknown step `{other}` (expected drill, up, drop)"
        ))),
    }
}

fn parse_rank(s: &str) -> Result<RankMethod, ApiError> {
    RankMethod::ALL
        .into_iter()
        .find(|m| m.label() == s)
        .ok_or_else(|| {
            ApiError::bad_request(format!(
                "unknown rank method `{s}` (standard, no-group-number-norm, \
                 no-group-size-norm, baseline)"
            ))
        })
}

fn parse_mode(s: &str) -> Result<InterestMode, ApiError> {
    match s {
        "surprise" => Ok(InterestMode::Surprise),
        "bellwether" => Ok(InterestMode::Bellwether),
        other => Err(ApiError::bad_request(format!(
            "unknown mode `{other}` (surprise, bellwether)"
        ))),
    }
}

fn parse_agg(s: &str) -> Result<AggFunc, ApiError> {
    match s {
        "sum" => Ok(AggFunc::Sum),
        "count" => Ok(AggFunc::Count),
        "avg" => Ok(AggFunc::Avg),
        "min" => Ok(AggFunc::Min),
        "max" => Ok(AggFunc::Max),
        other => Err(ApiError::bad_request(format!(
            "unknown agg `{other}` (sum, count, avg, min, max)"
        ))),
    }
}

fn parse_order(s: &str) -> Result<FacetOrder, ApiError> {
    match s {
        "dynamic" => Ok(FacetOrder::Dynamic),
        "consistent" => Ok(FacetOrder::Consistent),
        other => match other.strip_prefix("hybrid:").map(str::parse) {
            Some(Ok(pinned)) => Ok(FacetOrder::Hybrid { pinned }),
            _ => Err(ApiError::bad_request(format!(
                "unknown order `{other}` (dynamic, consistent, hybrid:<pinned>)"
            ))),
        },
    }
}

/// One ranked interpretation, flattened for the wire: the display string
/// is pre-rendered against the warehouse so clients need no schema
/// knowledge.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpretationSummary {
    /// 1-based rank.
    pub rank: usize,
    /// Score under the request's ranking method.
    pub score: f64,
    /// Human-readable star net (`TRANSITEM ⋈ …`).
    pub display: String,
    /// Canonical fingerprint: the net's constraint fingerprints, sorted
    /// (stable across runs; [`crate::StarNet::fingerprint`]). Not the
    /// session cache's key, which lists them in net order
    /// ([`crate::StarNet::explore_key`]).
    pub fingerprint: String,
}

/// One constraint of a refined net, flattened for the wire. `dimension`,
/// `attr` and a `values` element are what a [`Refine::Drill`] takes;
/// `index` is what [`Refine::Up`] and [`Refine::Drop`] take.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintSummary {
    /// 1-based position in the refined net.
    pub index: usize,
    /// The dimension the constraint slices (`None` on the fact table).
    pub dimension: Option<String>,
    /// The constrained attribute's `Table.Column` name.
    pub attr: String,
    /// The selected instances (one display entry for a numeric range).
    pub values: Vec<String>,
    /// Human-readable rendering, join path included.
    pub display: String,
}

/// The typed result of [`Kdap::run`]: everything any frontend renders,
/// plus the underlying [`RankedStarNet`]s for embedders that go on to
/// [`Kdap::explore`](crate::session::Kdap::explore) a net themselves.
///
/// [`Kdap::run`]: crate::session::Kdap::run
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The operation that produced this response.
    pub verb: Verb,
    /// The raw keyword query.
    pub keywords: String,
    /// Total interpretations generated (before `limit`).
    pub n_interpretations: usize,
    /// Wire summaries of the top `limit` interpretations.
    pub interpretations: Vec<InterpretationSummary>,
    /// The full ranking, for frontends that navigate further. Not
    /// encoded on the wire beyond [`QueryResponse::interpretations`].
    pub ranked: Vec<RankedStarNet>,
    /// Which interpretation was explored/explained (1-based), for
    /// explore/profile/explain verbs.
    pub picked: Option<usize>,
    /// The explored net's constraints after the request's `refine` steps,
    /// in index order, so a client can extend the list. `None` when the
    /// request carried no `refine`.
    pub constraints: Option<Vec<ConstraintSummary>>,
    /// The exploration of the picked (and refined) interpretation.
    pub exploration: Option<Exploration>,
    /// Rendered constraint plan (explain verb).
    pub plan: Option<String>,
    /// Rendered fused-scan/cache report (explain verb).
    pub report: Option<String>,
    /// Per-stage timing tree (profile verb; empty unless the session has
    /// observability enabled).
    pub profile: Option<QueryProfile>,
}

impl QueryResponse {
    /// Encodes the response in `format`, returning the body. CSV is
    /// defined for `differentiate` (the ranking table) and
    /// `explore` (the facet-entry table); `profile`/`explain` are
    /// tree-shaped and negotiate JSON only.
    pub fn encode(&self, format: WireFormat) -> Result<String, ApiError> {
        match format {
            WireFormat::Json => Ok(self.to_json()),
            WireFormat::Csv => self.to_csv(),
        }
    }

    /// The JSON encoding. Non-finite aggregates encode as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        JsonWriter::new(&mut out).object(Layout::Block, |w| {
            w.key("verb").str(self.verb.as_str());
            w.key("keywords").str(&self.keywords);
            w.key("n_interpretations").int(self.n_interpretations);
            w.key("interpretations").array(Layout::Block, |w| {
                for s in &self.interpretations {
                    w.object(Layout::Inline, |w| {
                        w.key("rank").int(s.rank).key("score").f64(s.score);
                        w.key("display").str(&s.display);
                        w.key("fingerprint").str(&s.fingerprint);
                    });
                }
            });
            if let Some(picked) = self.picked {
                w.key("picked").int(picked);
            }
            if let Some(constraints) = &self.constraints {
                w.key("constraints").array(Layout::Block, |w| {
                    for c in constraints {
                        write_constraint(w, c);
                    }
                });
            }
            if let Some(ex) = &self.exploration {
                w.key("exploration");
                write_exploration(w, ex);
            }
            if let Some(plan) = &self.plan {
                w.key("plan").str(plan);
            }
            if let Some(report) = &self.report {
                w.key("report").str(report);
            }
            if let Some(profile) = &self.profile {
                w.key("profile");
                profile.write_json(w);
            }
        });
        out.push('\n');
        out
    }

    /// The CSV encoding (differentiate: ranking table; explore: facet
    /// entries). Non-finite aggregates encode as an empty field.
    pub fn to_csv(&self) -> Result<String, ApiError> {
        match self.verb {
            Verb::Differentiate => {
                let mut out = String::from("rank,score,interpretation,fingerprint\n");
                for s in &self.interpretations {
                    out.push_str(&format!(
                        "{},{},{},{}\n",
                        s.rank,
                        csv_num(s.score),
                        csv_field(&s.display),
                        csv_field(&s.fingerprint),
                    ));
                }
                Ok(out)
            }
            Verb::Explore => {
                let Some(ex) = &self.exploration else {
                    return Err(ApiError::internal("explore response without exploration"));
                };
                let mut out = String::from(
                    "dimension,attribute,kind,attr_score,promoted,label,aggregate,entry_score,hit\n",
                );
                for panel in &ex.panels {
                    for attr in &panel.attrs {
                        for e in &attr.entries {
                            out.push_str(&format!(
                                "{},{},{},{},{},{},{},{},{}\n",
                                csv_field(&panel.dimension),
                                csv_field(&attr.name),
                                attr_kind_str(attr.kind),
                                csv_num(attr.score),
                                attr.promoted,
                                csv_field(&e.label),
                                csv_num(e.aggregate),
                                csv_num(e.score),
                                e.is_hit,
                            ));
                        }
                    }
                }
                Ok(out)
            }
            Verb::Profile | Verb::Explain => Err(ApiError::not_acceptable(format!(
                "`{}` responses are tree-shaped; request JSON",
                self.verb
            ))),
        }
    }
}

fn attr_kind_str(kind: kdap_warehouse::AttrKind) -> &'static str {
    match kind {
        kdap_warehouse::AttrKind::Categorical => "categorical",
        kdap_warehouse::AttrKind::Numerical => "numerical",
    }
}

fn write_constraint(w: &mut JsonWriter, c: &ConstraintSummary) {
    w.object(Layout::Inline, |w| {
        w.key("index").int(c.index).key("dimension");
        match &c.dimension {
            Some(d) => w.str(d),
            None => w.null(),
        };
        w.key("attr").str(&c.attr);
        w.key("values").array(Layout::Inline, |w| {
            for v in &c.values {
                w.str(v);
            }
        });
        w.key("display").str(&c.display);
    });
}

fn write_exploration(w: &mut JsonWriter, ex: &Exploration) {
    w.object(Layout::Block, |w| {
        w.key("subspace_size").int(ex.subspace_size);
        w.key("total_aggregate").f64(ex.total_aggregate);
        w.key("panels").array(Layout::Block, |w| {
            for panel in &ex.panels {
                w.object(Layout::Inline, |w| {
                    w.key("dimension").str(&panel.dimension);
                    w.key("attrs").array(Layout::Block, |w| {
                        for attr in &panel.attrs {
                            write_attr(w, attr);
                        }
                    });
                });
            }
        });
    });
}

fn write_attr(w: &mut JsonWriter, attr: &FacetAttr) {
    w.object(Layout::Inline, |w| {
        w.key("name").str(&attr.name);
        w.key("kind").str(attr_kind_str(attr.kind));
        w.key("score").f64(attr.score);
        w.key("correlation").f64(attr.correlation);
        w.key("promoted").bool(attr.promoted);
        w.key("entries").array(Layout::Block, |w| {
            for e in &attr.entries {
                w.object(Layout::Inline, |w| {
                    w.key("label").str(&e.label);
                    w.key("aggregate").f64(e.aggregate);
                    w.key("score").f64(e.score);
                    w.key("hit").bool(e.is_hit);
                });
            }
        });
    });
}

/// Quotes a CSV field when it contains a delimiter, quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A CSV number; the undefined (NaN/±∞) aggregate is an empty field.
fn csv_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::new()
    }
}

/// The two wire formats of the query surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// `application/json` (the default).
    Json,
    /// `text/csv`.
    Csv,
}

impl WireFormat {
    /// The response `Content-Type`.
    pub fn content_type(&self) -> &'static str {
        match self {
            WireFormat::Json => "application/json",
            WireFormat::Csv => "text/csv",
        }
    }

    /// Negotiates the response format: an explicit `?format=` query
    /// parameter wins, then the `Accept` header (`text/csv` selects CSV;
    /// everything else, including absence and `*/*`, selects JSON).
    /// Unknown explicit requests are a typed 406.
    pub fn negotiate(
        format_param: Option<&str>,
        accept: Option<&str>,
    ) -> Result<WireFormat, ApiError> {
        if let Some(f) = format_param {
            return match f {
                "json" => Ok(WireFormat::Json),
                "csv" => Ok(WireFormat::Csv),
                other => Err(ApiError::not_acceptable(format!(
                    "unknown format `{other}` (json, csv)"
                ))),
            };
        }
        match accept {
            Some(a) if a.split(',').any(|p| p.trim().starts_with("text/csv")) => {
                Ok(WireFormat::Csv)
            }
            _ => Ok(WireFormat::Json),
        }
    }
}

/// A wire-level error: HTTP-style status, a stable machine code, and a
/// human message. The server encodes these as the body of every non-200
/// response; library embedders can use the mapping too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code (400, 404, 406, 408, 429, 499, 507, 500).
    pub status: u16,
    /// Stable machine-readable code (`timeout`, `bad_request`, …).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        ApiError {
            status,
            code,
            message: message.into(),
        }
    }

    /// 400 — the request itself is malformed.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError::new(400, "bad_request", message)
    }

    /// 404 — unknown tenant, route or interpretation.
    pub fn not_found(message: impl Into<String>) -> Self {
        ApiError::new(404, "not_found", message)
    }

    /// 406 — the requested format cannot represent this response.
    pub fn not_acceptable(message: impl Into<String>) -> Self {
        ApiError::new(406, "not_acceptable", message)
    }

    /// 429 — admission control rejected the request.
    pub fn too_many_requests(message: impl Into<String>) -> Self {
        ApiError::new(429, "too_many_requests", message)
    }

    /// 500 — an internal engine failure.
    pub fn internal(message: impl Into<String>) -> Self {
        ApiError::new(500, "internal", message)
    }

    /// Maps an engine error onto its wire representation: governance
    /// breaches become 408 (deadline), 499 (client cancelled) and 507
    /// (memory budget); input problems (an empty query, a `refine` step
    /// that does not apply) become 400/404; everything else is a 500.
    pub fn from_kdap(err: &KdapError) -> ApiError {
        let (status, code) = match err {
            KdapError::Timeout { .. } => (408, "timeout"),
            KdapError::Cancelled { .. } => (499, "cancelled"),
            KdapError::BudgetExceeded { .. } => (507, "budget_exceeded"),
            KdapError::EmptyQuery => (400, "empty_query"),
            KdapError::NoInterpretation { .. } => (404, "no_interpretation"),
            KdapError::BadRefine { .. } => (400, "bad_refine"),
            KdapError::UnknownMeasure(_) => (400, "bad_request"),
            _ => (500, "internal"),
        };
        ApiError::new(status, code, err.to_string())
    }

    /// The JSON body of the error response.
    pub fn to_json(&self) -> String {
        self.to_json_with_trace(None)
    }

    /// The JSON body with the request's trace id included, so failed
    /// requests stay correlatable with their log and ledger records.
    pub fn to_json_with_trace(&self, trace_id: Option<&str>) -> String {
        let mut out = String::new();
        JsonWriter::new(&mut out).object(Layout::Inline, |w| {
            w.key("error").object(Layout::Inline, |w| {
                w.key("status").int(self.status);
                w.key("code").str(self.code);
                w.key("message").str(&self.message);
                if let Some(id) = trace_id {
                    w.key("trace_id").str(id);
                }
            });
        });
        out.push('\n');
        out
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.status, self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facet::{FacetEntry, FacetPanel};
    use kdap_warehouse::{AttrKind, ColRef, TableId};

    #[test]
    fn verbs_round_trip_their_wire_names() {
        for v in Verb::ALL {
            assert_eq!(Verb::parse(v.as_str()), Some(v));
        }
        assert_eq!(Verb::parse("frobnicate"), None);
    }

    #[test]
    fn request_decodes_all_fields() {
        let req = QueryRequest::from_json(
            Verb::Explore,
            r#"{"keywords": "columbus lcd", "pick": 2, "limit": 3,
                "rank": "baseline", "mode": "bellwether", "order": "hybrid:2",
                "agg": "avg", "top_k_attrs": 1, "top_k_instances": 4,
                "timeout_ms": 250, "budget_bytes": 1048576}"#,
        )
        .unwrap();
        assert_eq!(req.verb, Verb::Explore);
        assert_eq!(req.keywords, "columbus lcd");
        assert_eq!(req.pick, 2);
        assert_eq!(req.limit, 3);
        assert_eq!(req.options.rank, Some(RankMethod::Baseline));
        assert_eq!(req.options.mode, Some(InterestMode::Bellwether));
        assert_eq!(req.options.order, Some(FacetOrder::Hybrid { pinned: 2 }));
        assert_eq!(req.options.agg, Some(AggFunc::Avg));
        assert_eq!(req.options.top_k_attrs, Some(1));
        assert_eq!(req.options.top_k_instances, Some(4));
        assert_eq!(req.options.timeout_ms, Some(250));
        assert_eq!(req.options.budget_bytes, Some(1 << 20));
    }

    #[test]
    fn refine_decodes_every_step_kind_in_order() {
        let body = r#"{"keywords": "columbus", "pick": 3, "refine": [
            {"drill": {"dimension": "Customer", "attr": "ACCOUNT.AccountType",
                       "value": "Pre\"mium\n"}},
            {"up": 1}, {"drop": 2}]}"#;
        let req = QueryRequest::from_json(Verb::Explore, body).unwrap();
        assert_eq!(
            req.refine,
            vec![
                Refine::Drill {
                    dimension: "Customer".into(),
                    attr: "ACCOUNT.AccountType".into(),
                    value: "Pre\"mium\n".into(),
                },
                Refine::Up(1),
                Refine::Drop(2),
            ]
        );
        // Absent and empty are the same request.
        let absent = QueryRequest::from_json(Verb::Explore, r#"{"keywords": "x"}"#).unwrap();
        let empty =
            QueryRequest::from_json(Verb::Explore, r#"{"keywords": "x", "refine": []}"#).unwrap();
        assert_eq!(absent, empty);
        assert!(absent.refine.is_empty());
    }

    #[test]
    fn malformed_refine_is_a_precise_400() {
        for (refine, needle) in [
            (r#"{"up": 1}"#, "`refine` must be an array, got object"),
            (r#"[1]"#, "step 1: must be an object with exactly one of"),
            (r#"[{}]"#, "step 1: must be an object with exactly one of"),
            (r#"[{"up": 1, "drop": 1}]"#, "step 1: must be an object"),
            (
                r#"[{"up": 1}, {"slice": 1}]"#,
                "step 2: unknown step `slice`",
            ),
            (r#"[{"up": "1"}]"#, "step 1: `up` must be a number"),
            (
                r#"[{"drop": -1}]"#,
                "step 1: `drop` must be a non-negative integer",
            ),
            (
                r#"[{"drop": 1.5}]"#,
                "step 1: `drop` must be a non-negative integer",
            ),
            (
                r#"[{"drill": "Customer"}]"#,
                "step 1: `drill` must be an object, got string",
            ),
            (
                r#"[{"drill": {"dimension": "D", "attr": "T.C"}}]"#,
                "step 1: `drill` requires `value`",
            ),
            (
                r#"[{"drill": {"dimension": "D", "attr": "T.C", "value": 3}}]"#,
                "step 1: `value` must be a string, got number",
            ),
            (
                r#"[{"drill": {"dimension": "D", "attr": "T.C", "value": "v", "path": "p"}}]"#,
                "step 1: unknown field `path` in `drill`",
            ),
        ] {
            let body = format!(r#"{{"keywords": "x", "refine": {refine}}}"#);
            let err = QueryRequest::from_json(Verb::Explore, &body).unwrap_err();
            assert_eq!((err.status, err.code), (400, "bad_request"), "{refine}");
            assert!(err.message.contains(needle), "{refine} → {}", err.message);
        }
    }

    #[test]
    fn constraints_echo_only_when_present_and_parses_back() {
        let mut resp = sample_response(Verb::Explore);
        assert!(!resp.to_json().contains("\"constraints\""));
        resp.constraints = Some(Vec::new());
        let doc = json::parse(&resp.to_json()).expect("valid JSON");
        assert_eq!(doc.get("constraints").unwrap().as_arr(), Some(&[][..]));
        resp.constraints = Some(vec![
            ConstraintSummary {
                index: 1,
                dimension: Some("Store".into()),
                attr: "CITY.Name".into(),
                values: vec!["Columbus, OH".into(), "Columbus \"GA\"".into()],
                display: "CITY.Name/{…} via A → B".into(),
            },
            ConstraintSummary {
                index: 2,
                dimension: None,
                attr: "FACT.Note".into(),
                values: vec![],
                display: "FACT.Note/{} via FACT".into(),
            },
        ]);
        let doc = json::parse(&resp.to_json()).expect("valid JSON");
        let echoed = doc.get("constraints").unwrap().as_arr().unwrap();
        assert_eq!(echoed.len(), 2);
        assert_eq!(echoed[0].get("index").unwrap().as_num(), Some(1.0));
        assert_eq!(echoed[0].get("dimension").unwrap().as_str(), Some("Store"));
        let values = echoed[0].get("values").unwrap().as_arr().unwrap();
        assert_eq!(values[1].as_str(), Some("Columbus \"GA\""));
        assert_eq!(echoed[1].get("dimension"), Some(&Json::Null));
        // The echo sits between `picked` and `exploration`.
        let body = resp.to_json();
        assert!(body.find("\"picked\"") < body.find("\"constraints\""));
        assert!(body.find("\"constraints\"") < body.find("\"exploration\""));
    }

    #[test]
    fn request_rejects_malformed_bodies() {
        for (body, needle) in [
            ("{not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            ("{}", "missing required field `keywords`"),
            (r#"{"keywords": 5}"#, "`keywords` must be a string"),
            (r#"{"keywords": "x", "pick": 0}"#, "1-based"),
            (r#"{"keywords": "x", "pick": -1}"#, "non-negative"),
            (r#"{"keywords": "x", "pick": 1.5}"#, "non-negative integer"),
            (r#"{"keywords": "x", "rank": "nope"}"#, "unknown rank"),
            (r#"{"keywords": "x", "mode": "nope"}"#, "unknown mode"),
            (r#"{"keywords": "x", "order": "hybrid:x"}"#, "unknown order"),
            (r#"{"keywords": "x", "agg": "median"}"#, "unknown agg"),
            (r#"{"keywords": "x", "bogus": 1}"#, "unknown field `bogus`"),
            (
                r#"{"keywords": "x", "timeout_ms": "soon"}"#,
                "must be a number",
            ),
        ] {
            let err = QueryRequest::from_json(Verb::Differentiate, body).unwrap_err();
            assert_eq!(err.status, 400, "{body}");
            assert!(err.message.contains(needle), "{body} → {}", err.message);
        }
    }

    #[test]
    fn integers_the_parser_cannot_read_exactly_are_a_400_naming_the_field() {
        // Numbers parse as f64: above 2^53 - 1 a literal may have been
        // rounded (18446744073709551614 used to decode as u64::MAX).
        for (field, literal) in [
            ("pick", "18446744073709551614"),
            ("limit", "9007199254740993"),
            ("top_k_attrs", "9007199254740992"),
            ("top_k_instances", "1e19"),
            ("timeout_ms", "18446744073709551616"),
            ("budget_bytes", "1e300"),
        ] {
            let body = format!(r#"{{"keywords": "x", "{field}": {literal}}}"#);
            let err = QueryRequest::from_json(Verb::Explore, &body).unwrap_err();
            assert_eq!(err.status, 400, "{body}");
            let expected = format!("`{field}` is out of range");
            assert!(err.message.contains(&expected), "{body} → {}", err.message);
        }
        for step in ["up", "drop"] {
            let body = format!(r#"{{"keywords": "x", "refine": [{{"{step}": 1e16}}]}}"#);
            let err = QueryRequest::from_json(Verb::Explore, &body).unwrap_err();
            let expected = format!("`refine` step 1: `{step}` is out of range");
            assert!(err.message.contains(&expected), "{body} → {}", err.message);
        }
        // The largest exact integer still decodes, to itself; a whole
        // value is an integer however its literal is written.
        let body = r#"{"keywords": "x", "budget_bytes": 9007199254740991, "pick": 2.0}"#;
        let req = QueryRequest::from_json(Verb::Explore, body).unwrap();
        assert_eq!(req.options.budget_bytes, Some((1 << 53) - 1));
        assert_eq!(req.pick, 2);
    }

    fn sample_response(verb: Verb) -> QueryResponse {
        QueryResponse {
            verb,
            keywords: "columbus lcd".into(),
            n_interpretations: 2,
            interpretations: vec![
                InterpretationSummary {
                    rank: 1,
                    score: 0.5,
                    display: "TRANSITEM ⋈ CITY=\"Columbus, OH\"".into(),
                    fingerprint: "fp1".into(),
                },
                InterpretationSummary {
                    rank: 2,
                    score: 0.25,
                    display: "has,comma".into(),
                    fingerprint: "fp2".into(),
                },
            ],
            ranked: Vec::new(),
            picked: Some(1),
            constraints: None,
            exploration: Some(Exploration {
                subspace_size: 49,
                total_aggregate: 92732.91,
                panels: vec![FacetPanel {
                    dimension: "Store".into(),
                    attrs: vec![FacetAttr {
                        attr: ColRef {
                            table: TableId(0),
                            col: 0,
                        },
                        name: "CITY.Name".into(),
                        kind: AttrKind::Categorical,
                        correlation: 0.25,
                        score: -0.25,
                        promoted: true,
                        entries: vec![
                            FacetEntry {
                                label: "Columbus, OH".into(),
                                aggregate: 92732.91,
                                score: 1.0,
                                is_hit: true,
                            },
                            FacetEntry {
                                label: "Empty \"set\"".into(),
                                aggregate: f64::NAN,
                                score: 0.0,
                                is_hit: false,
                            },
                        ],
                    }],
                }],
            }),
            plan: None,
            report: None,
            profile: None,
        }
    }

    #[test]
    fn response_json_is_parseable_and_nan_is_null() {
        let resp = sample_response(Verb::Explore);
        let body = resp.to_json();
        let doc = json::parse(&body).expect("valid JSON");
        assert_eq!(doc.get("verb").unwrap().as_str(), Some("explore"));
        assert_eq!(doc.get("picked").unwrap().as_num(), Some(1.0));
        let ex = doc.get("exploration").unwrap();
        assert_eq!(ex.get("subspace_size").unwrap().as_num(), Some(49.0));
        let entries = ex.get("panels").unwrap().as_arr().unwrap()[0]
            .get("attrs")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .get("entries")
            .unwrap()
            .as_arr()
            .unwrap();
        // The empty-set aggregate (NaN) must be JSON null, not a bad token.
        assert_eq!(entries[1].get("aggregate"), Some(&Json::Null));
        assert_eq!(
            entries[0].get("aggregate").unwrap().as_num(),
            Some(92732.91)
        );
    }

    #[test]
    fn infinities_also_encode_as_null() {
        let mut resp = sample_response(Verb::Explore);
        if let Some(ex) = &mut resp.exploration {
            ex.total_aggregate = f64::INFINITY;
            ex.panels[0].attrs[0].entries[0].aggregate = f64::NEG_INFINITY;
        }
        let doc = json::parse(&resp.to_json()).expect("valid JSON");
        let ex = doc.get("exploration").unwrap();
        assert_eq!(ex.get("total_aggregate"), Some(&Json::Null));
    }

    #[test]
    fn csv_encodes_tables_and_quotes_fields() {
        let resp = sample_response(Verb::Differentiate);
        let csv = resp.to_csv().unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("rank,score,interpretation,fingerprint"));
        assert!(csv.contains("\"has,comma\""), "{csv}");

        let resp = sample_response(Verb::Explore);
        let csv = resp.to_csv().unwrap();
        assert!(csv.starts_with("dimension,attribute,kind,"), "{csv}");
        // NaN aggregate → empty CSV field; quoted label with inner quotes.
        assert!(csv.contains("\"Empty \"\"set\"\"\",,"), "{csv}");

        let resp = sample_response(Verb::Profile);
        assert_eq!(resp.to_csv().unwrap_err().status, 406);
    }

    #[test]
    fn format_negotiation_prefers_explicit_param() {
        assert_eq!(
            WireFormat::negotiate(Some("csv"), Some("application/json")).unwrap(),
            WireFormat::Csv
        );
        assert_eq!(
            WireFormat::negotiate(Some("json"), None).unwrap(),
            WireFormat::Json
        );
        assert_eq!(WireFormat::negotiate(None, None).unwrap(), WireFormat::Json);
        assert_eq!(
            WireFormat::negotiate(None, Some("text/csv")).unwrap(),
            WireFormat::Csv
        );
        assert_eq!(
            WireFormat::negotiate(None, Some("application/json, text/csv;q=0.5")).unwrap(),
            WireFormat::Csv
        );
        assert_eq!(
            WireFormat::negotiate(None, Some("*/*")).unwrap(),
            WireFormat::Json
        );
        assert_eq!(
            WireFormat::negotiate(Some("xml"), None).unwrap_err().status,
            406
        );
    }

    #[test]
    fn api_errors_map_engine_errors_onto_statuses() {
        let cases = [
            (
                KdapError::Timeout {
                    stage: "explore",
                    elapsed_ms: 5,
                },
                408,
                "timeout",
            ),
            (KdapError::Cancelled { stage: "semijoin" }, 499, "cancelled"),
            (
                KdapError::BudgetExceeded {
                    stage: "multi_group_by",
                    budget_bytes: 1,
                    charged_bytes: 2,
                },
                507,
                "budget_exceeded",
            ),
            (KdapError::EmptyQuery, 400, "empty_query"),
            (
                KdapError::NoInterpretation {
                    pick: 3,
                    available: 1,
                },
                404,
                "no_interpretation",
            ),
            (
                KdapError::BadRefine {
                    step: 2,
                    reason: "no constraint #7".into(),
                },
                400,
                "bad_refine",
            ),
            (KdapError::NoMeasure, 500, "internal"),
        ];
        for (err, status, code) in cases {
            let api = ApiError::from_kdap(&err);
            assert_eq!((api.status, api.code), (status, code), "{err}");
            let doc = json::parse(&api.to_json()).expect("valid error JSON");
            let e = doc.get("error").unwrap();
            assert_eq!(e.get("status").unwrap().as_num(), Some(status as f64));
            assert_eq!(e.get("code").unwrap().as_str(), Some(code));
        }
    }

    #[test]
    fn error_json_can_carry_a_trace_id() {
        let err = ApiError::bad_request("nope");
        assert!(!err.to_json().contains("trace_id"));
        let body = err.to_json_with_trace(Some("deadbeef"));
        let doc = json::parse(&body).expect("valid error JSON");
        assert_eq!(
            doc.get("error").unwrap().get("trace_id").unwrap().as_str(),
            Some("deadbeef")
        );
    }

    #[test]
    fn trace_id_is_edge_set_not_a_body_field() {
        // The strict body parser must not grow a trace field; ids come
        // from the transport edge only.
        let err = QueryRequest::from_json(Verb::Explore, r#"{"keywords": "x", "trace_id": "a"}"#)
            .unwrap_err();
        assert!(err.message.contains("unknown field `trace_id`"));
        let req = QueryRequest::new(Verb::Explore, "x").with_trace_id("cafe");
        assert_eq!(req.trace_id.as_deref(), Some("cafe"));
    }

    #[test]
    fn options_apply_only_what_they_carry() {
        let base = FacetConfig::default();
        let unchanged = QueryOptions::default().apply_facet(base.clone());
        assert_eq!(unchanged.top_k_attrs, base.top_k_attrs);
        let opts = QueryOptions {
            mode: Some(InterestMode::Bellwether),
            top_k_attrs: Some(1),
            ..QueryOptions::default()
        };
        let cfg = opts.apply_facet(base.clone());
        assert_eq!(cfg.mode, InterestMode::Bellwether);
        assert_eq!(cfg.top_k_attrs, 1);
        assert_eq!(cfg.top_k_instances, base.top_k_instances);
    }
}
