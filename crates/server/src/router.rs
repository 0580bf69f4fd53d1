//! Request routing: URL space, admission control, per-request
//! governance, client-disconnect cancellation, trace propagation,
//! access logging, and endpoint metrics.
//!
//! ```text
//! GET  /healthz                    liveness + version/uptime/totals
//! GET  /metrics                    Prometheus exposition, all tenants
//! GET  /v1/{tenant}/stats          tenant metrics + cache state
//! GET  /v1/{tenant}/slow           slow-query ledger
//! POST /v1/{tenant}/differentiate  ranked interpretations
//! POST /v1/{tenant}/explore        interpretation + facets
//! POST /v1/{tenant}/profile        + per-stage timing tree
//! POST /v1/{tenant}/explain        + constraint plan and scan report
//! ```
//!
//! Every request gets a trace id — accepted from `x-kdap-trace-id` (1 to
//! 32 hex digits) or minted at this edge — that is echoed back in the
//! `x-kdap-trace-id` response header, stamped into profiles and error
//! bodies, and carried by access-log lines and slow-ledger entries.
//!
//! While a query runs, its connection is registered with the server's
//! [`DisconnectMonitor`](crate::monitor::DisconnectMonitor): a client
//! that hangs up has its query cancelled (`499`, counted as
//! `http.disconnect_cancels`) instead of holding a worker. A client that
//! half-closes its sending side after the request is indistinguishable
//! from one that left and is treated the same way, so clients must keep
//! the connection fully open until they have read the response.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use kdap_core::api::{ApiError, QueryRequest, Verb, WireFormat};
use kdap_core::CancelToken;
use kdap_obs::{
    chrome_trace, JsonWriter, Layout, LedgerEntry, LogLevel, PrometheusExport, QueryProfile,
    TraceId, PROMETHEUS_CONTENT_TYPE,
};

use crate::http::{Request, Response};
use crate::registry::TenantEngine;
use crate::ServerState;

/// Governance header: per-request deadline in milliseconds. The body
/// field `timeout_ms` wins when both are present.
const HDR_TIMEOUT_MS: &str = "x-kdap-timeout-ms";
/// Governance header: per-request memory budget in bytes. The body
/// field `budget_bytes` wins when both are present.
const HDR_BUDGET_BYTES: &str = "x-kdap-budget-bytes";
/// Trace header: client-supplied trace id (1 to 32 hex digits),
/// minted at the edge when absent; echoed on every response.
const HDR_TRACE_ID: &str = "x-kdap-trace-id";

/// Routes one parsed request to its handler and returns the response.
/// `stream` is the client connection, watched for disconnect while a
/// query runs. Error bodies are always JSON regardless of the
/// negotiated result format, and carry the request's trace id.
pub(crate) fn route(state: &ServerState, request: &Request, stream: &Arc<TcpStream>) -> Response {
    let timer = Instant::now();
    // The trace id is edge-minted or client-supplied; a client-supplied
    // id is kept byte-identical for the echo.
    let (trace, trace_err) = match request.header(HDR_TRACE_ID) {
        Some(raw) => match TraceId::parse(raw) {
            Some(_) => (raw.to_string(), None),
            None => (
                TraceId::mint().to_string(),
                Some(ApiError::bad_request(format!(
                    "`{HDR_TRACE_ID}` must be 1 to 32 hex digits"
                ))),
            ),
        },
        None => (TraceId::mint().to_string(), None),
    };
    let result = match trace_err {
        Some(err) => Err(err),
        None => route_inner(state, &trace, request, stream),
    };
    let mut breach = None;
    let response = match result {
        Ok(resp) => resp,
        Err(err) => {
            breach =
                matches!(err.code, "timeout" | "cancelled" | "budget_exceeded").then_some(err.code);
            Response::json(err.status, err.to_json_with_trace(Some(&trace)))
        }
    };
    let response = response.with_header(HDR_TRACE_ID, trace.clone());
    if state.logger.is_enabled() {
        let level = match response.status {
            s if s >= 500 => LogLevel::Error,
            s if s >= 400 => LogLevel::Warn,
            _ => LogLevel::Info,
        };
        state.logger.log(level, "access", |w| {
            w.key("trace_id")
                .str(&trace)
                .key("method")
                .str(&request.method);
            w.key("path").str(&request.path);
            w.key("status").int(response.status);
            w.key("latency_ns").int(timer.elapsed().as_nanos() as u64);
            if let Some(code) = breach {
                w.key("breach").str(code);
            }
        });
    }
    response
}

fn route_inner(
    state: &ServerState,
    trace: &str,
    request: &Request,
    stream: &Arc<TcpStream>,
) -> Result<Response, ApiError> {
    if request.path == "/healthz" {
        return match request.method.as_str() {
            "GET" => Ok(Response::ok("application/json", healthz_json(state))),
            _ => Err(method_not_allowed("GET")),
        };
    }
    if request.path == "/metrics" {
        if request.method != "GET" {
            return Err(method_not_allowed("GET"));
        }
        let mut export = PrometheusExport::new();
        for tenant in state.registry.iter() {
            export.add_obs(tenant.name(), tenant.http_obs());
            export.add_obs(tenant.name(), tenant.kdap().obs());
        }
        return Ok(Response::ok(PROMETHEUS_CONTENT_TYPE, export.render()));
    }
    let Some(rest) = request.path.strip_prefix("/v1/") else {
        return Err(ApiError::not_found(format!(
            "no route for `{}` (try /healthz, /metrics or /v1/{{tenant}}/…)",
            request.path
        )));
    };
    let mut segments = rest.split('/');
    let (Some(tenant_name), Some(action), None) =
        (segments.next(), segments.next(), segments.next())
    else {
        return Err(ApiError::not_found(
            "routes are /v1/{tenant}/{differentiate|explore|profile|explain|stats|slow}",
        ));
    };
    let Some(tenant) = state.registry.get(tenant_name) else {
        return Err(ApiError::not_found(format!(
            "unknown tenant `{tenant_name}` (registered: {})",
            state.registry.tenant_names().join(", ")
        )));
    };

    if action == "stats" || action == "slow" {
        if request.method != "GET" {
            return Err(method_not_allowed("GET"));
        }
        tenant.http_obs().inc("http.requests", 1);
        let body = if action == "stats" {
            tenant.http_obs().inc("http.stats.requests", 1);
            tenant.stats_json()
        } else {
            tenant.http_obs().inc("http.slow.requests", 1);
            tenant.slow_ledger().to_json()
        };
        return Ok(Response::ok("application/json", body));
    }

    let Some(verb) = Verb::parse(action) else {
        return Err(ApiError::not_found(format!(
            "unknown action `{action}` (differentiate, explore, profile, explain, stats, slow)"
        )));
    };
    if request.method != "POST" {
        return Err(method_not_allowed("POST"));
    }
    run_query(state, tenant, verb, trace, request, stream)
}

/// The `/healthz` body. Keeps the `"status": "ok"` shape older clients
/// substring-match on, and adds version, uptime, tenant count, and the
/// connection and request totals since start (this request included) —
/// their ratio is the connection reuse.
fn healthz_json(state: &ServerState) -> String {
    let mut out = String::new();
    JsonWriter::new(&mut out).object(Layout::Inline, |w| {
        w.key("status").str("ok");
        w.key("version").str(env!("CARGO_PKG_VERSION"));
        w.key("uptime_s").int(state.started.elapsed().as_secs());
        w.key("tenants").int(state.registry.len());
        w.key("connections")
            .int(state.connections.load(Ordering::Relaxed));
        w.key("requests")
            .int(state.requests.load(Ordering::Relaxed));
    });
    out.push('\n');
    out
}

/// The per-verb request counter and latency histogram names, spelled
/// out so the request path formats no metric name.
fn verb_metrics(verb: Verb) -> (&'static str, &'static str) {
    match verb {
        Verb::Differentiate => (
            "http.differentiate.requests",
            "http.differentiate.latency_ns",
        ),
        Verb::Explore => ("http.explore.requests", "http.explore.latency_ns"),
        Verb::Profile => ("http.profile.requests", "http.profile.latency_ns"),
        Verb::Explain => ("http.explain.requests", "http.explain.latency_ns"),
    }
}

fn run_query(
    state: &ServerState,
    tenant: &Arc<TenantEngine>,
    verb: Verb,
    trace: &str,
    request: &Request,
    stream: &Arc<TcpStream>,
) -> Result<Response, ApiError> {
    let max_inflight = state.max_inflight;
    let obs = tenant.http_obs();
    let (requests_counter, latency_histogram) = verb_metrics(verb);
    obs.inc("http.requests", 1);
    obs.inc(requests_counter, 1);

    // Everything that can fail cheaply fails before admission.
    // `format=trace` (Chrome trace-event JSON) only makes sense for
    // tree-shaped profile responses, so it is intercepted before wire
    // negotiation.
    let trace_format = request.query_param("format") == Some("trace");
    if trace_format && verb != Verb::Profile {
        return Err(ApiError::not_acceptable(format!(
            "`format=trace` requires the profile verb, not `{verb}`"
        )));
    }
    let format = if trace_format {
        WireFormat::Json
    } else {
        WireFormat::negotiate(request.query_param("format"), request.header("accept"))?
    };
    let mut query = QueryRequest::from_json(verb, &request.body)?;
    query.trace_id = Some(trace.to_string());
    if query.options.timeout_ms.is_none() {
        query.options.timeout_ms = header_u64(request, HDR_TIMEOUT_MS)?;
    }
    if query.options.budget_bytes.is_none() {
        query.options.budget_bytes = header_u64(request, HDR_BUDGET_BYTES)?;
    }

    let Some(_slot) = tenant.admit(max_inflight) else {
        obs.inc("http.rejected", 1);
        obs.inc("http.status.429", 1);
        return Err(ApiError::too_many_requests(format!(
            "tenant `{}` is at its in-flight limit ({max_inflight})",
            tenant.name()
        )));
    };

    // Profile capture is per-session state: one capture at a time.
    let _profile_guard = (verb == Verb::Profile).then(|| tenant.lock_profile());

    let token = CancelToken::new();
    let watch = state.monitor.watch(stream, token.clone());
    let timer = obs.timer();
    let result = tenant.kdap().run_cancellable(&query, Some(token.clone()));
    let latency_ns = timer.stop();
    // The socket is back in blocking mode before the response is written.
    drop(watch);
    obs.record_ns(latency_histogram, latency_ns);
    // Nothing but the monitor can have tripped this request's token.
    if token.is_cancelled() {
        obs.inc("http.disconnect_cancels", 1);
    }

    let ledger_entry =
        |status: u16, breach: Option<&str>, profile: Option<QueryProfile>| LedgerEntry {
            trace_id: Some(trace.to_string()),
            verb: verb.to_string(),
            keywords: query.keywords.clone(),
            latency_ns,
            status,
            breach: breach.map(String::from),
            profile,
        };
    match result {
        Ok(response) => {
            let body = if trace_format {
                match &response.profile {
                    Some(profile) => chrome_trace(profile),
                    None => chrome_trace(&QueryProfile::empty(&query.keywords)),
                }
            } else {
                response.encode(format)?
            };
            obs.inc("http.status.200", 1);
            tenant
                .slow_ledger()
                .record(ledger_entry(200, None, response.profile.clone()));
            let content_type = if trace_format {
                "application/json"
            } else {
                format.content_type()
            };
            Ok(Response::ok(content_type, body))
        }
        Err(err) => {
            let api = ApiError::from_kdap(&err);
            obs.inc(&format!("http.status.{}", api.status), 1);
            let breach =
                matches!(api.code, "timeout" | "cancelled" | "budget_exceeded").then_some(api.code);
            tenant
                .slow_ledger()
                .record(ledger_entry(api.status, breach, None));
            Err(api)
        }
    }
}

fn method_not_allowed(allowed: &str) -> ApiError {
    ApiError {
        status: 405,
        code: "method_not_allowed",
        message: format!("use {allowed}"),
    }
}

fn header_u64(request: &Request, name: &str) -> Result<Option<u64>, ApiError> {
    match request.header(name) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<u64>()
            .map(Some)
            .map_err(|_| ApiError::bad_request(format!("`{name}` must be a non-negative integer"))),
    }
}
