//! Zero-dependency structured tracing and metrics for the KDAP engine.
//!
//! Three pieces, one handle:
//!
//! * **[`Obs`]** — the handle threaded through every layer. It wraps
//!   `Option<Arc<Recorder>>`; the [`Obs::disabled`] handle turns every
//!   operation into a single `None` check, so instrumented code costs
//!   nothing measurable when observability is off (the contract the
//!   `exp_obs` bench verifies: bit-identical results, ≤2% overhead).
//! * **Metrics** — named atomic [`Counter`]s, [`Gauge`]s, and
//!   log-bucketed [`Histogram`]s (p50/p95/p99 as deterministic
//!   bucket-upper-bound estimates; merge is bucket addition, hence
//!   associative across per-thread partials).
//! * **Profiles** — a per-query [`QueryProfile`] tree built from a span
//!   stack on the coordinating thread. Parallel workers never open
//!   spans; they measure raw durations which the coordinator records as
//!   leaves in chunk/step order, so the tree *structure* is identical at
//!   any thread count.
//!
//! ```
//! use kdap_obs::{span, LeafData, Obs};
//!
//! let obs = Obs::enabled();
//! obs.start_profile("columbus lcd");
//! {
//!     let s = span!(obs, "semijoin", table = "STORES");
//!     s.rows_out(42);
//!     obs.leaf("chunk", LeafData { wall_ns: 10, ..LeafData::default() });
//! }
//! let profile = obs.take_profile().unwrap();
//! assert_eq!(profile.stage_names(), vec!["semijoin", "  chunk"]);
//! println!("{}", profile.render());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod export;
mod json;
mod ledger;
mod log;
mod metrics;
mod profile;
mod recorder;
mod trace;

pub use export::{chrome_trace, lint_exposition, PrometheusExport, PROMETHEUS_CONTENT_TYPE};
pub use json::{json_string, Int, JsonWriter, Layout};
pub use ledger::{LedgerEntry, SlowQueryLedger};
pub use log::{JsonLogger, LogLevel};
pub use metrics::{
    CacheCounters, Counter, Gauge, Histogram, HistogramSummary, Metrics, MetricsSnapshot, N_BUCKETS,
};
pub use profile::{fmt_ns, CacheOutcome, ProfileNode, QueryProfile};
pub use recorder::{LeafData, Obs, Recorder, Span, Timer};
pub use trace::TraceId;

/// Opens a span on an [`Obs`] handle, optionally annotating it with
/// `key = value` notes:
///
/// ```
/// # use kdap_obs::{span, Obs};
/// # let obs = Obs::enabled();
/// # obs.start_profile("q");
/// let _s = span!(obs, "semijoin");
/// let _t = span!(obs, "scan", table = "FACTS", chunks = 4);
/// ```
///
/// Values go through `ToString`. On a disabled handle (or outside an
/// active profile) the span is inert and the notes are never formatted.
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr) => {
        $obs.span($name)
    };
    ($obs:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let s = $obs.span($name);
        $(s.note(stringify!($key), $value);)+
        s
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_macro_records_notes() {
        let obs = Obs::enabled();
        obs.start_profile("q");
        {
            let _s = span!(obs, "scan", table = "FACTS", chunks = 4);
        }
        let p = obs.take_profile().unwrap();
        assert_eq!(p.roots[0].name, "scan");
        assert_eq!(
            p.roots[0].notes,
            vec![
                ("table".to_string(), "FACTS".to_string()),
                ("chunks".to_string(), "4".to_string())
            ]
        );
    }

    #[test]
    fn span_macro_is_inert_when_disabled() {
        let obs = Obs::disabled();
        let _s = span!(obs, "scan", table = "FACTS");
        assert!(obs.take_profile().is_none());
    }
}
