//! Session-facing query governance: cancellation tokens, governed
//! execution contexts, and breach bookkeeping.
//!
//! The mechanics live in [`kdap_query::QueryContext`] — a per-query
//! deadline, a cooperative cancellation flag, and a cumulative memory
//! budget polled by every chunked kernel. This module supplies the
//! session-level glue: a clonable [`CancelToken`] the REPL (or any
//! embedder) can trip from a signal handler, construction of a fresh
//! governed context per query, and recording of breaches into the obs
//! metrics registry (`governor.timeouts`, `governor.cancellations`,
//! `governor.budget_exceeded`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kdap_obs::Obs;
use kdap_query::QueryContext;

use crate::error::KdapError;

/// Obs counter bumped when a query aborts on its deadline.
pub const CTR_TIMEOUTS: &str = "governor.timeouts";
/// Obs counter bumped when a query aborts on its cancellation token.
pub const CTR_CANCELLATIONS: &str = "governor.cancellations";
/// Obs counter bumped when a query aborts on its memory budget.
pub const CTR_BUDGET_EXCEEDED: &str = "governor.budget_exceeded";

/// A clonable cancellation handle shared between a running query and
/// whoever may want to stop it (REPL signal handler, another thread).
///
/// `cancel()` is a single atomic store, safe to call from a Unix signal
/// handler. Kernels observe it cooperatively at chunk granularity, so a
/// cancelled query unwinds with [`KdapError::Cancelled`] within one
/// chunk of work rather than at an arbitrary instruction.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Fault injection: see [`CancelToken::cancelling_at_poll`].
    cancel_at_poll: Option<u64>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fault injection for abort-semantics tests: a token under which each
    /// query sees itself cancelled at its `k`-th governance poll (1-based)
    /// — a deterministic stand-in for a cancel landing mid-query.
    pub fn cancelling_at_poll(k: u64) -> Self {
        CancelToken {
            cancel_at_poll: Some(k),
            ..CancelToken::default()
        }
    }

    /// Requests cancellation of every query governed by this token.
    /// Async-signal-safe: one relaxed atomic store, no allocation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Re-arms the token after a cancelled query has unwound, so the
    /// next query starts uncancelled.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }

    /// True once `cancel()` has been called (and `reset()` has not).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The raw shared flag, for wiring into a [`QueryContext`].
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }

    /// True when a clone of this token lives outside its session — i.e.
    /// an embedder (REPL, another thread) could trip it mid-query, so
    /// queries must poll it even with no deadline or budget set.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.flag) > 1
    }
}

/// Session-level governance limits, applied to each query individually:
/// the deadline clock restarts at every `run`/`explore` call.
#[derive(Debug, Clone, Default)]
pub struct Governor {
    /// Per-query wall-clock deadline.
    pub deadline: Option<Duration>,
    /// Per-query memory budget in bytes, charged by accumulator and
    /// bitmap allocations.
    pub memory_budget: Option<u64>,
    /// Cancellation token shared across all queries of the session.
    pub cancel: CancelToken,
}

impl Governor {
    /// A fresh per-query context carrying these limits. Called once at
    /// the top of each governed query so deadlines measure per-query
    /// time, not session lifetime.
    pub fn fresh_context(&self) -> Arc<QueryContext> {
        let ctx = QueryContext::new(self.deadline, self.memory_budget, self.cancel.flag());
        Arc::new(match self.cancel.cancel_at_poll {
            Some(k) => ctx.cancel_at_poll(k),
            None => ctx,
        })
    }
}

/// Records a governance breach in the obs metrics registry. Non-breach
/// errors pass through untouched; call this exactly once on the error
/// path of a governed query.
pub fn record_breach(obs: &Obs, err: &KdapError) {
    match err {
        KdapError::Timeout { .. } => obs.inc(CTR_TIMEOUTS, 1),
        KdapError::Cancelled { .. } => obs.inc(CTR_CANCELLATIONS, 1),
        KdapError::BudgetExceeded { .. } => obs.inc(CTR_BUDGET_EXCEEDED, 1),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_round_trip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled(), "clones share the flag");
        t.reset();
        assert!(!clone.is_cancelled());
    }

    #[test]
    fn governor_builds_fresh_contexts() {
        let g = Governor {
            deadline: Some(Duration::from_secs(5)),
            memory_budget: Some(1 << 20),
            cancel: CancelToken::new(),
        };
        let ctx = g.fresh_context();
        assert!(ctx.check("stage").is_ok());
        g.cancel.cancel();
        assert!(ctx.check("stage").is_err(), "token is shared with context");
        g.cancel.reset();
        // A second context starts with a fresh deadline clock.
        assert!(g.fresh_context().check("stage").is_ok());
    }

    #[test]
    fn breaches_are_counted() {
        let obs = Obs::enabled();
        record_breach(
            &obs,
            &KdapError::Timeout {
                stage: "explore",
                elapsed_ms: 7,
            },
        );
        record_breach(&obs, &KdapError::Cancelled { stage: "semijoin" });
        record_breach(
            &obs,
            &KdapError::BudgetExceeded {
                stage: "multi_group_by",
                budget_bytes: 10,
                charged_bytes: 20,
            },
        );
        record_breach(&obs, &KdapError::NoMeasure);
        let snap = obs.metrics_snapshot();
        assert_eq!(snap.counters.get(CTR_TIMEOUTS), Some(&1));
        assert_eq!(snap.counters.get(CTR_CANCELLATIONS), Some(&1));
        assert_eq!(snap.counters.get(CTR_BUDGET_EXCEEDED), Some(&1));
    }
}
