//! Per-query governance: deadlines, cooperative cancellation, and memory
//! budgets.
//!
//! A [`QueryContext`] travels inside [`ExecConfig`](crate::ExecConfig) and
//! is consulted by every chunked kernel at *chunk granularity*: bitmap set
//! algebra, semi-join step execution, and the fused `multi_group_by`
//! scans. A breach (deadline passed, token cancelled, budget exhausted)
//! surfaces as [`QueryError::Governed`](crate::QueryError) carrying the
//! observability stage name where the check fired and how far the stage
//! had progressed — so a timed-out query reports *where* the time went.
//!
//! Design constraints:
//!
//! * **Cheap when off.** An ungoverned `ExecConfig` holds `None`; every
//!   check is a single branch. The `exp_obs` bench bounds the overhead of
//!   the instrumented build at ≤2%.
//! * **Cooperative.** Nothing is interrupted mid-chunk; kernels poll
//!   between chunks and unwind with an error. Callers must therefore not
//!   publish partial state (see the staged cache commits in
//!   [`plan`](crate::plan)).
//! * **Clock reads are bounded.** `Instant::now()` is only taken when a
//!   deadline is actually set; cancellation and budget checks are plain
//!   atomic loads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::QueryError;

/// Why a governed query was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Breach {
    /// The per-query deadline passed.
    Timeout {
        /// Wall-clock time elapsed since the context was created, in ms.
        elapsed_ms: u64,
    },
    /// The cancellation token was set (e.g. REPL Ctrl-C).
    Cancelled,
    /// Charged allocations exceeded the memory budget.
    Budget {
        /// The configured budget in bytes.
        budget_bytes: u64,
        /// Bytes charged at the moment the budget was breached.
        charged_bytes: u64,
    },
}

/// Per-query governance state: one deadline, one cancellation flag, one
/// memory budget, shared by every worker thread of the query via `Arc`.
///
/// The memory budget counts *charged* allocations — accumulator arrays
/// and result bitmaps, the allocations whose size scales with data
/// cardinality — cumulatively over the query, not peak RSS. See
/// `DESIGN.md` § Query governance for the accounting model.
#[derive(Debug)]
pub struct QueryContext {
    started: Instant,
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
    budget: Option<u64>,
    charged: AtomicU64,
    /// Fault injection: report `Cancelled` from this poll on (1-based).
    cancel_at_poll: Option<u64>,
    polls: AtomicU64,
}

impl QueryContext {
    /// A context enforcing the given limits. `cancel` is shared so a
    /// signal handler (or another thread) can flip it mid-query.
    pub fn new(
        deadline: Option<Duration>,
        budget_bytes: Option<u64>,
        cancel: Arc<AtomicBool>,
    ) -> Self {
        let started = Instant::now();
        QueryContext {
            started,
            deadline: deadline.map(|d| started + d),
            cancel,
            budget: budget_bytes,
            charged: AtomicU64::new(0),
            cancel_at_poll: None,
            polls: AtomicU64::new(0),
        }
    }

    /// Fault injection for abort-semantics tests: the `k`-th
    /// [`check_at`](Self::check_at) of this context (1-based, counted
    /// across all worker threads) and every later one report
    /// [`Breach::Cancelled`], as if the token had been tripped just then.
    pub fn cancel_at_poll(mut self, k: u64) -> Self {
        self.cancel_at_poll = Some(k);
        self
    }

    /// Polls cancellation and the deadline. `stage` is the observability
    /// span name of the surrounding work; `completed`/`total` report the
    /// stage's chunk- or step-level progress (pass `0, 0` when the stage
    /// has no meaningful sub-progress).
    #[inline]
    pub fn check_at(
        &self,
        stage: &'static str,
        completed: u64,
        total: u64,
    ) -> Result<(), QueryError> {
        let injected = |k| self.polls.fetch_add(1, Ordering::Relaxed) + 1 >= k;
        if self.cancel.load(Ordering::Relaxed) || self.cancel_at_poll.is_some_and(injected) {
            return Err(QueryError::Governed {
                breach: Breach::Cancelled,
                stage,
                completed,
                total,
            });
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(QueryError::Governed {
                    breach: Breach::Timeout {
                        elapsed_ms: now.duration_since(self.started).as_millis() as u64,
                    },
                    stage,
                    completed,
                    total,
                });
            }
        }
        Ok(())
    }

    /// [`check_at`](Self::check_at) without progress information.
    #[inline]
    pub fn check(&self, stage: &'static str) -> Result<(), QueryError> {
        self.check_at(stage, 0, 0)
    }

    /// Charges `bytes` of accumulator/bitmap allocation against the
    /// budget and fails when the cumulative total exceeds it.
    #[inline]
    pub fn charge(&self, stage: &'static str, bytes: u64) -> Result<(), QueryError> {
        let total = self.charged.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(budget) = self.budget {
            if total > budget {
                return Err(QueryError::Governed {
                    breach: Breach::Budget {
                        budget_bytes: budget,
                        charged_bytes: total,
                    },
                    stage,
                    completed: 0,
                    total: 0,
                });
            }
        }
        Ok(())
    }

    /// Bytes charged against the budget so far.
    pub fn charged(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }

    /// True once the cancellation token has been set.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the context was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_context_always_passes() {
        let ctx = QueryContext::new(None, None, Arc::new(AtomicBool::new(false)));
        assert!(ctx.check("stage").is_ok());
        assert!(ctx.charge("stage", u64::MAX / 2).is_ok());
        assert!(!ctx.is_cancelled());
    }

    #[test]
    fn zero_deadline_fires_immediately() {
        let ctx = QueryContext::new(Some(Duration::ZERO), None, Arc::new(AtomicBool::new(false)));
        let err = ctx.check_at("explore.scan_a", 3, 10).unwrap_err();
        match err {
            QueryError::Governed {
                breach: Breach::Timeout { .. },
                stage,
                completed,
                total,
            } => {
                assert_eq!(stage, "explore.scan_a");
                assert_eq!((completed, total), (3, 10));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let cancel = Arc::new(AtomicBool::new(true));
        let ctx = QueryContext::new(Some(Duration::ZERO), None, cancel);
        assert!(matches!(
            ctx.check("semijoin"),
            Err(QueryError::Governed {
                breach: Breach::Cancelled,
                ..
            })
        ));
    }

    #[test]
    fn injected_cancel_fires_from_the_kth_poll_on() {
        let flag = Arc::new(AtomicBool::new(false));
        let ctx = QueryContext::new(None, None, flag.clone()).cancel_at_poll(3);
        assert!(ctx.check("a").is_ok());
        assert!(ctx.check("a").is_ok());
        for _ in 0..2 {
            assert!(matches!(
                ctx.check("b"),
                Err(QueryError::Governed {
                    breach: Breach::Cancelled,
                    stage: "b",
                    ..
                })
            ));
        }
        assert!(
            !flag.load(Ordering::Relaxed),
            "the shared token is untouched"
        );
    }

    #[test]
    fn budget_is_cumulative() {
        let ctx = QueryContext::new(None, Some(100), Arc::new(AtomicBool::new(false)));
        assert!(ctx.charge("multi_group_by", 60).is_ok());
        let err = ctx.charge("multi_group_by", 60).unwrap_err();
        match err {
            QueryError::Governed {
                breach:
                    Breach::Budget {
                        budget_bytes,
                        charged_bytes,
                    },
                ..
            } => {
                assert_eq!(budget_bytes, 100);
                assert_eq!(charged_bytes, 120);
            }
            other => panic!("expected budget breach, got {other:?}"),
        }
        assert_eq!(ctx.charged(), 120);
    }

    #[test]
    fn cancel_token_is_shared() {
        let cancel = Arc::new(AtomicBool::new(false));
        let ctx = QueryContext::new(None, None, cancel.clone());
        assert!(ctx.check("explore").is_ok());
        cancel.store(true, Ordering::Relaxed);
        assert!(ctx.check("explore").is_err());
        assert!(ctx.is_cancelled());
    }
}
