//! Unified error type for the KDAP core layer.

use std::fmt;

use kdap_query::QueryError;
use kdap_warehouse::WarehouseError;

/// Errors surfaced by session construction and core-layer operations,
/// wrapping the storage- and query-layer error types.
#[derive(Debug)]
pub enum KdapError {
    /// An error from the warehouse layer.
    Warehouse(WarehouseError),
    /// An error from the query executor.
    Query(QueryError),
    /// The warehouse declares no measure to aggregate.
    NoMeasure,
    /// The requested measure is not declared by the warehouse.
    UnknownMeasure(String),
    /// The query ran past its deadline and was aborted cooperatively.
    Timeout {
        /// Pipeline stage that observed the breach (an obs span name).
        stage: &'static str,
        /// Wall-clock time spent before the deadline check fired.
        elapsed_ms: u64,
    },
    /// The query's cancellation token was triggered (e.g. REPL Ctrl-C).
    Cancelled {
        /// Pipeline stage that observed the cancellation.
        stage: &'static str,
    },
    /// The query charged more bytes against its memory budget than allowed.
    BudgetExceeded {
        /// Pipeline stage whose allocation breached the budget.
        stage: &'static str,
        /// The configured budget in bytes.
        budget_bytes: u64,
        /// Cumulative bytes charged when the breach was detected.
        charged_bytes: u64,
    },
    /// The keyword input contains no usable keywords (empty, or nothing
    /// but stopwords/punctuation).
    EmptyQuery,
    /// A request asked for interpretation `pick` but the ranking holds
    /// fewer entries (or none at all).
    NoInterpretation {
        /// The 1-based interpretation index the request asked for.
        pick: usize,
        /// How many interpretations the ranking actually produced.
        available: usize,
    },
    /// A step of the request's `refine` list does not apply to the net
    /// the steps before it produced: an unknown dimension, facet
    /// attribute or instance, a constraint index out of range, a drill
    /// into a numeric-range facet, or any step on `differentiate` (which
    /// picks no interpretation to refine). Nothing was materialized.
    BadRefine {
        /// 1-based position of the offending step in the list.
        step: usize,
        /// What about it does not apply.
        reason: String,
    },
}

impl fmt::Display for KdapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KdapError::Warehouse(e) => write!(f, "warehouse error: {e}"),
            KdapError::Query(e) => write!(f, "query error: {e}"),
            KdapError::NoMeasure => write!(f, "warehouse declares no measure"),
            KdapError::UnknownMeasure(name) => write!(f, "unknown measure {name:?}"),
            KdapError::Timeout { stage, elapsed_ms } => {
                write!(f, "query timed out after {elapsed_ms} ms in `{stage}`")
            }
            KdapError::Cancelled { stage } => write!(f, "query cancelled in `{stage}`"),
            KdapError::BudgetExceeded {
                stage,
                budget_bytes,
                charged_bytes,
            } => write!(
                f,
                "query exceeded its memory budget in `{stage}` \
                 ({charged_bytes} bytes charged, {budget_bytes} allowed)"
            ),
            KdapError::EmptyQuery => {
                write!(f, "query contains no usable keywords")
            }
            KdapError::NoInterpretation { pick, available } => {
                if *available == 0 {
                    write!(f, "no interpretations found for the query")
                } else {
                    write!(
                        f,
                        "interpretation {pick} requested but only {available} available"
                    )
                }
            }
            KdapError::BadRefine { step, reason } => write!(f, "refine step {step}: {reason}"),
        }
    }
}

impl std::error::Error for KdapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KdapError::Warehouse(e) => Some(e),
            KdapError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WarehouseError> for KdapError {
    fn from(e: WarehouseError) -> Self {
        KdapError::Warehouse(e)
    }
}

impl From<QueryError> for KdapError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Governed { breach, stage, .. } => match breach {
                kdap_query::Breach::Timeout { elapsed_ms } => {
                    KdapError::Timeout { stage, elapsed_ms }
                }
                kdap_query::Breach::Cancelled => KdapError::Cancelled { stage },
                kdap_query::Breach::Budget {
                    budget_bytes,
                    charged_bytes,
                } => KdapError::BudgetExceeded {
                    stage,
                    budget_bytes,
                    charged_bytes,
                },
            },
            other => KdapError::Query(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_lower_layers() {
        let e: KdapError = QueryError::InvalidBucketCount.into();
        assert!(matches!(e, KdapError::Query(_)));
        assert!(e.to_string().contains("query error"));
        let e: KdapError = WarehouseError::NoFactTable.into();
        assert!(matches!(e, KdapError::Warehouse(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(KdapError::UnknownMeasure("X".into())
            .to_string()
            .contains("\"X\""));
    }
}
