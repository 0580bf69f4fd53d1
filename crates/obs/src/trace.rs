//! Per-request trace identifiers.
//!
//! A [`TraceId`] is a 128-bit value minted at the service edge (HTTP
//! router or CLI) and threaded through the request, the profile, the
//! access log, and the slow-query ledger, so one id correlates every
//! record a request leaves behind. Clients may supply their own id via
//! the `x-kdap-trace-id` header; otherwise the edge mints one.
//!
//! The workspace carries no dependencies, so minting mixes the wall
//! clock, the process id, and a process-wide counter through a
//! SplitMix64 finalizer — not cryptographic, but collision-safe for the
//! correlate-your-own-requests use case.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Process-wide mint counter; distinguishes ids minted within one clock
/// tick.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// SplitMix64 finalizer: a cheap, well-distributed bit mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A 128-bit per-request trace identifier, rendered as 32 lowercase hex
/// digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u128);

impl TraceId {
    /// Mints a fresh id from the wall clock, the process id, and a
    /// process-wide counter.
    pub fn mint() -> TraceId {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let hi = mix(now ^ (u64::from(std::process::id()) << 32));
        let lo = mix(seq ^ now.rotate_left(17));
        TraceId((u128::from(hi) << 64) | u128::from(lo))
    }

    /// Parses a client-supplied id: 1 to 32 hex digits, case-insensitive.
    /// Anything else is rejected (`None`) so the edge can answer 400.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_unique_and_renders_32_hex() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        let s = a.to_string();
        assert_eq!(s.len(), 32);
        assert!(s.bytes().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn parse_round_trips_display() {
        let id = TraceId::mint();
        assert_eq!(TraceId::parse(&id.to_string()), Some(id));
    }

    #[test]
    fn parse_accepts_short_and_mixed_case_hex() {
        assert_eq!(TraceId::parse("deadBEEF"), Some(TraceId(0xdead_beef)));
        assert_eq!(TraceId::parse("0"), Some(TraceId(0)));
        assert_eq!(
            TraceId::parse("ffffffffffffffffffffffffffffffff"),
            Some(TraceId(u128::MAX))
        );
    }

    #[test]
    fn parse_rejects_invalid_input() {
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("xyz"), None);
        assert_eq!(TraceId::parse("12 34"), None);
        assert_eq!(TraceId::parse("-1"), None);
        assert_eq!(TraceId::parse(&"f".repeat(33)), None);
    }

    #[test]
    fn concurrent_mints_do_not_collide() {
        let ids: Vec<TraceId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..256).map(|_| TraceId::mint()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("mint thread"))
                .collect()
        });
        let mut seen = std::collections::HashSet::new();
        for id in &ids {
            assert!(seen.insert(*id), "duplicate trace id {id}");
        }
    }
}
