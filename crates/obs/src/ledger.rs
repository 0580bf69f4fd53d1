//! The slow-query ledger: a fixed-capacity concurrent buffer retaining
//! the most *interesting* completed queries — governor breaches first,
//! then the slowest — each with its full profile, so an operator can ask
//! "what has been hurting lately" without having logged everything.
//!
//! Admission keeps a lock-free fast path: once the ledger is full, a
//! non-breached query cheaper than the current admission floor is
//! rejected on a single atomic load, before any lock or clone. The
//! server gives every tenant one ledger and serves it at
//! `GET /v1/{tenant}/slow`; the CLI's `kdap slow` drives one directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{JsonWriter, Layout};
use crate::profile::QueryProfile;

/// One completed query retained by the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// The request's trace id, when it ran under one.
    pub trace_id: Option<String>,
    /// The verb executed (`explore`, `differentiate`, …).
    pub verb: String,
    /// The keyword query text.
    pub keywords: String,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: u64,
    /// HTTP-style status of the outcome (200, 408, 507, …).
    pub status: u16,
    /// The governor breach that ended the query, if one did
    /// (`"timeout"`, `"budget"`, `"cancelled"`).
    pub breach: Option<String>,
    /// The query's profile tree, when profiling was active.
    pub profile: Option<QueryProfile>,
}

/// A stored entry plus its bookkeeping: wall-clock admission time and a
/// monotonically increasing sequence for recency tie-breaks.
#[derive(Debug, Clone)]
struct Stored {
    entry: LedgerEntry,
    ts_ms: u64,
    seq: u64,
}

impl Stored {
    fn write_json(&self, w: &mut JsonWriter) {
        let e = &self.entry;
        w.object(Layout::Block, |w| {
            w.key("ts_ms").int(self.ts_ms);
            if let Some(id) = &e.trace_id {
                w.key("trace_id").str(id);
            }
            w.key("verb").str(&e.verb);
            w.key("keywords").str(&e.keywords);
            w.key("latency_ns").int(e.latency_ns);
            w.key("status").int(e.status);
            if let Some(b) = &e.breach {
                w.key("breach").str(b);
            }
            if let Some(p) = &e.profile {
                w.key("profile");
                p.write_json(w);
            }
        });
    }

    /// Interest key, ascending: the minimum is the eviction victim.
    /// Breaches beat plain slowness. Within the breached class the most
    /// recent wins (the ledger keeps the *latest* breaches); within the
    /// plain class the slowest wins, ties to the more recent.
    fn key(&self) -> (bool, u64, u64) {
        match self.entry.breach {
            Some(_) => (true, self.seq, self.seq),
            None => (false, self.entry.latency_ns, self.seq),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    entries: Vec<Stored>,
    seq: u64,
}

/// Fixed-capacity concurrent buffer of the most interesting queries.
#[derive(Debug)]
pub struct SlowQueryLedger {
    capacity: usize,
    /// Admission floor: once full, a non-breached query strictly slower
    /// than this may be admitted; anything cheaper is rejected without
    /// taking the lock. `u64::MAX` when every retained entry is a
    /// breach.
    floor: AtomicU64,
    inner: Mutex<Inner>,
}

fn lock(m: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl SlowQueryLedger {
    /// A ledger retaining at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        SlowQueryLedger {
            capacity: capacity.max(1),
            floor: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of retained entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cheap admission pre-check: whether a *non-breached* query at this
    /// latency could currently be retained — one atomic load, no lock.
    /// Hot paths call this before building a [`LedgerEntry`] so rejected
    /// queries never pay the entry's string clones. Breached queries
    /// always contend and need no pre-check.
    pub fn admits(&self, latency_ns: u64) -> bool {
        let floor = self.floor.load(Ordering::Relaxed);
        floor != u64::MAX && (floor == 0 || latency_ns >= floor)
    }

    /// Offers a completed query. Returns `true` when the entry was
    /// retained. Breached entries always contend; non-breached entries
    /// are dropped on the fast path once the ledger is full and they
    /// are cheaper than the admission floor.
    pub fn record(&self, entry: LedgerEntry) -> bool {
        if entry.breach.is_none() && !self.admits(entry.latency_ns) {
            return false;
        }
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut inner = lock(&self.inner);
        inner.seq += 1;
        let stored = Stored {
            entry,
            ts_ms,
            seq: inner.seq,
        };
        let incoming_key = stored.key();
        inner.entries.push(stored);
        let mut admitted = true;
        if inner.entries.len() > self.capacity {
            let victim = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.key())
                .map(|(i, s)| (i, s.key()))
                .unwrap_or((0, (false, 0, 0)));
            admitted = victim.1 != incoming_key;
            inner.entries.swap_remove(victim.0);
        }
        // Refresh the admission floor for the fast path.
        let floor = if inner.entries.len() < self.capacity {
            0
        } else {
            inner
                .entries
                .iter()
                .filter(|s| s.entry.breach.is_none())
                .map(|s| s.entry.latency_ns)
                .min()
                .unwrap_or(u64::MAX)
        };
        self.floor.store(floor, Ordering::Relaxed);
        admitted
    }

    /// The retained entries, most interesting first (breaches before
    /// plain slow queries; breaches newest-first, plain queries
    /// slowest-first).
    pub fn snapshot(&self) -> Vec<LedgerEntry> {
        let mut stored = lock(&self.inner).entries.clone();
        stored.sort_by_key(|s| std::cmp::Reverse(s.key()));
        stored.into_iter().map(|s| s.entry).collect()
    }

    /// Drops every retained entry.
    pub fn clear(&self) {
        let mut inner = lock(&self.inner);
        inner.entries.clear();
        self.floor.store(0, Ordering::Relaxed);
    }

    /// The ledger as a JSON document:
    /// `{"capacity": N, "entries": [ … ]}` with entries in snapshot
    /// order, each carrying its admission timestamp.
    pub fn to_json(&self) -> String {
        let mut stored = lock(&self.inner).entries.clone();
        stored.sort_by_key(|s| std::cmp::Reverse(s.key()));
        let mut out = String::new();
        JsonWriter::new(&mut out).object(Layout::Block, |w| {
            w.key("capacity").int(self.capacity);
            w.key("entries").array(Layout::Block, |w| {
                for s in &stored {
                    s.write_json(w);
                }
            });
        });
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(latency_ns: u64, breach: Option<&str>) -> LedgerEntry {
        LedgerEntry {
            trace_id: Some(format!("{latency_ns:x}")),
            verb: "explore".into(),
            keywords: "columbus lcd".into(),
            latency_ns,
            status: if breach.is_some() { 408 } else { 200 },
            breach: breach.map(String::from),
            profile: None,
        }
    }

    #[test]
    fn retains_the_slowest_when_full() {
        let ledger = SlowQueryLedger::new(3);
        for lat in [10, 50, 30, 5, 100, 40] {
            ledger.record(entry(lat, None));
        }
        let latencies: Vec<u64> = ledger.snapshot().iter().map(|e| e.latency_ns).collect();
        assert_eq!(latencies, vec![100, 50, 40]);
    }

    #[test]
    fn breaches_outrank_slow_queries() {
        let ledger = SlowQueryLedger::new(2);
        ledger.record(entry(1_000_000, None));
        ledger.record(entry(900_000, None));
        assert!(ledger.record(entry(5, Some("timeout"))));
        let snap = ledger.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].breach.as_deref(), Some("timeout"));
        assert_eq!(snap[1].latency_ns, 1_000_000);
    }

    #[test]
    fn admits_mirrors_the_record_fast_path() {
        let ledger = SlowQueryLedger::new(2);
        // Not yet full: everything is admissible.
        assert!(ledger.admits(0));
        ledger.record(entry(100, None));
        ledger.record(entry(200, None));
        // Full: the floor is the cheapest retained latency.
        assert!(!ledger.admits(50));
        assert!(ledger.admits(100));
        // All-breach ledger admits no plain query.
        let breached = SlowQueryLedger::new(1);
        breached.record(entry(10, Some("timeout")));
        assert!(!breached.admits(u64::MAX));
    }

    #[test]
    fn fast_path_rejects_cheap_queries_when_full() {
        let ledger = SlowQueryLedger::new(2);
        ledger.record(entry(100, None));
        ledger.record(entry(200, None));
        assert!(!ledger.record(entry(50, None)));
        assert_eq!(ledger.len(), 2);
        // A breach-free ledger full of breaches admits no plain query.
        let breached = SlowQueryLedger::new(1);
        breached.record(entry(10, Some("budget")));
        assert!(!breached.record(entry(u64::MAX, None)));
        assert!(breached.record(entry(1, Some("timeout"))));
    }

    #[test]
    fn snapshot_orders_most_interesting_first() {
        let ledger = SlowQueryLedger::new(4);
        ledger.record(entry(10, None));
        ledger.record(entry(99, Some("timeout")));
        ledger.record(entry(70, None));
        ledger.record(entry(3, Some("budget")));
        let snap = ledger.snapshot();
        assert!(snap[0].breach.is_some() && snap[1].breach.is_some());
        // Breaches newest-first: the budget breach came after the
        // timeout; plain queries follow, slowest first.
        assert_eq!(snap[0].latency_ns, 3);
        assert_eq!(snap[1].latency_ns, 99);
        assert_eq!(snap[2].latency_ns, 70);
        assert_eq!(snap[3].latency_ns, 10);
    }

    #[test]
    fn json_has_entries_with_trace_ids_and_balanced_braces() {
        let ledger = SlowQueryLedger::new(2);
        let mut e = entry(500, Some("timeout"));
        e.profile = Some(QueryProfile::empty("columbus lcd"));
        ledger.record(e);
        let out = ledger.to_json();
        assert!(out.contains("\"capacity\": 2"), "{out}");
        assert!(out.contains("\"trace_id\": \"1f4\""), "{out}");
        assert!(out.contains("\"breach\": \"timeout\""), "{out}");
        assert!(out.contains("\"profile\": {"), "{out}");
        assert!(out.contains("\"ts_ms\": "), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count(), "{out}");
        // Empty ledger renders a well-formed empty list.
        let empty = SlowQueryLedger::new(1).to_json();
        assert!(empty.contains("\"entries\": []"), "{empty}");
    }

    #[test]
    fn concurrent_records_keep_capacity_and_sanity() {
        let ledger = SlowQueryLedger::new(8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ledger = &ledger;
                s.spawn(move || {
                    for i in 0..256u64 {
                        let lat = (t * 1_000 + i) % 777;
                        let breach = (i % 64 == 0).then_some("timeout");
                        ledger.record(entry(lat, breach));
                    }
                });
            }
        });
        let snap = ledger.snapshot();
        assert!(snap.len() <= 8);
        assert!(!snap.is_empty());
        // Breaches occurred often enough that the ledger retains some.
        assert!(snap.iter().any(|e| e.breach.is_some()));
    }

    #[test]
    fn clear_resets_admission() {
        let ledger = SlowQueryLedger::new(1);
        ledger.record(entry(1_000, None));
        assert!(!ledger.record(entry(5, None)));
        ledger.clear();
        assert!(ledger.is_empty());
        assert!(ledger.record(entry(5, None)));
    }
}
