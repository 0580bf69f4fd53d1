//! The recorder: an [`Obs`] handle that shares one session's metrics,
//! a per-request span stack that builds a [`QueryProfile`] tree, and
//! timers that cost nothing when observability is off.
//!
//! # A profile belongs to its request
//!
//! A session holds one handle: its metrics, no span stack. A `profile`
//! request derives its own handle with [`Obs::profiled`], which shares
//! those metrics and owns a fresh span stack, and passes it down with
//! the request; an `explain` request does the same with
//! [`Obs::recording`], which owns a span stack even when the session
//! observes nothing. Spans and leaves land in the stack of the handle they
//! are recorded on, so requests running beside each other on one
//! session never write into each other's profiles.
//!
//! # Zero cost when disabled
//!
//! The disabled handle holds neither metrics nor a span stack; every
//! operation checks its `Option` first and returns immediately — no
//! clock read, no allocation, no lock. [`Obs::timer`] on a disabled
//! handle skips `Instant::now()` entirely and reports 0 ns. A handle
//! without a span stack opens inert spans after one `Option` check.
//!
//! # Deterministic profile structure
//!
//! Only the coordinating thread opens spans. Parallel workers measure
//! raw durations and hand them back; the coordinator records them as
//! completed leaves (via [`Obs::leaf`]) in chunk/step order. The shape of
//! the profile tree is therefore a pure function of the query and data —
//! identical for any thread count — which the equivalence tests assert.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{Counter, Histogram, Metrics, MetricsSnapshot};
use crate::profile::{CacheOutcome, ProfileNode, QueryProfile};

/// Data of one completed leaf stage, recorded post-hoc by the
/// coordinating thread (typically a per-chunk or per-step measurement
/// taken on a worker).
#[derive(Debug, Clone, Default)]
pub struct LeafData {
    /// Wall-clock nanoseconds the stage took.
    pub wall_ns: u64,
    /// Rows entering the stage.
    pub rows_in: Option<u64>,
    /// Rows leaving the stage.
    pub rows_out: Option<u64>,
    /// Cache outcome, if a cache was consulted.
    pub cache: Option<CacheOutcome>,
    /// Free-form `key=value` annotations.
    pub notes: Vec<(String, String)>,
}

/// One request's span stack: an arena of nodes plus the stack of
/// currently-open span indices.
#[derive(Debug, Default)]
struct ProfileState {
    label: String,
    nodes: Vec<ProfileNode>,
    /// Children of `nodes[i]`, as arena indices.
    children: Vec<Vec<usize>>,
    /// Arena indices of roots, in open order.
    roots: Vec<usize>,
    /// Open spans, outermost first.
    stack: Vec<usize>,
}

impl ProfileState {
    fn push_node(&mut self, node: ProfileNode) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(node);
        self.children.push(Vec::new());
        match self.stack.last() {
            Some(&parent) => self.children[parent].push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    fn assemble(&mut self) -> QueryProfile {
        fn build(state: &ProfileState, idx: usize) -> ProfileNode {
            let mut n = state.nodes[idx].clone();
            n.children = state.children[idx]
                .iter()
                .map(|&c| build(state, c))
                .collect();
            n
        }
        let roots = self.roots.iter().map(|&r| build(self, r)).collect();
        let label = std::mem::take(&mut self.label);
        *self = ProfileState::default();
        QueryProfile {
            label,
            trace_id: None,
            roots,
        }
    }
}

type SharedProfile = Arc<Mutex<ProfileState>>;

fn lock(m: &Mutex<ProfileState>) -> std::sync::MutexGuard<'_, ProfileState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The observability handle threaded through the engine. Cheap to clone
/// (two `Option<Arc>`s); the [`Obs::disabled`] handle makes every
/// operation a no-op after a single branch. Clones share the metrics and
/// the span stack, if any.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    metrics: Option<Arc<Metrics>>,
    profile: Option<SharedProfile>,
}

impl Obs {
    /// The no-op handle: every operation returns immediately.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// A live handle backed by a fresh metrics registry, without a span
    /// stack: it counts and times, and its spans are inert.
    pub fn enabled() -> Self {
        Obs {
            metrics: Some(Arc::new(Metrics::default())),
            profile: None,
        }
    }

    /// A handle for one profiled request: it shares this handle's
    /// metrics and owns a fresh span stack labelled `label`, which
    /// [`Obs::take_profile`] assembles. A disabled handle stays disabled.
    pub fn profiled(&self, label: &str) -> Self {
        match self.metrics {
            Some(_) => self.recording(label),
            None => Obs::disabled(),
        }
    }

    /// A handle that records one request's tree whether or not this
    /// handle observes: it shares this handle's metrics, if any, and owns
    /// a fresh span stack labelled `label`. Without metrics its timers
    /// read no clock, so its leaves carry 0 ns.
    pub fn recording(&self, label: &str) -> Self {
        Obs {
            metrics: self.metrics.clone(),
            profile: Some(Arc::new(Mutex::new(ProfileState {
                label: label.to_string(),
                ..ProfileState::default()
            }))),
        }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Assembles this handle's profile and empties its span stack.
    /// `None` when the handle carries no profile.
    pub fn take_profile(&self) -> Option<QueryProfile> {
        Some(lock(self.profile.as_ref()?).assemble())
    }

    /// True when this handle carries a profile — the cheap pre-check hot
    /// paths use to skip building span/leaf data that would be discarded
    /// anyway. Only [`Obs::recording`] makes a handle without metrics
    /// profile.
    pub fn is_profiling(&self) -> bool {
        self.profile.is_some()
    }

    /// Opens a span named `name` on the coordinating thread. Returns a
    /// guard that closes the span (recording its wall time) on drop.
    /// Handles without a profile return an inert guard.
    pub fn span(&self, name: &str) -> Span {
        let Some(profile) = &self.profile else {
            return Span {
                profile: None,
                idx: 0,
                start: None,
            };
        };
        let mut st = lock(profile);
        let idx = st.push_node(ProfileNode::new(name));
        st.stack.push(idx);
        Span {
            profile: Some(profile.clone()),
            idx,
            start: Some(Instant::now()),
        }
    }

    /// Records a completed leaf stage under the currently-open span.
    /// This is how parallel work enters the profile: workers measure,
    /// the coordinator calls `leaf` in deterministic order. No-op on
    /// handles without a profile.
    pub fn leaf(&self, name: &str, data: LeafData) {
        if let Some(profile) = &self.profile {
            let mut node = ProfileNode::new(name);
            node.wall_ns = data.wall_ns;
            node.rows_in = data.rows_in;
            node.rows_out = data.rows_out;
            node.cache = data.cache;
            node.notes = data.notes;
            lock(profile).push_node(node);
        }
    }

    /// Starts a timer. Disabled handles skip the clock read and report
    /// 0 ns — the property the overhead bench measures.
    pub fn timer(&self) -> Timer {
        Timer(self.metrics.as_ref().map(|_| Instant::now()))
    }

    /// Adds `n` to the counter named `name`. No-op when disabled.
    pub fn inc(&self, name: &str, n: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.counter(name).add(n);
        }
    }

    /// Records a sample into the histogram named `name`. No-op when
    /// disabled.
    pub fn record_ns(&self, name: &str, ns: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.histogram(name).record(ns);
        }
    }

    /// Sets the gauge named `name`. No-op when disabled.
    pub fn gauge(&self, name: &str, v: i64) {
        if let Some(metrics) = &self.metrics {
            metrics.gauge(name).set(v);
        }
    }

    /// The counter handle, for hoisting out of hot loops. `None` when
    /// disabled.
    pub fn counter_handle(&self, name: &str) -> Option<Arc<Counter>> {
        self.metrics.as_ref().map(|m| m.counter(name))
    }

    /// The histogram handle, for hoisting out of hot loops. `None` when
    /// disabled.
    pub fn histogram_handle(&self, name: &str) -> Option<Arc<Histogram>> {
        self.metrics.as_ref().map(|m| m.histogram(name))
    }

    /// A snapshot of every metric. Empty when disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics
            .as_ref()
            .map(|m| m.snapshot())
            .unwrap_or_default()
    }

    /// Every histogram with its live handle, name-sorted — the raw
    /// log2 buckets the Prometheus exporter renders as native histogram
    /// series (snapshots only carry percentile summaries). Empty when
    /// disabled.
    pub fn histogram_entries(&self) -> Vec<(String, Arc<Histogram>)> {
        self.metrics
            .as_ref()
            .map(|m| m.histogram_entries())
            .unwrap_or_default()
    }
}

/// Guard of an open span; closes it on drop, recording wall time.
#[derive(Debug)]
pub struct Span {
    profile: Option<SharedProfile>,
    idx: usize,
    start: Option<Instant>,
}

impl Span {
    /// Applies `f` to the span's node. No-op on inert spans.
    fn with_node(&self, f: impl FnOnce(&mut ProfileNode)) {
        if let Some(profile) = &self.profile {
            if let Some(node) = lock(profile).nodes.get_mut(self.idx) {
                f(node);
            }
        }
    }

    /// Adds a `key=value` annotation to the span. No-op on inert spans.
    pub fn note(&self, key: &str, value: impl ToString) {
        self.with_node(|n| n.notes.push((key.to_string(), value.to_string())));
    }

    /// Sets the span's rows-in count.
    pub fn rows_in(&self, rows: u64) {
        self.with_node(|n| n.rows_in = Some(rows));
    }

    /// Sets the span's rows-out count.
    pub fn rows_out(&self, rows: u64) {
        self.with_node(|n| n.rows_out = Some(rows));
    }

    /// Sets the span's cache outcome.
    pub fn cache(&self, outcome: CacheOutcome) {
        self.with_node(|n| n.cache = Some(outcome));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(profile) = self.profile.take() {
            let ns = self
                .start
                .map(|t| t.elapsed().as_nanos() as u64)
                .unwrap_or(0);
            let mut st = lock(&profile);
            let idx = self.idx;
            if let Some(node) = st.nodes.get_mut(idx) {
                node.wall_ns = ns;
            }
            if st.stack.last() == Some(&idx) {
                st.stack.pop();
            }
        }
    }
}

/// A started (or inert) timer; [`Timer::stop`] returns elapsed
/// nanoseconds, 0 for inert timers.
#[derive(Debug, Clone, Copy)]
pub struct Timer(Option<Instant>);

impl Timer {
    /// Elapsed nanoseconds since the timer started; 0 when the handle
    /// was disabled.
    pub fn stop(&self) -> u64 {
        match self.0 {
            Some(t) => t.elapsed().as_nanos() as u64,
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled().profiled("q");
        assert!(!obs.is_enabled() && !obs.is_profiling());
        {
            let s = obs.span("stage");
            s.note("k", "v");
            s.rows_out(3);
        }
        obs.leaf("leaf", LeafData::default());
        obs.inc("c", 1);
        obs.record_ns("h", 5);
        assert_eq!(obs.timer().stop(), 0);
        assert!(obs.take_profile().is_none());
        assert!(obs.counter_handle("c").is_none());
        let snap = obs.metrics_snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn span_stack_builds_tree_in_order() {
        let obs = Obs::enabled().profiled("columbus lcd");
        {
            let outer = obs.span("differentiate");
            outer.rows_out(10);
            {
                let inner = obs.span("textindex.search");
                inner.note("terms", 2);
            }
            obs.leaf(
                "rank",
                LeafData {
                    rows_in: Some(10),
                    ..LeafData::default()
                },
            );
        }
        {
            let _e = obs.span("explore");
        }
        let p = obs.take_profile().expect("profiled handle");
        assert_eq!(p.label, "columbus lcd");
        assert_eq!(
            p.stage_names(),
            vec!["differentiate", "  textindex.search", "  rank", "explore"]
        );
        assert_eq!(p.roots[0].rows_out, Some(10));
        assert_eq!(
            p.roots[0].children[0].notes,
            vec![("terms".to_string(), "2".to_string())]
        );
        assert_eq!(p.roots[0].children[1].rows_in, Some(10));
        // Taking empties the stack.
        assert!(obs.take_profile().unwrap().is_empty());
    }

    #[test]
    fn only_a_profiled_handle_profiles() {
        let obs = Obs::enabled();
        assert!(!obs.is_profiling());
        assert!(obs.profiled("q").is_profiling());
        assert!(!obs.is_profiling());
        assert!(!Obs::disabled().is_profiling());
    }

    #[test]
    fn a_recording_handle_records_without_metrics() {
        let obs = Obs::disabled().recording("q");
        assert!(obs.is_profiling() && !obs.is_enabled());
        {
            let s = obs.span("explore");
            s.note("k", "v");
            obs.leaf("facet", LeafData::default());
        }
        assert_eq!(obs.timer().stop(), 0);
        let p = obs.take_profile().expect("a recording handle");
        assert_eq!(p.stage_names(), vec!["explore", "  facet"]);
        assert!(obs.metrics_snapshot().counters.is_empty());
        // On an observing handle it shares the metrics.
        let session = Obs::enabled();
        session.recording("q").inc("c", 1);
        assert_eq!(session.metrics_snapshot().counters["c"], 1);
    }

    #[test]
    fn spans_without_a_profile_are_inert() {
        let obs = Obs::enabled();
        {
            let s = obs.span("orphan");
            s.note("k", "v");
        }
        assert!(obs.take_profile().is_none());
        assert!(obs.profiled("q").take_profile().unwrap().is_empty());
    }

    #[test]
    fn metrics_flow_through_handle() {
        let obs = Obs::enabled();
        obs.inc("searches", 2);
        obs.record_ns("lat", 100);
        obs.record_ns("lat", 200);
        obs.gauge("cap", 64);
        let snap = obs.metrics_snapshot();
        assert_eq!(snap.counters["searches"], 2);
        assert_eq!(snap.gauges["cap"], 64);
        assert_eq!(snap.histograms["lat"].count, 2);
        let h = obs.histogram_handle("lat").unwrap();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn profiled_handles_share_metrics_and_keep_their_own_spans() {
        let obs = Obs::enabled();
        let (a, b) = (obs.profiled("a"), obs.profiled("b"));
        let _outer = a.span("differentiate");
        {
            let _s = b.span("explore");
            b.leaf("scan", LeafData::default());
        }
        a.inc("searches", 1);
        b.inc("searches", 1);
        obs.span("unprofiled").note("k", "v");
        assert_eq!(obs.metrics_snapshot().counters["searches"], 2);
        assert_eq!(
            b.take_profile().unwrap().stage_names(),
            vec!["explore", "  scan"]
        );
        drop(_outer);
        let p = a.take_profile().unwrap();
        assert_eq!(p.label, "a");
        assert_eq!(p.stage_names(), vec!["differentiate"]);
    }
}
