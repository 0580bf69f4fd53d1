//! Benchmark-owned spans around the calls into each layer.
//!
//! The engine is not instrumented by this file: a span opens before a
//! call into a layer's public function and closes after it. Spans stay
//! in memory during the run and are written once, at exit, as Chrome
//! trace-event JSON. A layer's self time is its span minus the part of
//! that interval its children cover; the trace file carries it per span.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder. Disabled tracers run the closure and
/// record nothing, so the untraced run pays one branch per call.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// All tracers of one run share `origin`, so their spans line up on
    /// one time axis when merged.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under whatever span
    /// is open on this tracer. Returns `f`'s result and the span's
    /// duration in nanoseconds (measured even when disabled, so callers
    /// time an operation and trace it with one call).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request_id: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed().as_nanos() as u64);
        }
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let dur = start.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = start_ns + dur;
        (out, dur)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(threads: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(threads.iter().map(Vec::len).sum());
    for spans in threads {
        let base = out.len();
        out.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, clipped to the span. Children may
/// overlap each other (concurrent work); overlap is counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name roll-up of a span list.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    /// Every span's duration in nanoseconds, in recording order.
    pub durations: Vec<f64>,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.durations.push(s.dur_ns() as f64);
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the first
/// `limit` spans (parents precede their children, so a prefix is
/// self-contained): one complete (`"ph": "X"`) event per span, timestamps
/// in microseconds, the request id as the thread id so one request reads
/// as one row, and each span's self time — over all its children, written
/// or not — in `args.self_us`.
pub fn chrome_trace(spans: &[Span], limit: usize) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).take(limit).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"id\": {}, \"parent\": {}, \"self_us\": {:.3}}}}}",
            s.name,
            s.request_id,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            i,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            self_ns as f64 / 1e3,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            // Two overlapping children cover [10, 50) once, not twice.
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),
            // A disjoint child.
            span(60, 70, Some(0)),
            // A grandchild shortens its parent, not the root again.
            span(62, 66, Some(3)),
            // A child nested inside a sibling's interval adds nothing.
            span(12, 20, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30, 20, 6, 4, 8]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(10, 20, None),
            span(5, 15, Some(0)),
            span(18, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10 - 5 - 2);
    }

    #[test]
    fn tracer_nests_and_times() {
        let mut t = Tracer::new(Instant::now(), true);
        let (v, _) = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| 1).0 + t.span("inner", 7, |_| 2).0
        });
        assert_eq!(v, 3);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(by_name(&spans)["inner"].count, 2);
        assert_eq!(
            self_times(&spans)[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(Instant::now(), false);
        let (v, _) = t.span("x", 0, |_| 5);
        assert_eq!(v, 5);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents_and_trace_json_is_loadable() {
        let a = vec![span(0, 10, None), span(1, 2, Some(0))];
        let b = vec![span(0, 10, None), span(3, 4, Some(0))];
        let merged = merge(vec![a, b]);
        assert_eq!(merged[3].parent, Some(2));
        let json = chrome_trace(&merged, 3);
        let doc = kdap_core::api::json::parse(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 3, "the first three of four spans");
        assert_eq!(events[1].get("ph").and_then(|p| p.as_str()), Some("X"));
        // The root of thread b keeps its self time though its child is cut off.
        let self_us = |i: usize| {
            let args = events[i].get("args").unwrap();
            args.get("self_us").and_then(|v| v.as_num())
        };
        assert_eq!(self_us(0), Some(0.009));
        assert_eq!(self_us(2), Some(0.009));
    }
}
