//! Per-query profiles: a tree of pipeline stages, each carrying wall
//! time, rows in/out, cache outcome, and free-form notes.
//!
//! The tree is built by the recorder's span stack (see
//! [`crate::recorder`]) and returned to callers as an immutable
//! [`QueryProfile`]. Its *structure* — node names, nesting, order — is a
//! pure function of the query and data, never of thread scheduling:
//! parallel workers report durations to the coordinating thread, which
//! records them as leaves in deterministic (chunk/step) order.

use crate::json::{JsonWriter, Layout};

/// Cache outcome of one profiled stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a cache.
    Hit,
    /// Computed and (possibly) inserted.
    Miss,
}

impl CacheOutcome {
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// One stage in a query profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Stage name, e.g. `"semijoin"` or `"explore.scan_a"`.
    pub name: String,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// Rows entering the stage, when meaningful.
    pub rows_in: Option<u64>,
    /// Rows leaving the stage, when meaningful.
    pub rows_out: Option<u64>,
    /// Cache outcome, when the stage consulted a cache.
    pub cache: Option<CacheOutcome>,
    /// Free-form `key=value` annotations, in insertion order.
    pub notes: Vec<(String, String)>,
    /// Child stages, in execution order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// A node with just a name; everything else defaults to empty.
    pub fn new(name: impl Into<String>) -> Self {
        ProfileNode {
            name: name.into(),
            wall_ns: 0,
            rows_in: None,
            rows_out: None,
            cache: None,
            notes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Total number of nodes in this subtree, including `self`.
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(ProfileNode::len).sum::<usize>()
    }

    /// Always false — a node is at least itself.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn annotations(&self) -> String {
        let mut parts = Vec::new();
        if let Some(r) = self.rows_in {
            parts.push(format!("in={r}"));
        }
        if let Some(r) = self.rows_out {
            parts.push(format!("out={r}"));
        }
        if let Some(c) = self.cache {
            parts.push(format!("cache={}", c.as_str()));
        }
        for (k, v) in &self.notes {
            parts.push(format!("{k}={v}"));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("  [{}]", parts.join(" "))
        }
    }

    fn render_into(&self, out: &mut String, depth: usize, total_ns: u64) {
        let pct = if total_ns == 0 {
            0.0
        } else {
            self.wall_ns as f64 * 100.0 / total_ns as f64
        };
        out.push_str(&format!(
            "{:indent$}{:<w$} {:>10} {:>6.1}%{}\n",
            "",
            self.name,
            fmt_ns(self.wall_ns),
            pct,
            self.annotations(),
            indent = depth * 2,
            w = 28usize.saturating_sub(depth * 2),
        ));
        for c in &self.children {
            c.render_into(out, depth + 1, total_ns);
        }
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.object(Layout::Block, |w| {
            w.key("name").str(&self.name);
            w.key("wall_ns").int(self.wall_ns);
            if let Some(r) = self.rows_in {
                w.key("rows_in").int(r);
            }
            if let Some(r) = self.rows_out {
                w.key("rows_out").int(r);
            }
            if let Some(c) = self.cache {
                w.key("cache").str(c.as_str());
            }
            if !self.notes.is_empty() {
                w.key("notes").object(Layout::Inline, |w| {
                    for (k, v) in &self.notes {
                        w.key(k).str(v);
                    }
                });
            }
            if !self.children.is_empty() {
                w.key("children").array(Layout::Block, |w| {
                    for c in &self.children {
                        c.write_json(w);
                    }
                });
            }
        });
    }

    /// Depth-first `name` sequence of the subtree — the profile's
    /// *structure*, independent of timings. Equal structures across
    /// thread counts is the determinism property tests assert.
    pub fn stage_names(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.len());
        self.collect_names(&mut out, 0);
        out
    }

    fn collect_names(&self, out: &mut Vec<String>, depth: usize) {
        out.push(format!("{}{}", "  ".repeat(depth), self.name));
        for c in &self.children {
            c.collect_names(out, depth + 1);
        }
    }
}

/// A completed per-query profile: a label (usually the query text) plus
/// the root stages in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// What was profiled, e.g. the query string.
    pub label: String,
    /// The request's trace id (32-or-fewer hex digits), when the query
    /// ran under one — stamped by the server/CLI edge, never minted
    /// here.
    pub trace_id: Option<String>,
    /// Top-level stages in execution order.
    pub roots: Vec<ProfileNode>,
}

impl QueryProfile {
    /// An empty profile with the given label — what a disabled recorder
    /// "produces".
    pub fn empty(label: impl Into<String>) -> Self {
        QueryProfile {
            label: label.into(),
            trace_id: None,
            roots: Vec::new(),
        }
    }

    /// Total wall time across root stages, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|n| n.wall_ns).sum()
    }

    /// Total number of stages in the tree.
    pub fn len(&self) -> usize {
        self.roots.iter().map(ProfileNode::len).sum()
    }

    /// True when no stage was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Depth-first stage-name listing (indented), spanning all roots.
    pub fn stage_names(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.len());
        for r in &self.roots {
            r.collect_names(&mut out, 0);
        }
        out
    }

    /// Human-readable timing tree: one line per stage with duration,
    /// share of total, and annotations.
    pub fn render(&self) -> String {
        let total = self.total_ns();
        let mut out = format!("profile: {}  (total {})\n", self.label, fmt_ns(total));
        for r in &self.roots {
            r.render_into(&mut out, 0, total);
        }
        out
    }

    /// Writes the profile as a JSON object — a document of its own, or a
    /// member of the response or ledger entry `w` is forming.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(Layout::Block, |w| {
            w.key("label").str(&self.label);
            if let Some(id) = &self.trace_id {
                w.key("trace_id").str(id);
            }
            w.key("total_ns").int(self.total_ns());
            w.key("stages").array(Layout::Block, |w| {
                for r in &self.roots {
                    r.write_json(w);
                }
            });
        });
    }
}

/// Formats nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryProfile {
        let mut root = ProfileNode::new("differentiate");
        root.wall_ns = 3_000;
        let mut child = ProfileNode::new("textindex.search");
        child.wall_ns = 1_000;
        child.rows_out = Some(12);
        child.notes.push(("terms".into(), "2".into()));
        root.children.push(child);
        let mut explore = ProfileNode::new("explore");
        explore.wall_ns = 7_000;
        explore.cache = Some(CacheOutcome::Hit);
        QueryProfile {
            label: "columbus lcd".into(),
            trace_id: None,
            roots: vec![root, explore],
        }
    }

    #[test]
    fn totals_and_structure() {
        let p = sample();
        assert_eq!(p.total_ns(), 10_000);
        assert_eq!(p.len(), 3);
        assert_eq!(
            p.stage_names(),
            vec!["differentiate", "  textindex.search", "explore"]
        );
    }

    #[test]
    fn render_contains_stages_and_annotations() {
        let r = sample().render();
        assert!(r.contains("differentiate"));
        assert!(r.contains("textindex.search"));
        assert!(r.contains("out=12"));
        assert!(r.contains("terms=2"));
        assert!(r.contains("cache=hit"));
        assert!(r.contains("total 10.0 µs"));
    }

    fn to_json(p: &QueryProfile) -> String {
        let mut out = String::new();
        p.write_json(&mut JsonWriter::new(&mut out));
        out
    }

    #[test]
    fn json_roundtrip_shape() {
        let j = to_json(&sample());
        assert!(j.contains("\"label\": \"columbus lcd\""));
        assert!(j.contains("\"total_ns\": 10000"));
        assert!(j.contains("\"name\": \"textindex.search\""));
        assert!(j.contains("\"rows_out\": 12"));
        assert!(j.contains("\"cache\": \"hit\""));
        assert!(j.contains("\"notes\": {\"terms\": \"2\"}"));
    }

    #[test]
    fn json_carries_trace_id_when_present() {
        let mut p = sample();
        assert!(!to_json(&p).contains("trace_id"));
        p.trace_id = Some("deadbeef".into());
        assert!(to_json(&p).contains("\"trace_id\": \"deadbeef\""));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.5 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.200 s");
    }
}
