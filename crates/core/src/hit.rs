//! Hit sets and hit groups (paper §4.2).
//!
//! For each keyword `kᵢ` the system probes the full-text index to obtain
//! the *hit set* `Hᵢ`; each hit is an attribute instance `(table, attr,
//! value)` with a relevance score. Hits from the same attribute domain
//! form a *hit group* `HGᵢᵏ` — the unit from which star seeds are drawn.

use std::collections::BTreeMap;
use std::sync::Arc;

use kdap_obs::{LeafData, Obs};
use kdap_textindex::{SearchOptions, TextIndex};
use kdap_warehouse::ColRef;

/// One matched attribute instance.
#[derive(Debug, Clone)]
pub struct Hit {
    /// Dictionary code of the instance within its column.
    pub code: u32,
    /// The instance's text.
    pub value: Arc<str>,
    /// `Sim(h.val, q)` from the text engine, in `(0, 1]`.
    pub score: f64,
}

/// All hits of one keyword drawn from one attribute domain.
#[derive(Debug, Clone)]
pub struct HitGroup {
    /// The attribute domain `(R, Attr)`.
    pub attr: ColRef,
    /// Matched instances, sorted by descending score.
    pub hits: Vec<Hit>,
    /// Indices of the query keywords this group covers. A freshly built
    /// group covers exactly one keyword; phrase merging (§4.3) produces
    /// groups covering several.
    pub keywords: Vec<usize>,
    /// Numeric-range semantics (paper §7 future work: measure/numeric
    /// attributes as hit candidates). When set, the group selects rows
    /// whose numeric attribute value lies in `[lo, hi]` and `hits`
    /// carries a single display entry.
    pub numeric: Option<(f64, f64)>,
}

impl HitGroup {
    /// Sum of hit scores (the numerator of the per-group ranking term).
    pub fn score_sum(&self) -> f64 {
        self.hits.iter().map(|h| h.score).sum()
    }

    /// Number of hits `|HG|`.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// True when the group has no hits.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// The dictionary codes of all hits.
    pub fn codes(&self) -> Vec<u32> {
        self.hits.iter().map(|h| h.code).collect()
    }
}

/// The hit set of one keyword: its hit groups, one per matched attribute
/// domain.
#[derive(Debug, Clone)]
pub struct HitSet {
    /// The keyword this hit set belongs to.
    pub keyword: String,
    /// One group per matched attribute domain.
    pub groups: Vec<HitGroup>,
}

/// Limits applied while building hit sets.
#[derive(Debug, Clone)]
pub struct HitConfig {
    /// Text-engine options (stemming is always on; prefix matching and its
    /// penalty are configured here).
    pub search: SearchOptions,
    /// Hits scoring below this are dropped.
    pub min_score: f64,
    /// At most this many hits are kept per keyword (strongest first).
    pub max_hits_per_keyword: usize,
}

impl Default for HitConfig {
    fn default() -> Self {
        HitConfig {
            search: SearchOptions::default(),
            min_score: 0.05,
            max_hits_per_keyword: 2000,
        }
    }
}

/// Probes the index for every keyword and organizes hits into hit groups
/// (Algorithm 1, lines 2–4). Each search is timed and counted on `obs`,
/// and is a `textindex.search` leaf of its profile.
pub fn build_hit_sets(
    index: &TextIndex,
    keywords: &[&str],
    cfg: &HitConfig,
    obs: &Obs,
) -> Vec<HitSet> {
    keywords
        .iter()
        .enumerate()
        .map(|(ki, kw)| {
            let t = obs.timer();
            let hits = index.search_keyword(kw, &cfg.search);
            let ns = t.stop();
            if obs.is_enabled() {
                obs.record_ns("textindex.search_ns", ns);
                obs.inc("textindex.searches", 1);
            }
            if obs.is_profiling() {
                obs.leaf(
                    "textindex.search",
                    LeafData {
                        wall_ns: ns,
                        rows_out: Some(hits.len() as u64),
                        notes: vec![("keyword".into(), (*kw).to_string())],
                        ..LeafData::default()
                    },
                );
            }
            let mut by_attr: BTreeMap<ColRef, Vec<Hit>> = BTreeMap::new();
            for sh in hits
                .iter()
                .filter(|h| h.score >= cfg.min_score)
                .take(cfg.max_hits_per_keyword)
            {
                let meta = index.doc(sh.doc);
                by_attr.entry(meta.attr).or_default().push(Hit {
                    code: meta.code,
                    value: meta.text.clone(),
                    score: sh.score,
                });
            }
            let groups = by_attr
                .into_iter()
                .map(|(attr, hits)| HitGroup {
                    attr,
                    hits,
                    keywords: vec![ki],
                    numeric: None,
                })
                .collect();
            HitSet {
                keyword: (*kw).to_string(),
                groups,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdap_warehouse::TableId;

    fn attr(t: u32, c: u32) -> ColRef {
        ColRef::new(TableId(t), c)
    }

    fn index() -> TextIndex {
        TextIndex::from_documents(vec![
            (attr(0, 0), 0, Arc::from("Columbus")),
            (attr(1, 0), 0, Arc::from("Columbus Day")),
            (attr(2, 0), 0, Arc::from("LCD Projectors")),
            (attr(2, 0), 1, Arc::from("Flat Panel(LCD)")),
            (attr(3, 0), 0, Arc::from("LCD TVs")),
        ])
    }

    #[test]
    fn hits_grouped_by_attribute_domain() {
        let sets = build_hit_sets(
            &index(),
            &["columbus", "lcd"],
            &HitConfig::default(),
            &Obs::disabled(),
        );
        assert_eq!(sets.len(), 2);
        // "columbus" hits the city attr and the holiday attr → 2 groups.
        assert_eq!(sets[0].groups.len(), 2);
        // "lcd" hits two instances of attr(2,0) (one group) + attr(3,0).
        assert_eq!(sets[1].groups.len(), 2);
        let lcd_group = sets[1]
            .groups
            .iter()
            .find(|g| g.attr == attr(2, 0))
            .unwrap();
        assert_eq!(lcd_group.len(), 2);
        assert_eq!(lcd_group.keywords, vec![1]);
    }

    #[test]
    fn min_score_filters_weak_hits() {
        let cfg = HitConfig {
            min_score: 0.99,
            ..HitConfig::default()
        };
        let sets = build_hit_sets(&index(), &["lcd"], &cfg, &Obs::disabled());
        // No exact single-token "LCD" document exists, so every hit is
        // below 0.99 and gets filtered.
        assert!(sets[0].groups.is_empty());
    }

    #[test]
    fn max_hits_caps_group_sizes() {
        let cfg = HitConfig {
            max_hits_per_keyword: 1,
            ..HitConfig::default()
        };
        let sets = build_hit_sets(&index(), &["lcd"], &cfg, &Obs::disabled());
        let total: usize = sets[0].groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn unknown_keyword_gives_empty_hit_set() {
        let sets = build_hit_sets(&index(), &["zzz"], &HitConfig::default(), &Obs::disabled());
        assert_eq!(sets.len(), 1);
        assert!(sets[0].groups.is_empty());
    }

    #[test]
    fn group_score_sum_and_codes() {
        let g = HitGroup {
            attr: attr(0, 0),
            hits: vec![
                Hit {
                    code: 3,
                    value: Arc::from("a"),
                    score: 0.5,
                },
                Hit {
                    code: 7,
                    value: Arc::from("b"),
                    score: 0.25,
                },
            ],
            keywords: vec![0],
            numeric: None,
        };
        assert_eq!(g.score_sum(), 0.75);
        assert_eq!(g.codes(), vec![3, 7]);
        assert_eq!(g.len(), 2);
    }
}
