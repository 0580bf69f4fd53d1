//! Phrase-query handling (paper §4.3).
//!
//! Hit groups of *consecutive* keywords are merged when (a) they come from
//! the same attribute domain and (b) their intersection is non-empty
//! ("San" + "Jose" both hitting the City domain with "San Jose" in
//! common). The merged group is the intersection, and its hit scores are
//! refreshed by consulting the text engine again with the phrase query,
//! since the per-keyword scores are obsolete after the merge.

use std::collections::{BTreeSet, HashMap, HashSet};

use kdap_obs::Obs;
use kdap_textindex::TextIndex;

use crate::hit::{Hit, HitGroup, HitSet};

/// Produces the candidate-group pool used by star-seed enumeration: all
/// original single-keyword groups plus every mergeable phrase group over
/// consecutive keyword runs. Each phrase search is timed and counted on
/// `obs`.
pub fn merged_group_pool(index: &TextIndex, hit_sets: &[HitSet], obs: &Obs) -> Vec<HitGroup> {
    let mut pool: Vec<HitGroup> = hit_sets
        .iter()
        .flat_map(|hs| hs.groups.iter().cloned())
        .collect();

    // Try every run of consecutive keywords [i, j], longest runs included;
    // generalizes the pairwise merge to phrases of >2 keywords.
    let n = hit_sets.len();
    for i in 0..n {
        for j in (i + 1)..n {
            // Attribute domains present in every hit set of the run — an
            // ordered set: pool order is generation order, never a hash's.
            let mut common: Option<BTreeSet<_>> = None;
            for hs in &hit_sets[i..=j] {
                let attrs: BTreeSet<_> = hs.groups.iter().map(|g| g.attr).collect();
                common = Some(match common {
                    None => attrs,
                    Some(c) => c.intersection(&attrs).copied().collect(),
                });
            }
            let Some(common) = common else { continue };
            for attr in common {
                // Intersect hit codes across the run.
                let mut codes: Option<HashSet<u32>> = None;
                for hs in &hit_sets[i..=j] {
                    // Infallible: `attr` was intersected from exactly
                    // these hit sets' group attributes above.
                    #[allow(clippy::expect_used)]
                    let g = hs
                        .groups
                        .iter()
                        .find(|g| g.attr == attr)
                        .expect("attr is common to the run");
                    let c: HashSet<u32> = g.hits.iter().map(|h| h.code).collect();
                    codes = Some(match codes {
                        None => c,
                        Some(prev) => prev.intersection(&c).copied().collect(),
                    });
                }
                // Infallible: the run `i..=j` holds at least one hit set.
                #[allow(clippy::expect_used)]
                let codes = codes.expect("run is non-empty");
                if codes.is_empty() {
                    // Requirement (b): non-overlapping groups stay separate
                    // ("Software" and "Electronics" are two slices).
                    continue;
                }
                // Re-score the intersection with the phrase query.
                let keywords: Vec<&str> = hit_sets[i..=j]
                    .iter()
                    .map(|hs| hs.keyword.as_str())
                    .collect();
                let t = obs.timer();
                let phrase_hits = index.search_phrase(&keywords, &Default::default());
                if obs.is_enabled() {
                    obs.record_ns("textindex.search_ns", t.stop());
                    obs.inc("textindex.searches", 1);
                }
                let mut rescored: HashMap<u32, Hit> = HashMap::new();
                for sh in phrase_hits {
                    let meta = index.doc(sh.doc);
                    if meta.attr == attr && codes.contains(&meta.code) {
                        rescored.insert(
                            meta.code,
                            Hit {
                                code: meta.code,
                                value: meta.text.clone(),
                                score: sh.score,
                            },
                        );
                    }
                }
                if rescored.is_empty() {
                    // The instances contain all the keywords but never as a
                    // phrase; keep them unmerged.
                    continue;
                }
                let mut hits: Vec<Hit> = rescored.into_values().collect();
                hits.sort_by(|a, b| {
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.code.cmp(&b.code))
                });
                pool.push(HitGroup {
                    attr,
                    hits,
                    keywords: (i..=j).collect(),
                    numeric: None,
                });
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hit::{build_hit_sets, HitConfig};
    use kdap_warehouse::{ColRef, TableId};
    use std::sync::Arc;

    fn attr(t: u32, c: u32) -> ColRef {
        ColRef::new(TableId(t), c)
    }

    fn index() -> TextIndex {
        TextIndex::from_documents(vec![
            (attr(0, 0), 0, Arc::from("San Jose")),
            (attr(0, 0), 1, Arc::from("San Antonio")),
            (attr(0, 0), 2, Arc::from("Santa Cruz")),
            (attr(1, 0), 0, Arc::from("Jose")),
            (attr(2, 0), 0, Arc::from("Software")),
            (attr(2, 0), 1, Arc::from("Electronics")),
        ])
    }

    fn pool_for(keywords: &[&str]) -> Vec<HitGroup> {
        let idx = index();
        let sets = build_hit_sets(&idx, keywords, &HitConfig::default(), &Obs::disabled());
        merged_group_pool(&idx, &sets, &Obs::disabled())
    }

    #[test]
    fn consecutive_city_keywords_merge_into_phrase_group() {
        let pool = pool_for(&["san", "jose"]);
        let merged: Vec<&HitGroup> = pool.iter().filter(|g| g.keywords.len() == 2).collect();
        assert_eq!(merged.len(), 1);
        let g = merged[0];
        assert_eq!(g.attr, attr(0, 0));
        assert_eq!(g.hits.len(), 1);
        assert_eq!(g.hits[0].value.as_ref(), "San Jose");
        // Phrase score of the exact instance is 1.
        assert!((g.hits[0].score - 1.0).abs() < 1e-9);
        assert_eq!(g.keywords, vec![0, 1]);
    }

    #[test]
    fn merged_group_excludes_non_phrase_instances() {
        let pool = pool_for(&["san", "jose"]);
        let merged = pool.iter().find(|g| g.keywords.len() == 2).unwrap();
        assert!(merged.hits.iter().all(|h| h.value.as_ref() == "San Jose"));
    }

    #[test]
    fn original_groups_survive_in_pool() {
        let pool = pool_for(&["san", "jose"]);
        // "san" city group (San Jose, San Antonio, Santa Cruz via prefix)
        // and "jose" groups remain available as alternatives.
        assert!(pool
            .iter()
            .any(|g| g.keywords == vec![0] && g.attr == attr(0, 0)));
        assert!(pool
            .iter()
            .any(|g| g.keywords == vec![1] && g.attr == attr(1, 0)));
    }

    #[test]
    fn disjoint_groups_from_same_domain_do_not_merge() {
        // "Software" and "Electronics" hit the same attribute domain but
        // share no instance — they must stay side-by-side slices.
        let pool = pool_for(&["software", "electronics"]);
        assert!(pool.iter().all(|g| g.keywords.len() == 1));
    }

    #[test]
    fn non_adjacent_instances_do_not_merge() {
        // "jose" then "san" in reverse order: "Jose San" never occurs as a
        // phrase, so no merged group forms.
        let pool = pool_for(&["jose", "san"]);
        assert!(pool.iter().all(|g| g.keywords.len() == 1));
    }
}
