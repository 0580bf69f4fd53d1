//! Keyword and phrase search over the [`TextIndex`].

use crate::doc::DocId;
use crate::index::TextIndex;
use crate::scoring::{idf, score, TermMatch};
use crate::stemmer::stem;
use crate::tokenizer::tokenize_terms;

/// Search tuning knobs.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Enable prefix/partial matching of raw tokens.
    pub prefix: bool,
    /// Score multiplier applied to prefix (non-exact) matches.
    pub prefix_penalty: f64,
    /// Maximum number of prefix-expanded terms per keyword.
    pub max_expansions: usize,
    /// Prefixes shorter than this are not expanded (avoids exploding
    /// one- or two-letter keywords).
    pub min_prefix_len: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            prefix: true,
            prefix_penalty: 0.8,
            max_expansions: 64,
            min_prefix_len: 3,
        }
    }
}

/// One search hit: a virtual document (attribute instance) and its
/// similarity score in `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The matched virtual document (attribute instance).
    pub doc: DocId,
    /// Normalized similarity in `(0, 1]`.
    pub score: f64,
}

impl TextIndex {
    /// Searches for one keyword.
    ///
    /// A multi-token keyword (e.g. a pre-quoted `"San Jose"`) is treated as
    /// a phrase. Matching is stemmed; prefix expansion applies per
    /// [`SearchOptions`]. Hits are sorted by descending score (ties by
    /// doc id for determinism).
    pub fn search_keyword(&self, keyword: &str, opts: &SearchOptions) -> Vec<SearchHit> {
        let tokens = tokenize_terms(keyword);
        match tokens.len() {
            0 => Vec::new(),
            1 => self.search_single(&tokens[0], opts),
            _ => self.search_phrase_terms(&tokens),
        }
    }

    /// Searches for a phrase given as whitespace-separated keywords
    /// (§4.3 — used to re-score merged hit groups). A phrase of one token
    /// is a keyword search under `opts`.
    pub fn search_phrase(&self, keywords: &[&str], opts: &SearchOptions) -> Vec<SearchHit> {
        let tokens: Vec<String> = keywords.iter().flat_map(|k| tokenize_terms(k)).collect();
        match tokens.len() {
            0 => Vec::new(),
            1 => self.search_single(&tokens[0], opts),
            _ => self.search_phrase_terms(&tokens),
        }
    }

    fn search_single(&self, token: &str, opts: &SearchOptions) -> Vec<SearchHit> {
        let n = self.n_docs();
        let stemmed = stem(token);
        // Candidate terms: the exact stem plus prefix expansions.
        let mut candidates: Vec<(u32, f64)> = Vec::new();
        if let Some(tid) = self.term_id(&stemmed) {
            candidates.push((tid, 1.0));
        }
        if opts.prefix && token.len() >= opts.min_prefix_len {
            for tid in self.prefix_expansions(token, opts.max_expansions) {
                if !candidates.iter().any(|(t, _)| *t == tid) {
                    candidates.push((tid, opts.prefix_penalty));
                }
            }
        }
        if candidates.is_empty() {
            return Vec::new();
        }
        // The query idf anchors normalization; use the exact term's idf
        // when present, else the strongest expansion.
        let query_idf = candidates
            .iter()
            .map(|(tid, _)| idf(n, self.df(*tid)))
            .fold(f64::MIN, f64::max);
        // Per-document best match.
        let mut best: std::collections::HashMap<u32, TermMatch> = std::collections::HashMap::new();
        for (tid, penalty) in &candidates {
            let term_idf = idf(n, self.df(*tid));
            for p in &self.postings[*tid as usize] {
                let cand = TermMatch {
                    tf: p.positions.len() as u32,
                    idf: term_idf,
                    penalty: *penalty,
                };
                let weight = |m: &TermMatch| (m.tf as f64).sqrt() * m.idf * m.idf * m.penalty;
                best.entry(p.doc)
                    .and_modify(|cur| {
                        if weight(&cand) > weight(cur) {
                            *cur = cand;
                        }
                    })
                    .or_insert(cand);
            }
        }
        let mut hits: Vec<SearchHit> = best
            .into_iter()
            .map(|(doc, m)| SearchHit {
                doc: DocId(doc),
                score: score(&[m], self.doc(DocId(doc)).len, &[query_idf]),
            })
            .collect();
        sort_hits(&mut hits);
        hits
    }

    fn search_phrase_terms(&self, tokens: &[String]) -> Vec<SearchHit> {
        let n = self.n_docs();
        let mut term_ids = Vec::with_capacity(tokens.len());
        for t in tokens {
            match self.term_id(&stem(t)) {
                Some(tid) => term_ids.push(tid),
                // A phrase with an unindexed token matches nothing.
                None => return Vec::new(),
            }
        }
        let idfs: Vec<f64> = term_ids.iter().map(|&t| idf(n, self.df(t))).collect();

        // Intersect postings, driving from the rarest term.
        // An empty phrase (no tokens survived tokenization) matches nothing.
        let Some(driver) = term_ids
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| self.df(t))
            .map(|(i, _)| i)
        else {
            return Vec::new();
        };
        let mut hits = Vec::new();
        'docs: for p in &self.postings[term_ids[driver] as usize] {
            let doc = p.doc;
            // Collect positions of every term in this doc.
            let mut positions: Vec<&[u32]> = Vec::with_capacity(term_ids.len());
            for &tid in &term_ids {
                match self.postings[tid as usize].binary_search_by_key(&doc, |p| p.doc) {
                    Ok(i) => positions.push(&self.postings[tid as usize][i].positions),
                    Err(_) => continue 'docs,
                }
            }
            // Count phrase occurrences: starts s where every term i occurs
            // at s + i.
            let tf_phrase = positions[0]
                .iter()
                .filter(|&&s| {
                    positions
                        .iter()
                        .enumerate()
                        .skip(1)
                        .all(|(i, ps)| ps.binary_search(&(s + i as u32)).is_ok())
                })
                .count() as u32;
            if tf_phrase == 0 {
                continue;
            }
            let matches: Vec<TermMatch> = idfs
                .iter()
                .map(|&i| TermMatch {
                    tf: tf_phrase,
                    idf: i,
                    penalty: 1.0,
                })
                .collect();
            hits.push(SearchHit {
                doc: DocId(doc),
                score: score(&matches, self.doc(DocId(doc)).len, &idfs),
            });
        }
        sort_hits(&mut hits);
        hits
    }
}

fn sort_hits(hits: &mut [SearchHit]) {
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.doc.cmp(&b.doc))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TextIndex;
    use kdap_warehouse::{ColRef, TableId};
    use std::sync::Arc;

    fn attr(t: u32, c: u32) -> ColRef {
        ColRef::new(TableId(t), c)
    }

    fn city_index() -> TextIndex {
        TextIndex::from_documents(vec![
            (attr(0, 0), 0, Arc::from("San Jose")),
            (attr(0, 0), 1, Arc::from("San Antonio")),
            (attr(0, 0), 2, Arc::from("San Francisco")),
            (attr(0, 0), 3, Arc::from("Jose")),
            (attr(1, 0), 0, Arc::from("Jose Martinez")),
            (attr(2, 0), 0, Arc::from("345 California Street San Jose")),
        ])
    }

    #[test]
    fn keyword_search_ranks_exact_short_docs_first() {
        let idx = city_index();
        let hits = idx.search_keyword("jose", &SearchOptions::default());
        assert!(!hits.is_empty());
        // "Jose" (single-token doc) is the best match for keyword "jose".
        assert_eq!(idx.doc(hits[0].doc).text.as_ref(), "Jose");
        // The long address ranks below the two-token docs.
        let address_rank = hits
            .iter()
            .position(|h| idx.doc(h.doc).text.contains("345"))
            .unwrap();
        assert!(address_rank >= 2);
    }

    #[test]
    fn phrase_search_requires_adjacency() {
        let idx = city_index();
        let hits = idx.search_phrase(&["san", "jose"], &SearchOptions::default());
        let texts: Vec<&str> = hits.iter().map(|h| idx.doc(h.doc).text.as_ref()).collect();
        assert!(texts.contains(&"San Jose"));
        assert!(texts.contains(&"345 California Street San Jose"));
        assert!(!texts.contains(&"San Antonio"));
        assert!(!texts.contains(&"Jose"));
        // Exact phrase doc scores 1.0 and first.
        assert_eq!(idx.doc(hits[0].doc).text.as_ref(), "San Jose");
        assert!((hits[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_token_keyword_is_treated_as_phrase() {
        let idx = city_index();
        let hits = idx.search_keyword("San Jose", &SearchOptions::default());
        assert_eq!(idx.doc(hits[0].doc).text.as_ref(), "San Jose");
    }

    #[test]
    fn prefix_matching_finds_partial_tokens() {
        let idx = city_index();
        let mut opts = SearchOptions::default();
        let hits = idx.search_keyword("franc", &opts);
        assert!(hits
            .iter()
            .any(|h| idx.doc(h.doc).text.as_ref() == "San Francisco"));
        opts.prefix = false;
        let hits = idx.search_keyword("franc", &opts);
        assert!(hits.is_empty());
    }

    #[test]
    fn one_word_phrase_honours_the_prefix_option() {
        let idx = city_index();
        let mut opts = SearchOptions::default();
        let hits = idx.search_phrase(&["franc"], &opts);
        assert!(hits
            .iter()
            .any(|h| idx.doc(h.doc).text.as_ref() == "San Francisco"));
        opts.prefix = false;
        assert!(idx.search_phrase(&["franc"], &opts).is_empty());
        // An exact one-word phrase still matches without expansion.
        let hits = idx.search_phrase(&["jose"], &opts);
        assert_eq!(hits.len(), 4);
        assert_eq!(hits, idx.search_keyword("jose", &opts));
    }

    #[test]
    fn prefix_hits_score_below_exact_hits() {
        let idx = TextIndex::from_documents(vec![
            (attr(0, 0), 0, Arc::from("Mountain")),
            (attr(0, 0), 1, Arc::from("Mountainside")),
        ]);
        let hits = idx.search_keyword("mountain", &SearchOptions::default());
        assert_eq!(hits.len(), 2);
        assert_eq!(idx.doc(hits[0].doc).text.as_ref(), "Mountain");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn stemmed_match_scores_like_exact() {
        let idx = TextIndex::from_documents(vec![(attr(0, 0), 0, Arc::from("Mountain Bikes"))]);
        let hits = idx.search_keyword("bike", &SearchOptions::default());
        assert_eq!(hits.len(), 1);
        let hits2 = idx.search_keyword("bikes", &SearchOptions::default());
        assert!((hits[0].score - hits2[0].score).abs() < 1e-9);
    }

    #[test]
    fn unknown_keyword_returns_empty() {
        let idx = city_index();
        assert!(idx
            .search_keyword("zzzquux", &SearchOptions::default())
            .is_empty());
        assert!(idx.search_keyword("", &SearchOptions::default()).is_empty());
        assert!(idx
            .search_phrase(&["san", "zzzquux"], &SearchOptions::default())
            .is_empty());
    }

    #[test]
    fn phrase_counts_multiple_occurrences() {
        let idx = TextIndex::from_documents(vec![
            (attr(0, 0), 0, Arc::from("red bike red bike")),
            (attr(0, 0), 1, Arc::from("red bike blue trike")),
        ]);
        let hits = idx.search_phrase(&["red", "bike"], &SearchOptions::default());
        assert_eq!(hits.len(), 2);
        // The doc with tf=2 (same length) scores higher.
        assert_eq!(hits[0].doc, DocId(0));
    }

    #[test]
    fn hits_sorted_deterministically() {
        let idx = TextIndex::from_documents(vec![
            (attr(0, 0), 0, Arc::from("alpha beta")),
            (attr(0, 0), 1, Arc::from("alpha gamma")),
        ]);
        let hits = idx.search_keyword("alpha", &SearchOptions::default());
        // Equal scores → ordered by doc id.
        assert_eq!(hits[0].doc, DocId(0));
        assert_eq!(hits[1].doc, DocId(1));
    }
}
