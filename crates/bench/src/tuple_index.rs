//! Tuple-level indexing — the *rejected* design alternative (§3).
//!
//! Prior keyword-search-over-databases systems (DBExplorer, DISCOVER,
//! BANKS) index at tuple granularity: each tuple is one virtual document.
//! The paper argues this is insufficient for analytical processing,
//! because a tuple-level hit cannot say *which attribute* matched — the
//! §3 example: `PRODUCT_A{Product=ABC, …}` and `PRODUCT_B{…,
//! Category=ABC}` are indistinguishable matches for keyword "ABC",
//! although they denote completely different subspaces.
//!
//! This module implements the alternative faithfully so the ablation
//! experiment (`exp_ablation_index`) can quantify the information loss
//! against the attribute-level [`kdap_textindex::TextIndex`].

use std::collections::BTreeMap;
use std::sync::Arc;

use kdap_textindex::scoring::{idf, score, TermMatch};
use kdap_textindex::{stem, tokenize_terms};
use kdap_warehouse::{ColRef, TableId, Warehouse};

/// One tuple-level virtual document.
#[derive(Debug, Clone)]
pub struct TupleDoc {
    /// The tuple's table.
    pub table: TableId,
    /// The tuple's row index.
    pub row: u32,
    /// Concatenated searchable text of the tuple.
    pub text: Arc<str>,
    /// Token count.
    pub len: u32,
    /// The searchable attributes whose value contributed each token run —
    /// kept only to *measure* the ambiguity the representation loses; a
    /// real tuple-level system would not expose this.
    pub attrs: Vec<ColRef>,
}

/// A tuple-granularity inverted index (no positions — prior systems
/// ranked by joined-network size and tuple relevance only).
#[derive(Debug, Default)]
pub struct TupleIndex {
    docs: Vec<TupleDoc>,
    terms: BTreeMap<String, u32>,
    /// term id → (doc id, term frequency).
    postings: Vec<Vec<(u32, u32)>>,
    /// term id → per-doc list of attrs containing the term.
    term_attrs: Vec<Vec<(u32, Vec<ColRef>)>>,
}

/// A tuple-level hit.
#[derive(Debug, Clone)]
pub struct TupleHit {
    /// The matched tuple document.
    pub doc: u32,
    /// TF-IDF similarity in `(0, 1]`.
    pub score: f64,
}

impl TupleIndex {
    /// Indexes every row of every table that has searchable columns.
    pub fn build(wh: &Warehouse) -> Self {
        let mut index = TupleIndex::default();
        for (ti, table) in wh.tables().iter().enumerate() {
            let searchable: Vec<(ColRef, &kdap_warehouse::Column)> = table
                .columns()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_searchable())
                .map(|(ci, c)| (ColRef::new(TableId(ti as u32), ci as u32), c))
                .collect();
            if searchable.is_empty() {
                continue;
            }
            for row in 0..table.nrows() {
                index.add_tuple(TableId(ti as u32), row as u32, &searchable);
            }
        }
        index
    }

    fn add_tuple(
        &mut self,
        table: TableId,
        row: u32,
        searchable: &[(ColRef, &kdap_warehouse::Column)],
    ) {
        let doc_id = self.docs.len() as u32;
        let mut text = String::new();
        let mut attrs = Vec::new();
        let mut token_count = 0u32;
        let mut per_term: BTreeMap<String, (u32, Vec<ColRef>)> = BTreeMap::new();
        for (attr, col) in searchable {
            let Some(code) = col.get_code(row as usize) else {
                continue;
            };
            let value = col
                .dict()
                .and_then(|d| d.resolve(code).cloned())
                .unwrap_or_else(|| Arc::from(""));
            if !text.is_empty() {
                text.push(' ');
            }
            text.push_str(&value);
            attrs.push(*attr);
            for tok in tokenize_terms(&value) {
                token_count += 1;
                let stemmed = stem(&tok);
                let entry = per_term.entry(stemmed).or_insert((0, Vec::new()));
                entry.0 += 1;
                if !entry.1.contains(attr) {
                    entry.1.push(*attr);
                }
            }
        }
        self.docs.push(TupleDoc {
            table,
            row,
            text: Arc::from(text),
            len: token_count,
            attrs,
        });
        for (term, (tf, attrs)) in per_term {
            let next_id = self.terms.len() as u32;
            let term_id = *self.terms.entry(term).or_insert(next_id);
            if term_id as usize == self.postings.len() {
                self.postings.push(Vec::new());
                self.term_attrs.push(Vec::new());
            }
            self.postings[term_id as usize].push((doc_id, tf));
            self.term_attrs[term_id as usize].push((doc_id, attrs));
        }
    }

    /// Number of tuple documents.
    pub fn n_docs(&self) -> usize {
        self.docs.len()
    }

    /// Document metadata.
    pub fn doc(&self, id: u32) -> &TupleDoc {
        &self.docs[id as usize]
    }

    /// Keyword search over tuples (stemmed, TF-IDF scored like the
    /// attribute-level engine, minus positions).
    pub fn search_keyword(&self, keyword: &str, max_hits: usize) -> Vec<TupleHit> {
        let tokens = tokenize_terms(keyword);
        let Some(token) = tokens.first() else {
            return Vec::new();
        };
        let Some(&tid) = self.terms.get(&stem(token)) else {
            return Vec::new();
        };
        let term_idf = idf(self.n_docs(), self.postings[tid as usize].len());
        let mut hits: Vec<TupleHit> = self.postings[tid as usize]
            .iter()
            .map(|&(doc, tf)| TupleHit {
                doc,
                score: score(
                    &[TermMatch {
                        tf,
                        idf: term_idf,
                        penalty: 1.0,
                    }],
                    self.docs[doc as usize].len,
                    &[term_idf],
                ),
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        hits.truncate(max_hits);
        hits
    }

    /// For ablation measurement only: the attribute domains a keyword
    /// actually matched within a tuple — the information the tuple-level
    /// representation discards.
    pub fn matched_attrs(&self, keyword: &str, doc: u32) -> Vec<ColRef> {
        let tokens = tokenize_terms(keyword);
        let Some(token) = tokens.first() else {
            return Vec::new();
        };
        let Some(&tid) = self.terms.get(&stem(token)) else {
            return Vec::new();
        };
        self.term_attrs[tid as usize]
            .iter()
            .find(|(d, _)| *d == doc)
            .map(|(_, attrs)| attrs.clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdap_warehouse::{ValueType, WarehouseBuilder};

    /// The §3 example: ABC as a product name vs ABC as a category.
    fn abc_warehouse() -> Warehouse {
        let mut b = WarehouseBuilder::new();
        b.table(
            "PRODUCT",
            &[
                ("PKey", ValueType::Int, false),
                ("Product", ValueType::Str, true),
                ("Category", ValueType::Str, true),
            ],
        )
        .unwrap();
        b.row(
            "PRODUCT",
            vec![1i64.into(), "ABC EFG".into(), "TGS SDF".into()],
        )
        .unwrap();
        b.row("PRODUCT", vec![2i64.into(), "ERT EFG".into(), "ABC".into()])
            .unwrap();
        b.table(
            "F",
            &[
                ("Id", ValueType::Int, false),
                ("PKey", ValueType::Int, false),
            ],
        )
        .unwrap();
        b.row("F", vec![1i64.into(), 1i64.into()]).unwrap();
        b.row("F", vec![2i64.into(), 2i64.into()]).unwrap();
        b.edge("F.PKey", "PRODUCT.PKey", None, Some("Product"))
            .unwrap();
        b.dimension("Product", &["PRODUCT"], vec![], vec![])
            .unwrap();
        b.fact("F").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn tuple_level_conflates_attribute_domains() {
        let wh = abc_warehouse();
        let tindex = TupleIndex::build(&wh);
        // Both product tuples match "ABC" at tuple level...
        let hits = tindex.search_keyword("abc", 10);
        assert_eq!(hits.len(), 2);
        // ...but in different attribute domains — information the
        // attribute-level index keeps as two distinct hit groups.
        let aindex = kdap_textindex::TextIndex::build(&wh);
        let ahits = aindex.search_keyword("abc", &kdap_textindex::SearchOptions::default());
        let domains: std::collections::HashSet<_> =
            ahits.iter().map(|h| aindex.doc(h.doc).attr).collect();
        assert_eq!(
            domains.len(),
            2,
            "attribute-level distinguishes the domains"
        );
        // The diagnostic channel confirms the conflation.
        let a0 = tindex.matched_attrs("abc", hits[0].doc);
        let a1 = tindex.matched_attrs("abc", hits[1].doc);
        assert_ne!(a0, a1, "same-looking tuple hits matched different attrs");
    }

    #[test]
    fn tuple_docs_concatenate_searchable_values() {
        let wh = abc_warehouse();
        let tindex = TupleIndex::build(&wh);
        assert_eq!(tindex.n_docs(), 2, "only PRODUCT rows are indexed");
        assert_eq!(tindex.doc(0).text.as_ref(), "ABC EFG TGS SDF");
        assert_eq!(tindex.doc(0).len, 4);
    }

    #[test]
    fn unknown_keyword_empty() {
        let wh = abc_warehouse();
        let tindex = TupleIndex::build(&wh);
        assert!(tindex.search_keyword("zzz", 10).is_empty());
        assert!(tindex.search_keyword("", 10).is_empty());
        assert!(tindex.matched_attrs("zzz", 0).is_empty());
    }
}
