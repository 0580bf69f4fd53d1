//! The inverted index over attribute-instance virtual documents.

use std::collections::HashMap;
use std::sync::Arc;

use kdap_warehouse::{ColRef, Warehouse};

use crate::doc::{DocId, DocMeta};
use crate::stemmer::stem;
use crate::tokenizer::raw_tokens;

/// One posting: a document and the positions of the term inside it.
#[derive(Debug, Clone)]
pub struct Posting {
    /// Document id.
    pub doc: u32,
    /// Token positions of the term inside the document (sorted).
    pub positions: Vec<u32>,
}

/// Full-text index over every searchable attribute domain of a warehouse.
///
/// Terms are Porter-stemmed. A raw (unstemmed) vocabulary is kept alongside
/// to support prefix/partial matching (§3: "partial matches and stemming").
#[derive(Debug, Default)]
pub struct TextIndex {
    pub(crate) docs: Vec<DocMeta>,
    /// Stemmed term → term id; ids are handed out in first-seen order.
    pub(crate) terms: HashMap<String, u32>,
    /// Raw token → the term id of its stem, sorted by token (byte order)
    /// so that the tokens sharing a prefix are one range.
    pub(crate) raw_vocab: Vec<(Box<str>, u32)>,
    pub(crate) postings: Vec<Vec<Posting>>,
}

/// The one way a [`TextIndex`] is built: documents are added in order,
/// and each token costs one hash probe by `&str` into `raw`. Only a raw
/// token not seen before is stemmed and allocated.
#[derive(Default)]
struct IndexBuilder {
    index: TextIndex,
    /// Raw token → the term id of its stem (`stem` is a pure function).
    raw: HashMap<String, u32>,
    /// The current token, lowercased; reused across tokens.
    lower: String,
}

impl IndexBuilder {
    fn add(&mut self, attr: ColRef, code: u32, text: Arc<str>) {
        let doc_id = self.index.docs.len() as u32;
        let mut len = 0u32;
        for (token, position) in raw_tokens(&text).zip(0u32..) {
            self.lower.clear();
            self.lower.push_str(token);
            self.lower.make_ascii_lowercase();
            let term_id = match self.raw.get(self.lower.as_str()) {
                Some(&id) => id,
                None => {
                    let next_id = self.index.terms.len() as u32;
                    let id = *self.index.terms.entry(stem(&self.lower)).or_insert(next_id);
                    if id == next_id {
                        self.index.postings.push(Vec::new());
                    }
                    self.raw.insert(self.lower.clone(), id);
                    id
                }
            };
            let plist = &mut self.index.postings[term_id as usize];
            match plist.last_mut() {
                Some(p) if p.doc == doc_id => p.positions.push(position),
                _ => plist.push(Posting {
                    doc: doc_id,
                    positions: vec![position],
                }),
            }
            len = position + 1;
        }
        self.index.docs.push(DocMeta {
            attr,
            code,
            text,
            len,
        });
    }

    fn finish(self) -> TextIndex {
        let mut raw_vocab: Vec<(Box<str>, u32)> = self
            .raw
            .into_iter()
            .map(|(token, id)| (token.into_boxed_str(), id))
            .collect();
        raw_vocab.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        TextIndex {
            raw_vocab,
            ..self.index
        }
    }
}

/// Summary statistics of a built [`TextIndex`] (the `kdap stats`
/// surface).
#[derive(Debug, Clone, PartialEq)]
pub struct TextIndexStats {
    /// Virtual documents (attribute instances) indexed.
    pub docs: usize,
    /// Distinct stemmed terms.
    pub terms: usize,
    /// Total postings across all term lists.
    pub postings: usize,
    /// Mean token length of a virtual document.
    pub avg_doc_len: f64,
    /// Rough in-memory footprint in bytes.
    pub approx_bytes: usize,
}

impl TextIndex {
    /// Indexes every distinct value of every searchable column of `wh`.
    pub fn build(wh: &Warehouse) -> Self {
        Self::from_documents(wh.searchable_columns().flat_map(|(attr, column)| {
            // Infallible: `searchable_columns` yields only dictionary-
            // encoded string columns.
            #[allow(clippy::expect_used)]
            let dict = column.dict().expect("searchable columns are strings");
            dict.iter()
                .map(move |(code, text)| (attr, code, text.clone()))
        }))
    }

    /// Builds an index from explicit documents, in order.
    pub fn from_documents(docs: impl IntoIterator<Item = (ColRef, u32, Arc<str>)>) -> Self {
        let mut builder = IndexBuilder::default();
        for (attr, code, text) in docs {
            builder.add(attr, code, text);
        }
        builder.finish()
    }

    /// Summary statistics: documents, terms, postings, and average
    /// document length.
    pub fn stats(&self) -> TextIndexStats {
        let postings = self.postings.iter().map(Vec::len).sum();
        let total_len: u64 = self.docs.iter().map(|d| d.len as u64).sum();
        TextIndexStats {
            docs: self.docs.len(),
            terms: self.terms.len(),
            postings,
            avg_doc_len: if self.docs.is_empty() {
                0.0
            } else {
                total_len as f64 / self.docs.len() as f64
            },
            approx_bytes: self.approx_bytes(),
        }
    }

    /// Number of virtual documents.
    pub fn n_docs(&self) -> usize {
        self.docs.len()
    }

    /// Document metadata.
    pub fn doc(&self, id: DocId) -> &DocMeta {
        &self.docs[id.0 as usize]
    }

    /// Looks up a stemmed term id.
    pub(crate) fn term_id(&self, stemmed: &str) -> Option<u32> {
        self.terms.get(stemmed).copied()
    }

    /// Document frequency of a term.
    pub(crate) fn df(&self, term: u32) -> usize {
        self.postings[term as usize].len()
    }

    /// Raw-vocabulary terms starting with `prefix`, up to `limit`,
    /// excluding the exact raw token itself.
    pub(crate) fn prefix_expansions(&self, prefix: &str, limit: usize) -> Vec<u32> {
        let start = self.raw_vocab.partition_point(|(raw, _)| &**raw < prefix);
        let mut out = Vec::new();
        for (raw, id) in &self.raw_vocab[start..] {
            if !raw.starts_with(prefix) {
                break;
            }
            if &**raw != prefix && !out.contains(id) {
                out.push(*id);
                if out.len() >= limit {
                    break;
                }
            }
        }
        out
    }

    /// A rough byte-size estimate (paper §6.1 reports ~5 MB offline index).
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0usize;
        for d in &self.docs {
            total += std::mem::size_of::<DocMeta>() + d.text.len();
        }
        for t in self.terms.keys() {
            total += t.len() + 12;
        }
        for (t, _) in &self.raw_vocab {
            total += t.len() + 12 + 4;
        }
        for plist in &self.postings {
            total += 24;
            for p in plist {
                total += 8 + p.positions.len() * 4;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdap_warehouse::TableId;

    fn attr(t: u32, c: u32) -> ColRef {
        ColRef::new(TableId(t), c)
    }

    fn sample() -> TextIndex {
        TextIndex::from_documents(vec![
            (attr(0, 1), 0, Arc::from("Mountain Bikes")),
            (attr(0, 1), 1, Arc::from("Road Bikes")),
            (attr(0, 2), 0, Arc::from("Mountain-200 Black")),
            (attr(1, 0), 0, Arc::from("California")),
            (attr(1, 1), 0, Arc::from("345 California Street")),
        ])
    }

    #[test]
    fn builds_documents_and_terms() {
        let idx = sample();
        assert_eq!(idx.n_docs(), 5);
        // mountain, bike, road, 200, black, california, 345, street
        assert_eq!(idx.stats().terms, 8);
        assert_eq!(idx.doc(DocId(0)).len, 2);
        assert_eq!(idx.doc(DocId(4)).len, 3);
    }

    #[test]
    fn stemming_merges_singular_plural() {
        let idx = sample();
        // "Bikes" is indexed under the stem "bike".
        let tid = idx.term_id("bike").unwrap();
        assert_eq!(idx.df(tid), 2);
        assert!(idx.term_id("bikes").is_none());
    }

    #[test]
    fn positions_recorded() {
        let idx = sample();
        let tid = idx.term_id("bike").unwrap();
        let plist = &idx.postings[tid as usize];
        assert_eq!(plist[0].doc, 0);
        assert_eq!(plist[0].positions, vec![1]);
    }

    #[test]
    fn repeated_term_in_one_doc_collapses_to_one_posting() {
        let idx = TextIndex::from_documents(vec![(attr(0, 0), 0, Arc::from("bike bike bike"))]);
        let tid = idx.term_id("bike").unwrap();
        assert_eq!(idx.postings[tid as usize].len(), 1);
        assert_eq!(idx.postings[tid as usize][0].positions.len(), 3);
    }

    #[test]
    fn prefix_expansion_respects_limit_and_excludes_exact() {
        let idx = sample();
        let exp = idx.prefix_expansions("cal", 10);
        // "california" from both docs → one stemmed term.
        assert_eq!(exp.len(), 1);
        let exp = idx.prefix_expansions("california", 10);
        assert!(exp.is_empty(), "exact token excluded");
        let exp = idx.prefix_expansions("zzz", 10);
        assert!(exp.is_empty());
    }

    #[test]
    fn approx_bytes_positive() {
        assert!(sample().approx_bytes() > 0);
    }

    #[test]
    fn build_from_warehouse() {
        use kdap_warehouse::{ValueType, WarehouseBuilder};
        let mut b = WarehouseBuilder::new();
        b.table(
            "F",
            &[
                ("Id", ValueType::Int, false),
                ("PKey", ValueType::Int, false),
            ],
        )
        .unwrap();
        b.table(
            "P",
            &[
                ("PKey", ValueType::Int, false),
                ("Name", ValueType::Str, true),
                ("Internal", ValueType::Str, false),
            ],
        )
        .unwrap();
        b.row(
            "P",
            vec![1i64.into(), "LCD Projector".into(), "hidden".into()],
        )
        .unwrap();
        b.row("F", vec![1i64.into(), 1i64.into()]).unwrap();
        b.edge("F.PKey", "P.PKey", None, Some("Product")).unwrap();
        b.dimension("Product", &["P"], vec![], vec![]).unwrap();
        b.fact("F").unwrap();
        let wh = b.finish().unwrap();
        let idx = TextIndex::build(&wh);
        // Only the searchable column is indexed.
        assert_eq!(idx.n_docs(), 1);
        assert!(idx.term_id("lcd").is_some());
        assert!(idx.term_id("hidden").is_none());
    }
}
