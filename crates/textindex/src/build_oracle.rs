//! The index build against the one it replaced, on random documents.
//!
//! [`OracleIndex`] is the build this crate shipped before it became one
//! pass of borrowed tokens: a `char`-by-`char` tokenizer that allocates a
//! `String` per token, a `BTreeMap` of stemmed terms, and a `BTreeMap`
//! from each raw token to the stems it maps to. Both are kept verbatim.
//! The property holds [`TextIndex::from_documents`] to it field for field
//! (documents, terms → postings with positions, raw token → stem, stats)
//! and search for search, on documents that mix case, digits, non-ASCII
//! letters, punctuation, repeated tokens, empty and symbol-only texts,
//! and words sharing a stem or a prefix.
//!
//! The loop runs at a tier-1 case count by default; an `#[ignore]`d copy
//! runs 20,000 cases (`cargo test --release -p kdap-textindex --
//! --ignored`).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use kdap_warehouse::{ColRef, TableId};

use crate::doc::DocMeta;
use crate::index::{Posting, TextIndex, TextIndexStats};
use crate::search::SearchOptions;
use crate::stemmer::stem;

// ----------------------------------------------------------------- oracle

struct OldToken {
    text: String,
    position: u32,
}

fn old_tokenize(text: &str) -> Vec<OldToken> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut pos = 0u32;
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() {
            current.push(ch.to_ascii_lowercase());
        } else if !current.is_empty() {
            tokens.push(OldToken {
                text: std::mem::take(&mut current),
                position: pos,
            });
            pos += 1;
        }
    }
    if !current.is_empty() {
        tokens.push(OldToken {
            text: current,
            position: pos,
        });
    }
    tokens
}

#[derive(Default)]
struct OracleIndex {
    docs: Vec<DocMeta>,
    terms: BTreeMap<String, u32>,
    raw_vocab: BTreeMap<String, Vec<u32>>,
    postings: Vec<Vec<Posting>>,
}

impl OracleIndex {
    fn add_document(&mut self, attr: ColRef, code: u32, text: Arc<str>) {
        let doc_id = self.docs.len() as u32;
        let tokens = old_tokenize(&text);
        self.docs.push(DocMeta {
            attr,
            code,
            text,
            len: tokens.len() as u32,
        });
        for tok in tokens {
            let stemmed = stem(&tok.text);
            let next_id = self.terms.len() as u32;
            let term_id = *self.terms.entry(stemmed).or_insert(next_id);
            if term_id as usize == self.postings.len() {
                self.postings.push(Vec::new());
            }
            let plist = &mut self.postings[term_id as usize];
            match plist.last_mut() {
                Some(p) if p.doc == doc_id => p.positions.push(tok.position),
                _ => plist.push(Posting {
                    doc: doc_id,
                    positions: vec![tok.position],
                }),
            }
            let raw_ids = self.raw_vocab.entry(tok.text).or_default();
            if !raw_ids.contains(&term_id) {
                raw_ids.push(term_id);
            }
        }
    }

    fn prefix_expansions(&self, prefix: &str, limit: usize) -> Vec<u32> {
        let mut out = Vec::new();
        for (raw, ids) in self.raw_vocab.range(prefix.to_string()..) {
            if !raw.starts_with(prefix) {
                break;
            }
            if raw == prefix {
                continue;
            }
            for &id in ids {
                if !out.contains(&id) {
                    out.push(id);
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
        }
        out
    }

    fn approx_bytes(&self) -> usize {
        let mut total = 0usize;
        for d in &self.docs {
            total += std::mem::size_of::<DocMeta>() + d.text.len();
        }
        for t in self.terms.keys() {
            total += t.len() + 12;
        }
        for (t, ids) in &self.raw_vocab {
            total += t.len() + 12 + ids.len() * 4;
        }
        for plist in &self.postings {
            total += 24;
            for p in plist {
                total += 8 + p.positions.len() * 4;
            }
        }
        total
    }

    fn stats(&self) -> TextIndexStats {
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

    /// The oracle's contents in the searchable layout, taken in its own
    /// (`BTreeMap`) order, so that search runs over both builds alike.
    fn to_index(&self) -> TextIndex {
        TextIndex {
            docs: self.docs.clone(),
            terms: self.terms.iter().map(|(t, &id)| (t.clone(), id)).collect(),
            raw_vocab: self
                .raw_vocab
                .iter()
                .map(|(raw, ids)| (raw.as_str().into(), ids[0]))
                .collect(),
            postings: self.postings.clone(),
        }
    }
}

// -------------------------------------------------------------- generator

/// Random documents: `(attr, code, text)` in build order.
struct Documents;

/// Words that share stems (bike/bikes/biking) and prefixes
/// (mount/mountain/mountains), alphanumeric identifiers, and words with
/// non-ASCII letters that split them.
const WORDS: &str = "bike bikes biking biker bi b mount mountain mountains mountainside \
    road roads roadster run running runner sport100 100 2004 0 x9 california cal calif \
    generalization general generally café zürich naïve 東京 straße oed ies sses agreed feed \
    hopping hoping happy sky";

/// Everything that is not an ASCII letter or digit separates tokens.
const SEPARATORS: &[&str] = &[
    " ", "  ", "-", ",", "(", ")", "/", ".", "@", "_", "'", "\t", "é", "—", "ß", "™", "\u{0}",
];

fn pick<'s>(rng: &mut TestRng, from: &[&'s str]) -> &'s str {
    from[rng.below(from.len() as u64) as usize]
}

/// `word` with each ASCII letter upper-cased one time in three.
fn mixed_case(rng: &mut TestRng, word: &str, out: &mut String) {
    for c in word.chars() {
        out.push(if rng.below(3) == 0 {
            c.to_ascii_uppercase()
        } else {
            c
        });
    }
}

fn random_word(rng: &mut TestRng, out: &mut String) {
    for _ in 0..1 + rng.below(6) {
        out.push((b'a' + rng.below(4) as u8) as char);
    }
}

impl Strategy for Documents {
    type Value = Vec<(ColRef, u32, Arc<str>)>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let words: Vec<&str> = WORDS.split_whitespace().collect();
        let mut docs = Vec::new();
        for code in 0..rng.below(12) as u32 {
            let mut text = String::new();
            match rng.below(8) {
                0 => {}
                1 => {
                    for _ in 0..1 + rng.below(3) {
                        text.push_str(pick(rng, SEPARATORS));
                    }
                }
                _ => {
                    let mut previous = String::new();
                    for i in 0..1 + rng.below(6) {
                        if i > 0 || rng.below(4) == 0 {
                            text.push_str(pick(rng, SEPARATORS));
                        }
                        let mut word = String::new();
                        match rng.below(6) {
                            0 if !previous.is_empty() => word = previous.clone(),
                            0 | 1 => random_word(rng, &mut word),
                            _ => word.push_str(pick(rng, &words)),
                        }
                        mixed_case(rng, &word, &mut text);
                        previous = word;
                    }
                }
            }
            let attr = ColRef::new(TableId(rng.below(2) as u32), rng.below(2) as u32);
            docs.push((attr, code, Arc::from(text)));
        }
        docs
    }
}

// ------------------------------------------------------------- comparison

fn postings(plist: &[Posting]) -> Vec<(u32, Vec<u32>)> {
    plist.iter().map(|p| (p.doc, p.positions.clone())).collect()
}

fn check_against_oracle(docs: &[(ColRef, u32, Arc<str>)]) {
    let mut oracle = OracleIndex::default();
    for (attr, code, text) in docs {
        oracle.add_document(*attr, *code, text.clone());
    }
    let got = TextIndex::from_documents(docs.iter().cloned());
    let context = format!(
        "documents {:?}",
        docs.iter().map(|d| &d.2).collect::<Vec<_>>()
    );

    assert_eq!(got.docs.len(), oracle.docs.len(), "{context}");
    for (g, w) in got.docs.iter().zip(&oracle.docs) {
        assert_eq!(
            (g.attr, g.code, &g.text, g.len),
            (w.attr, w.code, &w.text, w.len),
            "{context}"
        );
    }
    let got_terms: HashMap<&str, u32> = got.terms.iter().map(|(t, &id)| (t.as_str(), id)).collect();
    let want_terms: HashMap<&str, u32> = oracle
        .terms
        .iter()
        .map(|(t, &id)| (t.as_str(), id))
        .collect();
    assert_eq!(got_terms, want_terms, "{context}");
    assert_eq!(got.postings.len(), oracle.postings.len(), "{context}");
    for (g, w) in got.postings.iter().zip(&oracle.postings) {
        assert_eq!(postings(g), postings(w), "{context}");
    }
    let want_raw: Vec<(&str, u32)> = oracle
        .raw_vocab
        .iter()
        .map(|(raw, ids)| {
            assert_eq!(ids.len(), 1, "{context}: raw token {raw} has one stem");
            (raw.as_str(), ids[0])
        })
        .collect();
    let got_raw: Vec<(&str, u32)> = got.raw_vocab.iter().map(|(r, id)| (&**r, *id)).collect();
    assert_eq!(got_raw, want_raw, "{context}");
    assert_eq!(got.stats(), oracle.stats(), "{context}");

    // Search: every raw token, every 3-prefix of one, and every pair of
    // adjacent tokens of a document as a phrase.
    let old = oracle.to_index();
    let options = [
        SearchOptions::default(),
        SearchOptions {
            prefix: false,
            ..SearchOptions::default()
        },
        SearchOptions {
            max_expansions: 2,
            ..SearchOptions::default()
        },
    ];
    let mut queries: Vec<&str> = oracle.raw_vocab.keys().map(String::as_str).collect();
    queries.extend(oracle.raw_vocab.keys().filter_map(|raw| raw.get(..3)));
    for q in &queries {
        for limit in [1, 2, 64] {
            assert_eq!(
                got.prefix_expansions(q, limit),
                oracle.prefix_expansions(q, limit),
                "{context}: prefix {q} limit {limit}"
            );
        }
        for opts in &options {
            assert_eq!(
                got.search_keyword(q, opts),
                old.search_keyword(q, opts),
                "{context}: keyword {q}"
            );
            assert_eq!(
                got.search_phrase(&[q], opts),
                old.search_phrase(&[q], opts),
                "{context}: phrase {q}"
            );
        }
    }
    for (_, _, text) in docs {
        let tokens: Vec<String> = old_tokenize(text).into_iter().map(|t| t.text).collect();
        for pair in tokens.windows(2) {
            let phrase = [pair[0].as_str(), pair[1].as_str()];
            let hits = got.search_phrase(&phrase, &options[0]);
            assert_eq!(hits, old.search_phrase(&phrase, &options[0]), "{context}");
            assert!(
                !hits.is_empty(),
                "{context}: phrase {phrase:?} finds its document"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn build_matches_the_oracle(docs in Documents) {
        check_against_oracle(&docs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore = "fuzz smoke: run with --release -- --ignored"]
    fn build_matches_the_oracle_20k(docs in Documents) {
        check_against_oracle(&docs);
    }
}

/// The generator delivers what the module header promises, so the
/// property is not vacuous on any of it.
#[test]
fn the_generator_reaches_every_shape() {
    let (mut empty, mut symbols_only, mut upper, mut non_ascii) = (false, false, false, false);
    let (mut repeated, mut shared_stem, mut shared_prefix) = (false, false, false);
    for case in 0..256 {
        let mut rng = TestRng::for_case("build_oracle::shapes", case);
        let docs = Documents.generate(&mut rng);
        let mut oracle = OracleIndex::default();
        for (attr, code, text) in &docs {
            empty |= text.is_empty();
            symbols_only |= !text.is_empty() && old_tokenize(text).is_empty();
            upper |= text.chars().any(|c| c.is_ascii_uppercase());
            non_ascii |= !text.is_ascii();
            let tokens = old_tokenize(text);
            repeated |=
                (1..tokens.len()).any(|i| tokens[..i].iter().any(|t| t.text == tokens[i].text));
            oracle.add_document(*attr, *code, text.clone());
        }
        let raws: Vec<(&String, u32)> = oracle
            .raw_vocab
            .iter()
            .map(|(r, ids)| (r, ids[0]))
            .collect();
        for (i, (a, sa)) in raws.iter().enumerate() {
            for (b, sb) in &raws[i + 1..] {
                shared_stem |= sa == sb;
                shared_prefix |= b.starts_with(a.as_str());
            }
        }
    }
    assert!(empty && symbols_only && upper && non_ascii);
    assert!(repeated && shared_stem && shared_prefix);
}
