//! Property-based tests for tokenization, stemming, scoring and search.

use std::sync::Arc;

use proptest::prelude::*;

use kdap_textindex::scoring::{idf, score, TermMatch};
use kdap_textindex::{stem, tokenize, SearchOptions, TextIndex};
use kdap_warehouse::{ColRef, TableId};

proptest! {
    /// Tokens are lowercase alphanumeric, positions strictly increase,
    /// and every token occurs in the input (case-insensitively).
    #[test]
    fn tokenizer_invariants(text in "[ -~]{0,60}") {
        let toks = tokenize(&text);
        let lower = text.to_ascii_lowercase();
        let mut last: Option<u32> = None;
        for t in &toks {
            prop_assert!(!t.text.is_empty());
            prop_assert!(t.text.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()));
            prop_assert!(lower.contains(&t.text), "token {} not in {}", t.text, lower);
            if let Some(p) = last {
                prop_assert!(t.position > p);
            }
            last = Some(t.position);
        }
    }

    /// The stemmer never panics, always yields ASCII output, and never
    /// grows a word by more than one character (the step-1b e-restores).
    #[test]
    fn stemmer_is_total_and_bounded(word in "[a-z]{0,15}") {
        let s = stem(&word);
        prop_assert!(s.is_ascii());
        prop_assert!(s.len() <= word.len() + 1, "{word} → {s}");
        if word.len() > 2 {
            prop_assert!(!s.is_empty());
        }
    }

    /// Plural forms stem to the same term as their singular for simple
    /// -s plurals that don't end in s/x/z (the classic IR property).
    #[test]
    fn simple_plurals_collapse(word in "[a-z]{3,10}[bdglmnprtw]") {
        let plural = format!("{word}s");
        prop_assert_eq!(stem(&plural), stem(&word));
    }

    /// Scores stay in [0, 1] for any consistent tf ≤ dl inputs.
    #[test]
    fn scores_bounded(
        n_docs in 2usize..10_000,
        df in 1usize..50,
        tf in 1u32..20,
        extra_len in 0u32..50,
        penalty in 0.1f64..1.0,
    ) {
        let i = idf(n_docs, df.min(n_docs));
        let dl = tf + extra_len;
        let m = TermMatch { tf, idf: i, penalty };
        let s = score(&[m], dl, &[i]);
        prop_assert!(s >= 0.0);
        prop_assert!(s <= 1.0 + 1e-9, "score {s}");
    }

    /// Searching for any token of any indexed document finds that
    /// document (completeness of the inverted index).
    #[test]
    fn search_is_complete(docs in proptest::collection::vec("[a-zA-Z]{3,8}( [a-zA-Z]{3,8}){0,3}", 1..12)) {
        let attr = ColRef::new(TableId(0), 0);
        let index = TextIndex::from_documents(
            docs.iter()
                .enumerate()
                .map(|(i, d)| (attr, i as u32, Arc::from(d.as_str()))),
        );
        let opts = SearchOptions::default();
        for (i, doc) in docs.iter().enumerate() {
            for word in doc.split_whitespace() {
                let hits = index.search_keyword(word, &opts);
                prop_assert!(
                    hits.iter().any(|h| h.doc.0 == i as u32),
                    "doc {i} not found for its own token {word}"
                );
            }
        }
    }

    /// Phrase hits are a subset of conjunctive keyword hits.
    #[test]
    fn phrase_hits_subset_of_keyword_hits(
        docs in proptest::collection::vec("[a-z]{3,6}( [a-z]{3,6}){1,4}", 1..10)
    ) {
        let attr = ColRef::new(TableId(0), 0);
        let index = TextIndex::from_documents(
            docs.iter()
                .enumerate()
                .map(|(i, d)| (attr, i as u32, Arc::from(d.as_str()))),
        );
        let opts = SearchOptions { prefix: false, ..SearchOptions::default() };
        // Use the first two words of the first doc as the phrase.
        let words: Vec<&str> = docs[0].split_whitespace().collect();
        let phrase_hits = index.search_phrase(&[words[0], words[1]], &opts);
        let h1: Vec<u32> = index.search_keyword(words[0], &opts).iter().map(|h| h.doc.0).collect();
        let h2: Vec<u32> = index.search_keyword(words[1], &opts).iter().map(|h| h.doc.0).collect();
        for ph in &phrase_hits {
            prop_assert!(h1.contains(&ph.doc.0));
            prop_assert!(h2.contains(&ph.doc.0));
        }
        // The source document itself always matches its own leading phrase.
        prop_assert!(phrase_hits.iter().any(|h| h.doc.0 == 0));
    }
}
