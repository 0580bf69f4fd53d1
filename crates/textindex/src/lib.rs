//! # kdap-textindex
//!
//! Full-text engine over *attribute-instance* virtual documents — the
//! Lucene substitute for the KDAP reproduction (SIGMOD 2007, §3).
//!
//! Every distinct value of every searchable column becomes a virtual
//! document identified by `(TabName, AttrID, value)`. Search supports
//! Porter stemming, prefix/partial matching, positional phrase queries,
//! and Lucene-classic TF-IDF scoring normalized to `(0, 1]`.
//!
//! ```
//! use kdap_textindex::{TextIndex, SearchOptions};
//! use kdap_warehouse::{ColRef, TableId};
//! use std::sync::Arc;
//!
//! let attr = ColRef::new(TableId(0), 1);
//! let idx = TextIndex::from_documents(vec![
//!     (attr, 0, Arc::from("Mountain Bikes")),
//!     (attr, 1, Arc::from("Touring Bikes")),
//! ]);
//! let hits = idx.search_keyword("mountain", &SearchOptions::default());
//! assert_eq!(idx.doc(hits[0].doc).text.as_ref(), "Mountain Bikes");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

#[cfg(test)]
mod build_oracle;
pub mod doc;
pub mod index;
pub mod scoring;
pub mod search;
pub mod stemmer;
pub mod tokenizer;

pub use doc::{DocId, DocMeta};
pub use index::{Posting, TextIndex, TextIndexStats};
pub use search::{SearchHit, SearchOptions};
pub use stemmer::stem;
pub use tokenizer::{tokenize, tokenize_terms, Token};
