//! Workspace-level facade re-exporting the KDAP crates, used by the
//! `examples/` binaries and the cross-crate integration tests.
//!
//! ```
//! use kdap_suite::core::{Kdap, QueryRequest, Verb};
//! use kdap_suite::datagen::{build_ebiz, EbizScale};
//!
//! let kdap = Kdap::builder(build_ebiz(EbizScale::small(), 7).unwrap()).build().unwrap();
//! let response = kdap.run(&QueryRequest::new(Verb::Differentiate, "seattle")).unwrap();
//! assert!(!response.ranked.is_empty());
//! ```

#![forbid(unsafe_code)]

/// README.md's code blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use kdap_core as core;
pub use kdap_datagen as datagen;
pub use kdap_obs as obs;
pub use kdap_query as query;
pub use kdap_server as server;
pub use kdap_textindex as textindex;
pub use kdap_warehouse as warehouse;
