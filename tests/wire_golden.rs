//! Golden wire corpus: request → response byte pairs, so `cargo test`
//! alone can referee a change that must not move the wire format.
//!
//! The files under `tests/golden/wire/` were written at commit 74bb8ad
//! (the parent of the PR that added `refine` to the request) by running
//! this same case table with `std::fs::write` in place of the comparison
//! in [`check`]. A request that carries no `refine` must still encode to
//! exactly these bytes; extend the table and regenerate the same way
//! when the wire format changes on purpose.
//!
//! Every case runs in a fresh serial session (subspace cache on,
//! observability off), so the cache counters inside `explain` reports
//! and the empty `profile` tree are deterministic. Two typed errors are
//! not byte-stable from a request body and stay with `server_api.rs`:
//! the 408's message carries the measured elapsed milliseconds, and a
//! 499 needs a client that hangs up.

use std::path::PathBuf;
use std::sync::OnceLock;

use kdap_suite::core::{ApiError, Kdap, QueryRequest, Verb, WireFormat};
use kdap_suite::datagen::{build_aw_online, build_ebiz, EbizScale, Scale};
use kdap_suite::warehouse::Warehouse;

#[derive(Clone, Copy)]
enum Fixture {
    /// EBiz small, seed 7.
    Ebiz,
    /// AW_ONLINE small, seed 42.
    Aw,
}

fn warehouse(fixture: Fixture) -> Warehouse {
    static EBIZ: OnceLock<Warehouse> = OnceLock::new();
    static AW: OnceLock<Warehouse> = OnceLock::new();
    match fixture {
        Fixture::Ebiz => EBIZ.get_or_init(|| build_ebiz(EbizScale::small(), 7).unwrap()),
        Fixture::Aw => AW.get_or_init(|| build_aw_online(Scale::small(), 42).unwrap()),
    }
    .clone()
}

use Fixture::{Aw, Ebiz};
use WireFormat::{Csv, Json};

/// (golden file, fixture, verb, response format, request body).
const CASES: &[(&str, Fixture, Verb, WireFormat, &str)] = &[
    (
        "ebiz_differentiate.json",
        Ebiz,
        Verb::Differentiate,
        Json,
        r#"{"keywords": "columbus lcd"}"#,
    ),
    (
        "ebiz_explore.json",
        Ebiz,
        Verb::Explore,
        Json,
        r#"{"keywords": "seattle lcd"}"#,
    ),
    (
        "ebiz_profile.json",
        Ebiz,
        Verb::Profile,
        Json,
        r#"{"keywords": "seattle lcd"}"#,
    ),
    (
        "ebiz_explain.json",
        Ebiz,
        Verb::Explain,
        Json,
        r#"{"keywords": "seattle lcd"}"#,
    ),
    (
        "aw_differentiate.json",
        Aw,
        Verb::Differentiate,
        Json,
        r#"{"keywords": "mountain bikes", "limit": 0}"#,
    ),
    (
        "aw_explore.json",
        Aw,
        Verb::Explore,
        Json,
        r#"{"keywords": "mountain"}"#,
    ),
    (
        "aw_profile.json",
        Aw,
        Verb::Profile,
        Json,
        r#"{"keywords": "mountain"}"#,
    ),
    (
        "aw_explain.json",
        Aw,
        Verb::Explain,
        Json,
        r#"{"keywords": "mountain bikes", "pick": 2}"#,
    ),
    (
        "ebiz_explore_options.json",
        Ebiz,
        Verb::Explore,
        Json,
        r#"{"keywords": "seattle", "pick": 3, "limit": 2, "rank": "baseline",
            "mode": "bellwether", "order": "consistent", "agg": "avg",
            "top_k_attrs": 2, "top_k_instances": 3}"#,
    ),
    (
        "ebiz_differentiate.csv",
        Ebiz,
        Verb::Differentiate,
        Csv,
        r#"{"keywords": "columbus lcd"}"#,
    ),
    (
        "aw_explore.csv",
        Aw,
        Verb::Explore,
        Csv,
        r#"{"keywords": "mountain"}"#,
    ),
    (
        "err_bad_request.json",
        Ebiz,
        Verb::Explore,
        Json,
        r#"{"keywords": "columbus", "pick": 0}"#,
    ),
    (
        "err_empty_query.json",
        Ebiz,
        Verb::Differentiate,
        Json,
        r#"{"keywords": "the and of"}"#,
    ),
    (
        "err_no_interpretation.json",
        Ebiz,
        Verb::Explore,
        Json,
        r#"{"keywords": "columbus", "pick": 99}"#,
    ),
    (
        "err_budget_exceeded.json",
        Aw,
        Verb::Explore,
        Json,
        r#"{"keywords": "mountain", "budget_bytes": 1}"#,
    ),
    (
        "err_not_acceptable.json",
        Ebiz,
        Verb::Explain,
        Csv,
        r#"{"keywords": "columbus"}"#,
    ),
];

/// What the HTTP edge answers for `body`: the encoded response, or the
/// JSON body of the typed error.
fn answer(fixture: Fixture, verb: Verb, format: WireFormat, body: &str) -> String {
    let kdap = Kdap::builder(warehouse(fixture))
        .cache_capacity(16)
        .build()
        .unwrap();
    QueryRequest::from_json(verb, body)
        .and_then(|request| kdap.run(&request).map_err(|e| ApiError::from_kdap(&e)))
        .and_then(|response| response.encode(format))
        .unwrap_or_else(|e| e.to_json())
}

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/wire")
        .join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(actual, expected, "{name} moved on the wire");
}

#[test]
fn requests_without_refine_encode_to_the_parent_commits_bytes() {
    for &(name, fixture, verb, format, body) in CASES {
        check(name, &answer(fixture, verb, format, body));
    }
}
