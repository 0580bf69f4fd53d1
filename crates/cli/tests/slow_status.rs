//! `kdap slow` files each stdin query in its ledger under the status the
//! server would answer it with: a keyword nothing in the demo warehouse
//! matches is a 404 `no_interpretation`, as over HTTP.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn a_query_without_interpretations_is_filed_as_404() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kdap"))
        .args(["--demo", "ebiz", "slow", "--json"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the kdap binary starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"zzqxv\n")
        .expect("stdin accepts the query");
    let out = child.wait_with_output().expect("kdap slow exits");
    assert!(out.status.success(), "{:?}", out.status);
    let ledger = String::from_utf8(out.stdout).expect("utf-8");
    assert!(ledger.contains(r#""keywords": "zzqxv""#), "{ledger}");
    assert!(ledger.contains(r#""status": 404"#), "{ledger}");
    assert!(!ledger.contains("breach"), "{ledger}");
}
