//! A scripted console session on `--demo ebiz --small`, compared with a
//! committed transcript: `pick`, `drill`, `up`, `drop`, `mode`, `order`
//! and `explain` are all one `QueryRequest` through `Kdap::run`, and what
//! they print is pinned here line for line.
//!
//! The transcript is this build's output. Against the parent commit's
//! console (which held a `StarNet` and drilled along the *first* join
//! path to the facet's table) the same script differs only where the
//! `drill 2 1` below — an ACCOUNT facet aggregated on the Seller role —
//! is in the net. `mode` and `order` ask for the same net under other
//! options, which recomputes and replaces its session-cache entry; and
//! `explain` prints the request's stage tree, rerunning the stages
//! without looking the answer up, so `stats` reads 0 subspace-cache
//! hits / 7 misses.

use kdap_cli::{Command, Repl};
use kdap_core::Kdap;
use kdap_datagen::{build_ebiz, EbizScale};

const SCRIPT: &str = "\
q columbus
pick 3
drill 2 1
up 1
drop 2
drill 4 1
mode bellwether
order consistent
explain
show
drill 3 1
up 9
pick 9
stats
quit
";

#[test]
fn scripted_session_matches_the_committed_transcript() {
    let wh = build_ebiz(EbizScale::small(), 42).expect("generator is valid");
    let kdap = Kdap::builder(wh)
        .cache_capacity(64)
        .build()
        .expect("measure defined");
    let mut repl = Repl::new(kdap);
    let mut out = Vec::new();
    for line in SCRIPT.lines() {
        out.extend_from_slice(format!("kdap> {line}\n").as_bytes());
        let cmd = Command::parse(line).expect("the script is valid");
        if !repl.execute(cmd, &mut out).expect("writes to a Vec") {
            break;
        }
    }
    let transcript = String::from_utf8(out).expect("utf-8");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/repl_ebiz_small.txt"
    );
    let expected = std::fs::read_to_string(golden).expect("committed transcript");
    assert_eq!(transcript, expected, "console output moved");
}
