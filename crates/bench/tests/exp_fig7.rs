//! `exp_fig7` prints what `results/exp_fig7.txt` holds, byte for byte: a
//! moved convergence curve or optimum needs a deliberate commit of the
//! regenerated file (`cargo run --release -p kdap-bench --bin exp_fig7 >
//! results/exp_fig7.txt`).

use std::process::Command;

#[test]
fn exp_fig7_output_matches_results() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_fig7"))
        .output()
        .expect("exp_fig7 runs");
    assert!(out.status.success(), "exp_fig7 failed: {out:?}");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/exp_fig7.txt");
    let want = std::fs::read_to_string(path).expect("results/exp_fig7.txt");
    let got = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(got == want, "exp_fig7 output moved:\n{got}");
}
