//! `exp_ablation_index` prints what `results/exp_ablation_index.txt`
//! holds, byte for byte: a moved count needs a deliberate commit of the
//! regenerated file (`cargo run --release -p kdap-bench --bin
//! exp_ablation_index > results/exp_ablation_index.txt`).

use std::process::Command;

#[test]
fn exp_ablation_index_output_matches_results() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_ablation_index"))
        .output()
        .expect("exp_ablation_index runs");
    assert!(out.status.success(), "exp_ablation_index failed: {out:?}");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/exp_ablation_index.txt"
    );
    let want = std::fs::read_to_string(path).expect("results/exp_ablation_index.txt");
    let got = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(got == want, "exp_ablation_index output moved:\n{got}");
}
