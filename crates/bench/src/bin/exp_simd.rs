//! Experiment E15 — what the fixed-trip unpack buys.
//!
//! `kdap_warehouse::kernel::unpack_words` decodes one packed word per
//! fixed-trip loop, which LLVM vectorizes at the target's baseline
//! width. It stays only while it measures [`KEEP_BAR`]× over the div/mod
//! loop it replaced (the oracle of `tests/simd_equivalence.rs`, repeated
//! here). Both sides are bit-identical; this binary measures time only.
//!
//! One row per bit width: bulk unpack of one sealed chunk, the two sides
//! interleaved round-robin with the best round kept, so frequency drift
//! cancels. With `--check`, the run exits nonzero unless every width's
//! unpack reaches the bar over the oracle.
//!
//! A full run writes `results/BENCH_simd.json` (the committed copy);
//! `--small` is a smoke run and writes `target/BENCH_simd.json`.
//!
//! Run:
//!   cargo run --release -p kdap-bench --bin exp_simd
//!   cargo run --release -p kdap-bench --bin exp_simd -- --small --check

use std::time::Instant;

use kdap_bench::{bench_json, print_table, write_bench_json};
use kdap_obs::Layout;
use kdap_warehouse::kernel;

/// The speedup the fixed-trip unpack must show over the oracle to stay.
const KEEP_BAR: f64 = 1.5;

/// One bit width's timings, best round each, in ms.
struct Row {
    bits: u8,
    oracle_ms: f64,
    unpack_ms: f64,
    /// Codes decoded per call, for throughput context.
    units: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.oracle_ms / self.unpack_ms
    }
}

/// Interleaves `run(0)`, …, `run(N - 1)` for `repeats` rounds and keeps
/// each side's best, in ms.
fn best_of<const N: usize>(repeats: usize, mut run: impl FnMut(usize)) -> [f64; N] {
    let mut best = [f64::MAX; N];
    for _ in 0..repeats {
        for (side, slot) in best.iter_mut().enumerate() {
            let t0 = Instant::now();
            run(side);
            *slot = slot.min(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    best
}

/// Deterministic pseudo-random words (splitmix64).
fn words(n: usize, mut seed: u64) -> Vec<u64> {
    (0..n)
        .map(|_| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// The unpack the fixed-trip loop replaced: a divide, a modulo, a shift and a
/// mask per code.
fn unpack_words_oracle(words: &[u64], bits: u8, len: usize, out: &mut [u32]) {
    let bits = bits as usize;
    let per_word = 64 / bits;
    let mask = (1u64 << bits) - 1;
    for (i, slot) in out[..len].iter_mut().enumerate() {
        *slot = ((words[i / per_word] >> ((i % per_word) * bits)) & mask) as u32;
    }
}

fn bench_decode(repeats: usize, iters: usize) -> Vec<Row> {
    const LEN: usize = 1 << 16; // one sealed chunk of codes
    let mut rows = Vec::new();
    for bits in [1u8, 2, 4, 8, 16, 32] {
        let per_word = 64 / bits as usize;
        let src = words(LEN.div_ceil(per_word), bits as u64);
        let mut buf = vec![0u32; LEN];
        let [oracle_ms, unpack_ms] = best_of(repeats, |side| {
            for _ in 0..iters {
                if side == 0 {
                    unpack_words_oracle(&src, bits, LEN, &mut buf);
                } else {
                    kernel::unpack_words(&src, bits, LEN, &mut buf);
                }
                std::hint::black_box(&mut buf);
            }
        });
        rows.push(Row {
            bits,
            oracle_ms,
            unpack_ms,
            units: (LEN * iters) as u64,
        });
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a.contains("small"));
    let check = args.iter().any(|a| a == "--check");
    let repeats: usize = args
        .iter()
        .find_map(|a| a.strip_prefix("--repeats="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if small { 3 } else { 9 });
    let iters = if small { 50 } else { 400 };

    println!(
        "## E15 — fixed-trip unpack over the div/mod oracle (features [{}])\n",
        kernel::detected_features().join(", ")
    );
    let rows = bench_decode(repeats, iters);

    let ms = |v: f64| format!("{v:.3}");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("decode/{}b", r.bits),
                ms(r.oracle_ms),
                ms(r.unpack_ms),
                format!("{:.2}x", r.speedup()),
                format!("{:.0}", r.units as f64 / (r.unpack_ms * 1e3)),
            ]
        })
        .collect();
    print_table(
        &[
            "kernel",
            "oracle ms",
            "unpack ms",
            "unpack/oracle",
            "Mcodes/s",
        ],
        &table,
    );

    write_bench_json(
        "BENCH_simd.json",
        small,
        &render_json(&rows, repeats, small),
    );

    if check {
        let failures: Vec<String> = rows
            .iter()
            .filter(|r| r.speedup() < KEEP_BAR)
            .map(|r| format!("decode/{}b {:.2}x over oracle", r.bits, r.speedup()))
            .collect();
        assert!(
            failures.is_empty(),
            "below the {KEEP_BAR}x keep-bar: {}",
            failures.join("; ")
        );
        println!("\ncheck passed: every width's unpack ≥ {KEEP_BAR}x over the oracle");
    }
}

fn render_json(rows: &[Row], repeats: usize, small: bool) -> String {
    bench_json("E15", small, |w| {
        w.key("repeats").int(repeats).key("keep_bar").f64(KEEP_BAR);
        w.key("kernels").array(Layout::Block, |w| {
            for r in rows {
                w.object(Layout::Inline, |w| {
                    w.key("name").str(&format!("decode/{}b", r.bits));
                    w.key("oracle_ms").fixed(r.oracle_ms, 4);
                    w.key("unpack_ms").fixed(r.unpack_ms, 4);
                    w.key("unpack_over_oracle").fixed(r.speedup(), 3);
                    w.key("units_per_call").int(r.units);
                });
            }
        });
    })
}
