//! Experiment E15 — what the kernel tiers buy.
//!
//! `kdap_warehouse::kernel` keeps hand-written AVX2 for exactly three
//! kernels, each behind a keep-bar: an arm stays only while it measures
//! [`KEEP_BAR`]× over the Scalar tier (safe Rust) on this bench. The
//! Scalar tier's own fixed-trip unpack is held to the same bar over the
//! div/mod loop it replaced (the oracle of `tests/simd_equivalence.rs`,
//! repeated here). All sides are bit-identical; this binary measures
//! time only.
//!
//! Rows, each interleaved round-robin with the best round kept, so
//! frequency drift cancels:
//!
//! 1. `decode/<bits>b` — bulk unpack of one sealed chunk at each bit
//!    width: oracle, Scalar tier, dispatched.
//! 2. `bitmap/popcount`, `bitmap/run_starts` — the two canonicalization
//!    counts over one container-sized word block: Scalar tier, dispatched.
//!
//! With `--check`, the run exits nonzero unless every row's dispatched
//! side reaches the bar over Scalar (skipped when the active tier *is*
//! Scalar, where both sides run the same code) and every decode row's
//! Scalar side reaches it over the oracle.
//!
//! A full run writes `results/BENCH_simd.json` (the committed copy);
//! `--small` is a smoke run and writes `target/BENCH_simd.json`.
//!
//! Run:
//!   cargo run --release -p kdap-bench --bin exp_simd
//!   cargo run --release -p kdap-bench --bin exp_simd -- --small --check

use std::time::Instant;

use kdap_bench::{host_json, print_table};
use kdap_warehouse::kernel::{self, KernelTier};

/// The speedup a SIMD arm (or the fixed-trip unpack) must show to stay.
const KEEP_BAR: f64 = 1.5;

/// One kernel's timings, best round each, in ms.
struct Row {
    name: String,
    /// The div/mod loop; decode rows only.
    oracle_ms: Option<f64>,
    scalar_ms: f64,
    dispatched_ms: f64,
    /// Work units per call (codes, words) for throughput context.
    units: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar_ms / self.dispatched_ms
    }

    fn scalar_over_oracle(&self) -> Option<f64> {
        self.oracle_ms.map(|o| o / self.scalar_ms)
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

/// The unpack the Scalar tier replaced: a divide, a modulo, a shift and a
/// mask per code.
fn unpack_words_oracle(words: &[u64], bits: u8, len: usize, out: &mut [u32]) {
    let bits = bits as usize;
    let per_word = 64 / bits;
    let mask = (1u64 << bits) - 1;
    for (i, slot) in out[..len].iter_mut().enumerate() {
        *slot = ((words[i / per_word] >> ((i % per_word) * bits)) & mask) as u32;
    }
}

fn bench_decode(repeats: usize, iters: usize, out: &mut Vec<Row>) {
    const LEN: usize = 1 << 16; // one sealed chunk of codes
    for bits in [1u8, 2, 4, 8, 16, 32] {
        let per_word = 64 / bits as usize;
        let src = words(LEN.div_ceil(per_word), bits as u64);
        let mut buf = vec![0u32; LEN];
        let [oracle_ms, scalar_ms, dispatched_ms] = best_of(repeats, |side| {
            for _ in 0..iters {
                match side {
                    0 => unpack_words_oracle(&src, bits, LEN, &mut buf),
                    1 => kernel::unpack_words_scalar(&src, bits, LEN, &mut buf),
                    _ => kernel::unpack_words(&src, bits, LEN, &mut buf),
                }
                std::hint::black_box(&mut buf);
            }
        });
        out.push(Row {
            name: format!("decode/{bits}b"),
            oracle_ms: Some(oracle_ms),
            scalar_ms,
            dispatched_ms,
            units: (LEN * iters) as u64,
        });
    }
}

fn bench_counts(repeats: usize, iters: usize, out: &mut Vec<Row>) {
    const WORDS: usize = 1024; // one bitmap container
    let a = words(WORDS, 7);
    type Count = fn(&[u64]) -> usize;
    let kernels: [(&str, Count, Count); 2] = [
        (
            "bitmap/popcount",
            kernel::popcount_words_scalar,
            kernel::popcount_words,
        ),
        (
            "bitmap/run_starts",
            kernel::count_run_starts_scalar,
            kernel::count_run_starts,
        ),
    ];
    for (name, scalar, dispatched) in kernels {
        let mut acc = 0usize;
        let [scalar_ms, dispatched_ms] = best_of(repeats, |side| {
            let count = if side == 0 { scalar } else { dispatched };
            for _ in 0..iters {
                acc = acc.wrapping_add(count(std::hint::black_box(&a)));
            }
            std::hint::black_box(acc);
        });
        out.push(Row {
            name: name.to_string(),
            oracle_ms: None,
            scalar_ms,
            dispatched_ms,
            units: (WORDS * iters) as u64,
        });
    }
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
    let micro_iters = if small { 50 } else { 400 };

    let active = kernel::active_tier();
    println!(
        "## E15 — kernel tiers (detected {}, active {active}, features [{}])\n",
        kernel::detected_tier(),
        kernel::detected_features().join(", ")
    );
    if active == KernelTier::Scalar {
        println!(
            "active tier is Scalar ({}): dispatched ≡ scalar, so only the scalar-over-oracle \
             gate applies\n",
            if kernel::simd_disabled_by_env() {
                "KDAP_NO_SIMD set"
            } else {
                "no AVX2 detected"
            }
        );
    }

    let mut rows = Vec::new();
    bench_decode(repeats, micro_iters, &mut rows);
    bench_counts(repeats, micro_iters * 16, &mut rows);

    let ms = |v: f64| format!("{v:.3}");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.oracle_ms.map_or("—".to_string(), ms),
                ms(r.scalar_ms),
                ms(r.dispatched_ms),
                r.scalar_over_oracle()
                    .map_or("—".to_string(), |x| format!("{x:.2}x")),
                format!("{:.2}x", r.speedup()),
                format!("{:.0}", r.units as f64 / (r.dispatched_ms * 1e3)),
            ]
        })
        .collect();
    print_table(
        &[
            "kernel",
            "oracle ms",
            "scalar ms",
            "dispatched ms",
            "scalar/oracle",
            "dispatched/scalar",
            "Munits/s",
        ],
        &table,
    );

    let json = render_json(&rows, repeats, small);
    let path = if small {
        "target/BENCH_simd.json"
    } else {
        "results/BENCH_simd.json"
    };
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if check {
        let mut failures = Vec::new();
        for r in &rows {
            if active != KernelTier::Scalar && r.speedup() < KEEP_BAR {
                failures.push(format!(
                    "{} {active} {:.2}x over scalar",
                    r.name,
                    r.speedup()
                ));
            }
            if let Some(x) = r.scalar_over_oracle().filter(|&x| x < KEEP_BAR) {
                failures.push(format!("{} scalar {x:.2}x over oracle", r.name));
            }
        }
        assert!(
            failures.is_empty(),
            "below the {KEEP_BAR}x keep-bar: {}",
            failures.join("; ")
        );
        println!("\ncheck passed: every gated ratio ≥ {KEEP_BAR}x (tier {active})");
    }
}

fn render_json(rows: &[Row], repeats: usize, small: bool) -> String {
    let num = |v: Option<f64>, digits: usize| match v {
        Some(v) => format!("{v:.digits$}"),
        None => "null".to_string(),
    };
    let kernels: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"oracle_ms\": {}, \"scalar_ms\": {:.4}, \
                 \"dispatched_ms\": {:.4}, \"scalar_over_oracle\": {}, \
                 \"dispatched_over_scalar\": {:.3}, \"units_per_call\": {}}}",
                r.name,
                num(r.oracle_ms, 4),
                r.scalar_ms,
                r.dispatched_ms,
                num(r.scalar_over_oracle(), 3),
                r.speedup(),
                r.units,
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"E15\",\n  \"profile\": \"{}\",\n  \"host\": {},\n  \
         \"repeats\": {repeats},\n  \"keep_bar\": {KEEP_BAR},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        if small { "smoke" } else { "full" },
        host_json(),
        kernels.join(",\n"),
    )
}
