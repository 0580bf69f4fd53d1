//! Experiment E15 — vectorized kernel layer speedups.
//!
//! The engine's hot loops run through runtime-dispatched batch kernels
//! (`kdap_warehouse::kernel`, `kdap_query::kernel`): bulk bit-unpack of
//! packed dictionary codes, bitmap word ops and canonicalization counts,
//! and f64 measure gathers. Every kernel has a `_scalar` twin that is
//! bit-identical (`tests/simd_equivalence.rs` proves it); this binary
//! measures what the SIMD tiers buy over that reference on the current
//! host.
//!
//! Three micro-kernel families are timed, each interleaved
//! scalar/dispatched round-robin with the best round kept, so frequency
//! drift cancels:
//!
//! 1. `decode/<bits>` — bulk unpack of packed codes at each bit width.
//! 2. `bitmap/*` — AND/OR/ANDNOT and popcount over container-sized
//!    word blocks.
//! 3. `gather` — measure gather through a shuffled index vector.
//!
//! With `--check`, the run exits nonzero unless every `decode/*` kernel
//! and `bitmap/popcount` — the kernels whose SIMD paths are kept on
//! measured speedup — reach `KDAP_SIMD_MIN_SPEEDUP` (default 2.0×);
//! skipped automatically when the host's active tier is Scalar, where
//! both sides run the same code.
//!
//! Run:
//!   cargo run --release -p kdap-bench --bin exp_simd
//!   cargo run --release -p kdap-bench --bin exp_simd -- --small --check

use std::time::Instant;

use kdap_bench::print_table;
use kdap_query::kernel as qkernel;
use kdap_warehouse::kernel as wkernel;

/// One scalar-vs-dispatched measurement.
struct Pair {
    name: String,
    scalar_ms: f64,
    simd_ms: f64,
    /// Work units per call (codes, words, rows) for throughput context.
    units: u64,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.scalar_ms / self.simd_ms
    }
}

/// Interleaves scalar (`run(true)`) and dispatched (`run(false)`) rounds
/// `repeats` times and keeps each side's best, in ms.
fn best_of(repeats: usize, mut run: impl FnMut(bool)) -> (f64, f64) {
    let mut best_scalar = f64::MAX;
    let mut best_simd = f64::MAX;
    for _ in 0..repeats {
        let t0 = Instant::now();
        run(true);
        best_scalar = best_scalar.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        run(false);
        best_simd = best_simd.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best_scalar, best_simd)
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

fn bench_decode(repeats: usize, iters: usize, out: &mut Vec<Pair>) {
    const LEN: usize = 1 << 16; // one sealed chunk of codes
    for bits in [1u8, 2, 4, 8, 16, 32] {
        let per_word = 64 / bits as usize;
        let src = words(LEN.div_ceil(per_word), bits as u64);
        let mut buf = vec![0u32; LEN];
        let (scalar_ms, simd_ms) = best_of(repeats, |scalar| {
            for _ in 0..iters {
                if scalar {
                    wkernel::unpack_words_scalar(&src, bits, LEN, &mut buf);
                } else {
                    wkernel::unpack_words(&src, bits, LEN, &mut buf);
                }
            }
            std::hint::black_box(&buf);
        });
        out.push(Pair {
            name: format!("decode/{bits}b"),
            scalar_ms,
            simd_ms,
            units: (LEN * iters) as u64,
        });
    }
}

fn bench_bitmap(repeats: usize, iters: usize, out: &mut Vec<Pair>) {
    const WORDS: usize = 1024; // one bitmap container
    let a = words(WORDS, 7);
    let b = words(WORDS, 11);
    let mut dst = a.clone();
    type WordOp = fn(&mut [u64], &[u64]);
    let ops: [(&str, WordOp, WordOp); 3] = [
        ("bitmap/and", qkernel::and_words_scalar, qkernel::and_words),
        ("bitmap/or", qkernel::or_words_scalar, qkernel::or_words),
        (
            "bitmap/andnot",
            qkernel::andnot_words_scalar,
            qkernel::andnot_words,
        ),
    ];
    for (name, scalar_op, simd_op) in ops {
        let (scalar_ms, simd_ms) = best_of(repeats, |scalar| {
            for _ in 0..iters {
                dst.copy_from_slice(&a);
                if scalar {
                    scalar_op(&mut dst, &b);
                } else {
                    simd_op(&mut dst, &b);
                }
            }
            std::hint::black_box(&dst);
        });
        out.push(Pair {
            name: name.to_string(),
            scalar_ms,
            simd_ms,
            units: (WORDS * iters) as u64,
        });
    }
    let mut acc = 0usize;
    let (scalar_ms, simd_ms) = best_of(repeats, |scalar| {
        for _ in 0..iters {
            acc = acc.wrapping_add(if scalar {
                qkernel::popcount_words_scalar(&a)
            } else {
                qkernel::popcount_words(&a)
            });
        }
        std::hint::black_box(acc);
    });
    out.push(Pair {
        name: "bitmap/popcount".to_string(),
        scalar_ms,
        simd_ms,
        units: (WORDS * iters) as u64,
    });
}

fn bench_gather(repeats: usize, iters: usize, out: &mut Vec<Pair>) {
    const N: usize = 1 << 16;
    let values: Vec<f64> = (0..N).map(|i| i as f64 * 0.5).collect();
    let idx: Vec<u32> = words(N, 13)
        .into_iter()
        .map(|w| (w % N as u64) as u32)
        .collect();
    let mut buf = vec![0.0f64; N];
    let (scalar_ms, simd_ms) = best_of(repeats, |scalar| {
        for _ in 0..iters {
            if scalar {
                qkernel::gather_f64_scalar(&values, &idx, &mut buf);
            } else {
                qkernel::gather_f64(&values, &idx, &mut buf);
            }
        }
        std::hint::black_box(&buf);
    });
    out.push(Pair {
        name: "gather".to_string(),
        scalar_ms,
        simd_ms,
        units: (N * iters) as u64,
    });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a.contains("small"));
    let check = args.iter().any(|a| a == "--check");
    let repeats: usize = args
        .iter()
        .find_map(|a| a.strip_prefix("--repeats="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if small { 3 } else { 7 });
    let min_speedup: f64 = std::env::var("KDAP_SIMD_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let micro_iters = if small { 50 } else { 400 };

    let detected = wkernel::detected_tier();
    let active = wkernel::active_tier();
    println!(
        "## E15 — vectorized kernels (detected {detected}, active {active}, features [{}])\n",
        wkernel::detected_features().join(", ")
    );
    if active.is_scalar() {
        println!(
            "active tier is Scalar ({}): speedups will be ~1.0× and the --check gate is skipped",
            if wkernel::simd_disabled_by_env() {
                "KDAP_NO_SIMD set"
            } else {
                "no SIMD support detected"
            }
        );
    }

    let mut pairs = Vec::new();
    bench_decode(repeats, micro_iters, &mut pairs);
    bench_bitmap(repeats, micro_iters * 16, &mut pairs);
    bench_gather(repeats, micro_iters, &mut pairs);

    let mut rows_out = Vec::new();
    for p in &pairs {
        let throughput = p.units as f64 / (p.simd_ms * 1e3); // Munits/s
        rows_out.push(vec![
            p.name.clone(),
            format!("{:.3}", p.scalar_ms),
            format!("{:.3}", p.simd_ms),
            format!("{:.2}x", p.speedup()),
            format!("{:.0}", throughput),
        ]);
    }
    print_table(
        &["kernel", "scalar ms", "simd ms", "speedup", "Munits/s"],
        &rows_out,
    );

    let gated = pairs
        .iter()
        .filter(|p| p.name.starts_with("decode/") || p.name == "bitmap/popcount")
        .min_by(|a, b| a.speedup().total_cmp(&b.speedup()))
        .expect("gated kernels were measured");
    println!(
        "\nslowest gated kernel: {} at {:.2}x over scalar (gate {:.1}x, tier {active})",
        gated.name,
        gated.speedup(),
        min_speedup
    );

    let json = render_json(&pairs, repeats, min_speedup);
    let path = "results/BENCH_simd.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if check {
        if active.is_scalar() {
            println!("check skipped: no SIMD tier active on this host");
            return;
        }
        assert!(
            gated.speedup() >= min_speedup,
            "{} speedup {:.2}x below the {:.1}x gate",
            gated.name,
            gated.speedup(),
            min_speedup
        );
        println!("check passed: decode and popcount ≥ {min_speedup:.1}x");
    }
}

fn render_json(pairs: &[Pair], repeats: usize, min_speedup: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"E15\",\n");
    out.push_str(&format!(
        "  \"detected_tier\": \"{}\",\n  \"active_tier\": \"{}\",\n",
        wkernel::detected_tier().name(),
        wkernel::active_tier().name()
    ));
    out.push_str(&format!(
        "  \"features\": [{}],\n",
        wkernel::detected_features()
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("  \"repeats\": {repeats},\n"));
    out.push_str(&format!("  \"min_speedup\": {min_speedup},\n"));
    out.push_str("  \"kernels\": [\n");
    for (i, p) in pairs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_ms\": {:.4}, \"simd_ms\": {:.4}, \
             \"speedup\": {:.3}, \"units_per_call\": {}}}{}\n",
            p.name,
            p.scalar_ms,
            p.simd_ms,
            p.speedup(),
            p.units,
            if i + 1 < pairs.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
