//! The engine's bulk-decode kernel and the null-bitmap helpers around
//! it.
//!
//! There is one implementation, in safe Rust: [`unpack_words`] decodes
//! one packed word per fixed-trip loop, which LLVM vectorizes at the
//! target's baseline width. It stays only while it measures at least
//! 1.5× over the div/mod loop it replaced on the E15 bench
//! (`exp_simd --check`); everything else the engine does over words or
//! rows — bitmap AND and counts, the measure gather — is a plain loop at
//! its call site. `tests/simd_equivalence.rs` holds the unpack to an
//! independent div/mod oracle, property-style.

use std::ops::Range;
use std::sync::OnceLock;

/// Sentinel stored in unpacked code buffers for NULL rows. Real codes are
/// bounded by dictionary cardinality (and by 32-bit packing), so
/// `u32::MAX` can never collide with a live code.
pub const NULL_CODE: u32 = u32::MAX;

/// The kernel implementation a process runs. There is one; the type and
/// [`active_tier`] remain because the frozen end-to-end benchmark harness
/// (`kdap_bench`) stamps `active_tier().name()` into every record it
/// writes.
#[derive(Debug, Clone, Copy)]
pub enum KernelTier {
    /// Safe Rust, on every host.
    Scalar,
}

impl KernelTier {
    /// Short lowercase name, as benchmark records spell it.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
        }
    }
}

/// The tier kernels run at: always [`KernelTier::Scalar`].
pub fn active_tier() -> KernelTier {
    KernelTier::Scalar
}

/// Runtime-detected CPU features, for stats surfaces and bench host
/// stamps (so numbers are attributable to hardware).
pub fn detected_features() -> &'static [&'static str] {
    static FEATURES: OnceLock<Vec<&'static str>> = OnceLock::new();
    FEATURES.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let mut f = vec!["sse2"];
            if std::arch::is_x86_feature_detected!("sse4.2") {
                f.push("sse4.2");
            }
            if std::arch::is_x86_feature_detected!("popcnt") {
                f.push("popcnt");
            }
            if std::arch::is_x86_feature_detected!("avx") {
                f.push("avx");
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                f.push("avx2");
            }
            if std::arch::is_x86_feature_detected!("bmi2") {
                f.push("bmi2");
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                f.push("avx512f");
            }
            f
        }
        #[cfg(target_arch = "aarch64")]
        {
            vec!["neon"]
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            Vec::new()
        }
    })
}

/// Decodes one full packed word (`64 / bits` codes) into `out`. The match
/// arms have fixed trip counts so LLVM unrolls and auto-vectorizes them at
/// the target's baseline width (SSE2 on x86_64, NEON on aarch64).
#[inline]
fn unpack_full_word(w: u64, bits: usize, out: &mut [u32]) {
    match bits {
        1 => {
            for (j, slot) in out[..64].iter_mut().enumerate() {
                *slot = ((w >> j) & 1) as u32;
            }
        }
        2 => {
            for (j, slot) in out[..32].iter_mut().enumerate() {
                *slot = ((w >> (j * 2)) & 3) as u32;
            }
        }
        4 => {
            for (j, slot) in out[..16].iter_mut().enumerate() {
                *slot = ((w >> (j * 4)) & 0xF) as u32;
            }
        }
        8 => {
            let b = w.to_le_bytes();
            for (j, slot) in out[..8].iter_mut().enumerate() {
                *slot = u32::from(b[j]);
            }
        }
        16 => {
            for (j, slot) in out[..4].iter_mut().enumerate() {
                *slot = ((w >> (j * 16)) & 0xFFFF) as u32;
            }
        }
        _ => {
            out[0] = w as u32;
            out[1] = (w >> 32) as u32;
        }
    }
}

/// Decodes the low `out.len()` codes of one packed word — the final,
/// partial word of an unpack.
#[inline]
fn unpack_partial_word(mut w: u64, bits: usize, out: &mut [u32]) {
    let mask = (1u64 << bits) - 1;
    for slot in out {
        *slot = (w & mask) as u32;
        w >>= bits;
    }
}

/// Decodes `len` codes bit-packed at `bits` per code (slot 0 in the low
/// bits, `64 / bits` codes per word) from `words` into `out[..len]`.
/// `bits` must be one of 1/2/4/8/16/32; panics when `words` or `out` is
/// too short for `len` codes.
pub fn unpack_words(words: &[u64], bits: u8, len: usize, out: &mut [u32]) {
    let bits = bits as usize;
    let per_word = 64 / bits;
    let n_full = len / per_word;
    let (full, tail) = out[..len].split_at_mut(n_full * per_word);
    for (chunk, &w) in full.chunks_exact_mut(per_word).zip(&words[..n_full]) {
        unpack_full_word(w, bits, chunk);
    }
    if !tail.is_empty() {
        unpack_partial_word(words[n_full], bits, tail);
    }
}

/// Overwrites `out[i]` with [`NULL_CODE`] for every set bit `i` in the
/// null bitmap `nulls` (bit `i` of word `i / 64`). Bits at or beyond
/// `out.len()` are ignored.
pub fn apply_null_sentinel(nulls: &[u64], out: &mut [u32]) {
    for (word_idx, &w) in nulls.iter().enumerate() {
        let mut w = w;
        let base = word_idx * 64;
        while w != 0 {
            let i = base + w.trailing_zeros() as usize;
            if i < out.len() {
                out[i] = NULL_CODE;
            }
            w &= w - 1;
        }
    }
}

/// Visits each set-bit index in `nulls` within `range`, in ascending
/// order (helper for callers that walk null bitmaps directly).
pub fn for_each_null<F: FnMut(usize)>(nulls: &[u64], range: Range<usize>, mut f: F) {
    if range.is_empty() {
        return;
    }
    let first_word = range.start / 64;
    let last_word = (range.end - 1) / 64;
    let end_word = (last_word + 1).min(nulls.len());
    for (word_idx, &word) in nulls.iter().enumerate().take(end_word).skip(first_word) {
        let mut w = word;
        let base = word_idx * 64;
        while w != 0 {
            let i = base + w.trailing_zeros() as usize;
            if i >= range.end {
                break;
            }
            if i >= range.start {
                f(i);
            }
            w &= w - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack(codes: &[u32], bits: usize) -> Vec<u64> {
        let per_word = 64 / bits;
        let mut words = vec![0u64; codes.len().div_ceil(per_word)];
        for (i, &c) in codes.iter().enumerate() {
            words[i / per_word] |= u64::from(c) << ((i % per_word) * bits);
        }
        words
    }

    fn codes_for(bits: usize, len: usize) -> Vec<u32> {
        let mask = ((1u64 << bits) - 1) as u32;
        // Deterministic pseudo-random pattern touching the full width.
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2_654_435_761).rotate_left(7) ^ 0x9E37;
                x & mask
            })
            .collect()
    }

    #[test]
    fn unpack_decodes_what_was_packed() {
        for bits in [1usize, 2, 4, 8, 16, 32] {
            // Lengths straddling word boundaries, incl. empty and partial
            // words, and one full sealed chunk.
            for len in [0usize, 1, 7, 63, 64, 65, 128, 333, 1000, 4096 + 13, 65_536] {
                let codes = codes_for(bits, len);
                let words = pack(&codes, bits);
                let mut out = vec![u32::MAX; len];
                unpack_words(&words, bits as u8, len, &mut out);
                assert_eq!(out, codes, "bits={bits} len={len}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn unpack_rejects_a_short_output_buffer() {
        let words = vec![u64::MAX; 4];
        let mut out = vec![0u32; 16];
        unpack_words(&words, 8, 32, &mut out);
    }

    #[test]
    fn null_sentinel_overwrites_set_bits_only() {
        let mut out: Vec<u32> = (0..130).collect();
        let mut nulls = vec![0u64; 3];
        for i in [0usize, 63, 64, 127, 129] {
            nulls[i / 64] |= 1 << (i % 64);
        }
        // A stray bit beyond len must be ignored.
        nulls[2] |= 1 << 40;
        apply_null_sentinel(&nulls, &mut out);
        for (i, &got) in out.iter().enumerate() {
            let want = if [0usize, 63, 64, 127, 129].contains(&i) {
                NULL_CODE
            } else {
                i as u32
            };
            assert_eq!(got, want, "row {i}");
        }
    }

    #[test]
    fn for_each_null_respects_range() {
        let mut nulls = vec![0u64; 2];
        for i in [3usize, 64, 70, 100] {
            nulls[i / 64] |= 1 << (i % 64);
        }
        let mut seen = Vec::new();
        for_each_null(&nulls, 4..100, |i| seen.push(i));
        assert_eq!(seen, vec![64, 70]);
        let mut all = Vec::new();
        for_each_null(&nulls, 0..128, |i| all.push(i));
        assert_eq!(all, vec![3, 64, 70, 100]);
    }

    #[test]
    fn the_one_tier_is_scalar_and_features_are_probed() {
        assert_eq!(active_tier().name(), "scalar");
        #[cfg(target_arch = "x86_64")]
        assert!(detected_features().contains(&"sse2"));
    }
}
