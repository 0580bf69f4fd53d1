//! The engine's one kernel module: CPU detection and the three kernels
//! that earn hand-written SIMD.
//!
//! KDAP is zero-dependency, so instead of a SIMD crate this module does
//! its own runtime CPU dispatch. At first use it probes the host once
//! ([`detected_tier`]) and picks one of two [`KernelTier`]s:
//!
//! * **Avx2** — x86_64 with AVX2: `core::arch::x86_64` intrinsics for
//!   [`unpack_words`], [`popcount_words`] and [`count_run_starts`].
//! * **Scalar** — safe Rust, what every other host runs and what
//!   `KDAP_NO_SIMD` forces (checked once, cached). Its unpack decodes one
//!   packed word per fixed-trip loop, which LLVM vectorizes at the
//!   target's baseline width.
//!
//! A kernel is here only if its AVX2 arm measures at least 1.5× over the
//! Scalar tier on the E15 bench (`exp_simd --check`); everything else the
//! engine does over words or rows — bitmap AND, the measure gather — is a
//! plain loop at its call site. Each dispatched kernel has a public
//! `_scalar` twin (the Scalar tier's implementation); the tiers are
//! **bit-identical** (integers only, no float reassociation), which
//! `tests/simd_equivalence.rs` proves property-style against an
//! independent oracle. All `unsafe` outside the CLI's signal hook lives
//! in this file.

use std::ops::Range;
use std::sync::OnceLock;

/// Sentinel stored in unpacked code buffers for NULL rows. Real codes are
/// bounded by dictionary cardinality (and by 32-bit packing), so
/// `u32::MAX` can never collide with a live code.
pub const NULL_CODE: u32 = u32::MAX;

/// The kernel implementation selected by runtime dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Safe Rust; always available, always bit-identical.
    Scalar,
    /// x86_64 with runtime-detected AVX2: explicit 256-bit intrinsics.
    Avx2,
}

impl KernelTier {
    /// Short lowercase name for stats surfaces and obs counters.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Best tier the host CPU supports, probed once and cached. Ignores
/// `KDAP_NO_SIMD` — see [`active_tier`] for the tier kernels actually use.
pub fn detected_tier() -> KernelTier {
    static DETECTED: OnceLock<KernelTier> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelTier::Avx2;
        }
        KernelTier::Scalar
    })
}

/// True when `KDAP_NO_SIMD` is set (to anything except `0` or the empty
/// string), forcing the Scalar tier process-wide. Checked once and cached.
pub fn simd_disabled_by_env() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED.get_or_init(|| match std::env::var("KDAP_NO_SIMD") {
        Ok(v) => !(v.is_empty() || v == "0"),
        Err(_) => false,
    })
}

/// The tier dispatched kernels run at: [`detected_tier`] unless
/// `KDAP_NO_SIMD` forces Scalar.
pub fn active_tier() -> KernelTier {
    static ACTIVE: OnceLock<KernelTier> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if simd_disabled_by_env() {
            KernelTier::Scalar
        } else {
            detected_tier()
        }
    })
}

/// Runtime-detected CPU features relevant to the kernel layer, for stats
/// surfaces (so bench numbers are attributable to hardware).
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
/// partial word of an unpack on either tier.
#[inline]
fn unpack_partial_word(mut w: u64, bits: usize, out: &mut [u32]) {
    let mask = (1u64 << bits) - 1;
    for slot in out {
        *slot = (w & mask) as u32;
        w >>= bits;
    }
}

/// Scalar tier: decodes `len` codes bit-packed at `bits` per code (slot 0
/// in the low bits, `64 / bits` codes per word) from `words` into
/// `out[..len]`. `bits` must be one of 1/2/4/8/16/32 and `words` must hold
/// at least `len` packed codes.
pub fn unpack_words_scalar(words: &[u64], bits: u8, len: usize, out: &mut [u32]) {
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

/// Dispatched bulk unpack: decodes `len` codes packed at `bits` per code
/// from `words` into `out[..len]` using the [`active_tier`] kernel.
/// Bit-identical to [`unpack_words_scalar`]; panics when `words` or `out`
/// is too short for `len` codes.
pub fn unpack_words(words: &[u64], bits: u8, len: usize, out: &mut [u32]) {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            // The intrinsics store through raw pointers: prove both
            // extents once, here, with checked slicing.
            let words = &words[..len.div_ceil(64 / bits as usize)];
            let out = &mut out[..len];
            // SAFETY: active_tier() returned Avx2, so runtime detection
            // proved AVX2; the slices above hold exactly `len` codes.
            unsafe { avx2::unpack(words, bits, out) }
        }
        _ => unpack_words_scalar(words, bits, len, out),
    }
}

/// Scalar tier: total set bits in `words`.
pub fn popcount_words_scalar(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Dispatched population count over `words`.
pub fn popcount_words(words: &[u64]) -> usize {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier Avx2 is only returned after runtime detection.
        KernelTier::Avx2 => unsafe { avx2::popcount_words(words) },
        _ => popcount_words_scalar(words),
    }
}

/// Scalar tier: number of 0→1 transitions across `words` (the run count
/// of the bitmap, carrying the top bit across word boundaries).
pub fn count_run_starts_scalar(words: &[u64]) -> usize {
    let mut n = 0usize;
    let mut carry = 0u64;
    for &w in words {
        n += (w & !((w << 1) | carry)).count_ones() as usize;
        carry = w >> 63;
    }
    n
}

/// Dispatched run-start (0→1 transition) count over `words`.
pub fn count_run_starts(words: &[u64]) -> usize {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier Avx2 is only returned after runtime detection.
        KernelTier::Avx2 => unsafe { avx2::count_run_starts(words) },
        _ => count_run_starts_scalar(words),
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

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Explicit AVX2 kernels. Every function here requires the caller to
    //! have proved AVX2 support via runtime detection.
    use std::arch::x86_64::*;

    /// Bulk unpack of `out.len()` codes with 256-bit lanes.
    ///
    /// # Safety
    /// Caller must guarantee the CPU supports AVX2 (runtime-detected) and
    /// that `words` holds at least `out.len()` codes packed at `bits`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn unpack(words: &[u64], bits: u8, out: &mut [u32]) {
        let per_word = 64 / bits as usize;
        let n_full = out.len() / per_word;
        match bits {
            1 => unpack_small::<1>(words, n_full, out),
            2 => unpack_small::<2>(words, n_full, out),
            4 => unpack_small::<4>(words, n_full, out),
            8 => unpack8(words, n_full, out),
            16 => unpack16(words, n_full, out),
            _ => {
                for (pair, &w) in out.chunks_exact_mut(2).zip(&words[..n_full]) {
                    pair[0] = w as u32;
                    pair[1] = (w >> 32) as u32;
                }
            }
        }
        let done = n_full * per_word;
        if done < out.len() {
            super::unpack_partial_word(words[n_full], bits as usize, &mut out[done..]);
        }
    }

    /// Widths 1/2/4: broadcast each 32-bit half of a word and shift out
    /// eight codes per `vpsrlvd`, masked to `BITS`.
    ///
    /// # Safety
    /// AVX2, and `out` must hold `n_full * 64 / BITS` codes.
    #[target_feature(enable = "avx2")]
    unsafe fn unpack_small<const BITS: i32>(words: &[u64], n_full: usize, out: &mut [u32]) {
        let lanes_per_half = (32 / BITS as usize).div_ceil(8); // srlv rounds per 32-bit half
        let mask = _mm256_set1_epi32((1 << BITS) - 1);
        let mut o = out.as_mut_ptr();
        for &w in &words[..n_full] {
            for half in [w as u32, (w >> 32) as u32] {
                let v = _mm256_set1_epi32(half as i32);
                for round in 0..lanes_per_half {
                    let base = (round * 8 * BITS as usize) as i32;
                    let shifts = _mm256_setr_epi32(
                        base,
                        base + BITS,
                        base + 2 * BITS,
                        base + 3 * BITS,
                        base + 4 * BITS,
                        base + 5 * BITS,
                        base + 6 * BITS,
                        base + 7 * BITS,
                    );
                    let codes = _mm256_and_si256(_mm256_srlv_epi32(v, shifts), mask);
                    _mm256_storeu_si256(o as *mut __m256i, codes);
                    o = o.add(8);
                }
            }
        }
    }

    /// Width 8: one packed word is eight bytes; zero-extend to 8×u32.
    ///
    /// # Safety
    /// AVX2, `words.len() >= n_full` and `out.len() >= n_full * 8`.
    #[target_feature(enable = "avx2")]
    unsafe fn unpack8(words: &[u64], n_full: usize, out: &mut [u32]) {
        for i in 0..n_full {
            let v = _mm_loadl_epi64(words.as_ptr().add(i) as *const __m128i);
            let wide = _mm256_cvtepu8_epi32(v);
            _mm256_storeu_si256(out.as_mut_ptr().add(i * 8) as *mut __m256i, wide);
        }
    }

    /// Width 16: two packed words are eight u16s; zero-extend to 8×u32.
    ///
    /// # Safety
    /// AVX2, `words.len() >= n_full` and `out.len() >= n_full * 4`.
    #[target_feature(enable = "avx2")]
    unsafe fn unpack16(words: &[u64], n_full: usize, out: &mut [u32]) {
        let n_pair = n_full / 2;
        for i in 0..n_pair {
            let v = _mm_loadu_si128(words.as_ptr().add(i * 2) as *const __m128i);
            let wide = _mm256_cvtepu16_epi32(v);
            _mm256_storeu_si256(out.as_mut_ptr().add(i * 8) as *mut __m256i, wide);
        }
        if n_full % 2 == 1 {
            super::unpack_full_word(words[n_full - 1], 16, &mut out[(n_full - 1) * 4..]);
        }
    }

    /// Per-byte popcount of one 256-bit lane via the nibble-LUT trick,
    /// horizontally summed into four u64 lanes by `vpsadbw`.
    ///
    /// # Safety
    /// Caller must guarantee AVX2 (runtime-detected).
    #[target_feature(enable = "avx2")]
    unsafe fn popcount256(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low_mask);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// # Safety
    /// Caller must guarantee AVX2 (runtime-detected).
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        let s = _mm_add_epi64(lo, hi);
        (_mm_cvtsi128_si64(s) as u64).wrapping_add(_mm_extract_epi64::<1>(s) as u64)
    }

    /// # Safety
    /// Caller must guarantee AVX2 (runtime-detected).
    #[target_feature(enable = "avx2")]
    pub unsafe fn popcount_words(words: &[u64]) -> usize {
        let n4 = words.len() / 4 * 4;
        let p = words.as_ptr();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i < n4 {
            let v = _mm256_loadu_si256(p.add(i) as *const __m256i);
            acc = _mm256_add_epi64(acc, popcount256(v));
            i += 4;
        }
        hsum_epi64(acc) as usize + super::popcount_words_scalar(&words[n4..])
    }

    /// Counts 0→1 transitions: for each word `w` with predecessor `p`,
    /// the starts are `w & !((w << 1) | (p >> 63))` — the predecessor load
    /// is just an offset-by-one unaligned load, so the whole pass
    /// vectorizes despite the carry chain.
    ///
    /// # Safety
    /// Caller must guarantee AVX2 (runtime-detected).
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_run_starts(words: &[u64]) -> usize {
        if words.is_empty() {
            return 0;
        }
        let w0 = words[0];
        let mut n = (w0 & !(w0 << 1)).count_ones() as usize;
        let m = words.len() - 1; // words[1..] vectorized against words[0..]
        let n4 = m / 4 * 4;
        let p = words.as_ptr();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i < n4 {
            let w = _mm256_loadu_si256(p.add(1 + i) as *const __m256i);
            let prev = _mm256_loadu_si256(p.add(i) as *const __m256i);
            let shifted = _mm256_or_si256(_mm256_slli_epi64::<1>(w), _mm256_srli_epi64::<63>(prev));
            let starts = _mm256_andnot_si256(shifted, w);
            acc = _mm256_add_epi64(acc, popcount256(starts));
            i += 4;
        }
        n += hsum_epi64(acc) as usize;
        for k in (1 + n4)..words.len() {
            let w = words[k];
            n += (w & !((w << 1) | (words[k - 1] >> 63))).count_ones() as usize;
        }
        n
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
    fn both_tiers_unpack_what_was_packed() {
        for bits in [1usize, 2, 4, 8, 16, 32] {
            // Lengths straddling word boundaries, incl. empty and partial
            // words, and one full sealed chunk.
            for len in [0usize, 1, 7, 63, 64, 65, 128, 333, 1000, 4096 + 13, 65_536] {
                let codes = codes_for(bits, len);
                let words = pack(&codes, bits);
                let mut scalar = vec![u32::MAX; len];
                let mut dispatched = vec![123u32; len];
                unpack_words_scalar(&words, bits as u8, len, &mut scalar);
                unpack_words(&words, bits as u8, len, &mut dispatched);
                assert_eq!(scalar, codes, "scalar bits={bits} len={len}");
                assert_eq!(dispatched, codes, "dispatched bits={bits} len={len}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn unpack_rejects_a_short_output_buffer_on_every_tier() {
        let words = vec![u64::MAX; 4];
        let mut out = vec![0u32; 16];
        unpack_words(&words, 8, 32, &mut out);
    }

    #[test]
    fn popcount_and_run_starts_match_scalar() {
        for len in [0usize, 1, 4, 5, 1024, 1023] {
            for seed in [1u64, 0xFFFF_FFFF_FFFF_FFFF, 0x8000_0000_0000_0001] {
                let mut w: Vec<u64> = (0..len as u64)
                    .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect();
                if len > 2 {
                    w[1] = u64::MAX; // exercise cross-word runs
                    w[2] = 1;
                }
                assert_eq!(popcount_words(&w), popcount_words_scalar(&w), "len={len}");
                assert_eq!(
                    count_run_starts(&w),
                    count_run_starts_scalar(&w),
                    "len={len} seed={seed}"
                );
            }
        }
        // Known values: 0b0110 has one run; a run spanning words has one.
        assert_eq!(count_run_starts(&[0b0110]), 1);
        assert_eq!(count_run_starts(&[1 << 63, 1]), 1);
        assert_eq!(count_run_starts(&[1 << 63, 2]), 2);
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
    fn tier_reporting_is_consistent() {
        let active = active_tier();
        let detected = detected_tier();
        if simd_disabled_by_env() {
            assert_eq!(active, KernelTier::Scalar);
        } else {
            assert_eq!(active, detected);
        }
        assert!(!detected.name().is_empty());
        #[cfg(target_arch = "x86_64")]
        assert!(detected_features().contains(&"sse2"));
    }
}
