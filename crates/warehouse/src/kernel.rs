//! Runtime-dispatched vectorized decode kernels.
//!
//! KDAP is zero-dependency, so instead of a SIMD crate this module does its
//! own runtime CPU dispatch. At first use it probes the host once
//! ([`detected_tier`]) and picks one of four [`KernelTier`]s:
//!
//! * **Avx2** — x86_64 with AVX2: hand-written `core::arch::x86_64`
//!   intrinsics (32-byte lanes) for bulk code unpacking.
//! * **Sse2** — any other x86_64 (SSE2 is baseline): batch kernels written
//!   as fixed-trip-count safe Rust that LLVM auto-vectorizes at 128 bits.
//! * **Neon** — aarch64 (NEON is baseline): the same batch kernels,
//!   auto-vectorized to NEON.
//! * **Scalar** — everything else, and the mandatory reference fallback.
//!
//! Every dispatched kernel has a public `_scalar` twin that is the
//! semantic reference; all tiers are **bit-identical** (kernels here move
//! integers only — no float reassociation), which
//! `tests/simd_equivalence.rs` proves property-style. Setting the
//! `KDAP_NO_SIMD` environment variable forces the Scalar tier process-wide
//! (checked once, cached).

use std::ops::Range;
use std::sync::OnceLock;

/// Sentinel stored in unpacked code buffers for NULL rows. Real codes are
/// bounded by dictionary cardinality (and by 32-bit packing), so
/// `u32::MAX` can never collide with a live code.
pub const NULL_CODE: u32 = u32::MAX;

/// The kernel implementation selected by runtime dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Reference per-element loops; always available, always bit-identical.
    Scalar,
    /// x86_64 baseline: batch kernels auto-vectorized at 128 bits.
    Sse2,
    /// aarch64 baseline: batch kernels auto-vectorized to NEON.
    Neon,
    /// x86_64 with runtime-detected AVX2: explicit 256-bit intrinsics.
    Avx2,
}

impl KernelTier {
    /// Short lowercase name for stats surfaces and obs counters.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Neon => "neon",
            KernelTier::Avx2 => "avx2",
        }
    }

    /// True when this tier is the scalar reference fallback.
    pub fn is_scalar(self) -> bool {
        self == KernelTier::Scalar
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn detect() -> KernelTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            KernelTier::Avx2
        } else {
            KernelTier::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        KernelTier::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        KernelTier::Scalar
    }
}

/// Best tier the host CPU supports, probed once and cached. Ignores
/// `KDAP_NO_SIMD` — see [`active_tier`] for the tier kernels actually use.
pub fn detected_tier() -> KernelTier {
    static DETECTED: OnceLock<KernelTier> = OnceLock::new();
    *DETECTED.get_or_init(detect)
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

#[inline]
fn mask_for(bits: usize) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Scalar reference: decodes `len` codes bit-packed at `bits` per code
/// (slot 0 in the low bits, `64 / bits` codes per word) from `words` into
/// `out[..len]`. `bits` must be one of 1/2/4/8/16/32 and `words` must hold
/// at least `len` packed codes.
pub fn unpack_words_scalar(words: &[u64], bits: u8, len: usize, out: &mut [u32]) {
    let bits = bits as usize;
    let per_word = 64 / bits;
    let mask = mask_for(bits);
    for (i, slot) in out[..len].iter_mut().enumerate() {
        *slot = ((words[i / per_word] >> ((i % per_word) * bits)) & mask) as u32;
    }
}

/// Decodes one full packed word (`64 / bits` codes) into `out`. The match
/// arms have fixed trip counts so LLVM unrolls and auto-vectorizes them at
/// the target's native width (SSE2 on x86_64, NEON on aarch64).
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

/// Batch unpack as fixed-trip-count safe Rust (the Sse2/Neon tier
/// implementation — LLVM auto-vectorizes the full-word loops).
pub fn unpack_words_unrolled(words: &[u64], bits: u8, len: usize, out: &mut [u32]) {
    let bits = bits as usize;
    let per_word = 64 / bits;
    let n_full = len / per_word;
    for i in 0..n_full {
        unpack_full_word(words[i], bits, &mut out[i * per_word..(i + 1) * per_word]);
    }
    let done = n_full * per_word;
    if done < len {
        let mask = mask_for(bits);
        let mut w = words[n_full];
        for slot in out[done..len].iter_mut() {
            *slot = (w & mask) as u32;
            w >>= bits;
        }
    }
}

/// Dispatched bulk unpack: decodes `len` codes packed at `bits` per code
/// from `words` into `out[..len]` using the [`active_tier`] kernel.
/// Bit-identical to [`unpack_words_scalar`] on every tier.
pub fn unpack_words(words: &[u64], bits: u8, len: usize, out: &mut [u32]) {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            // SAFETY: active_tier() returned Avx2, so runtime detection
            // proved the AVX2 target features are available on this CPU.
            unsafe { avx2::unpack(words, bits, len, out) }
        }
        KernelTier::Scalar => unpack_words_scalar(words, bits, len, out),
        _ => unpack_words_unrolled(words, bits, len, out),
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
    //! Explicit AVX2 unpack kernels. Every function here requires the
    //! caller to have proved AVX2 support via runtime detection.
    use std::arch::x86_64::*;

    /// Bulk unpack with 256-bit lanes.
    ///
    /// # Safety
    /// Caller must guarantee the CPU supports AVX2 (runtime-detected).
    #[target_feature(enable = "avx2")]
    pub unsafe fn unpack(words: &[u64], bits: u8, len: usize, out: &mut [u32]) {
        let bits_us = bits as usize;
        let per_word = 64 / bits_us;
        let n_full = len / per_word;
        match bits {
            1 => unpack_small::<1>(words, n_full, out),
            2 => unpack_small::<2>(words, n_full, out),
            4 => unpack_small::<4>(words, n_full, out),
            8 => unpack8(words, n_full, out),
            16 => unpack16(words, n_full, out),
            _ => {
                for (i, &w) in words[..n_full].iter().enumerate() {
                    out[i * 2] = w as u32;
                    out[i * 2 + 1] = (w >> 32) as u32;
                }
            }
        }
        let done = n_full * per_word;
        if done < len {
            let mask = super::mask_for(bits_us);
            let mut w = words[n_full];
            for slot in out[done..len].iter_mut() {
                *slot = (w & mask) as u32;
                w >>= bits;
            }
        }
    }

    /// Widths 1/2/4: broadcast each 32-bit half of a word and shift out
    /// eight codes per `vpsrlvd`, masked to `BITS`.
    #[target_feature(enable = "avx2")]
    unsafe fn unpack_small<const BITS: i32>(words: &[u64], n_full: usize, out: &mut [u32]) {
        let lanes_per_half = (32 / BITS as usize).div_ceil(8); // srlv rounds per 32-bit half
        let per_word = 64 / BITS as usize;
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
            debug_assert!(per_word == lanes_per_half * 16);
        }
    }

    /// Width 8: one packed word is eight bytes; zero-extend to 8×u32.
    #[target_feature(enable = "avx2")]
    unsafe fn unpack8(words: &[u64], n_full: usize, out: &mut [u32]) {
        for i in 0..n_full {
            let v = _mm_loadl_epi64(words.as_ptr().add(i) as *const __m128i);
            let wide = _mm256_cvtepu8_epi32(v);
            _mm256_storeu_si256(out.as_mut_ptr().add(i * 8) as *mut __m256i, wide);
        }
    }

    /// Width 16: two packed words are eight u16s; zero-extend to 8×u32.
    #[target_feature(enable = "avx2")]
    unsafe fn unpack16(words: &[u64], n_full: usize, out: &mut [u32]) {
        let n_pair = n_full / 2;
        for i in 0..n_pair {
            let v = _mm_loadu_si128(words.as_ptr().add(i * 2) as *const __m128i);
            let wide = _mm256_cvtepu16_epi32(v);
            _mm256_storeu_si256(out.as_mut_ptr().add(i * 8) as *mut __m256i, wide);
        }
        if n_full % 2 == 1 {
            let w = words[n_full - 1];
            let base = (n_full - 1) * 4;
            for j in 0..4 {
                out[base + j] = ((w >> (j * 16)) & 0xFFFF) as u32;
            }
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
        let mask = mask_for(bits) as u32;
        // Deterministic pseudo-random pattern touching the full width.
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2_654_435_761).rotate_left(7) ^ 0x9E37;
                x & mask
            })
            .collect()
    }

    #[test]
    fn all_tiers_unpack_bit_identically() {
        for bits in [1usize, 2, 4, 8, 16, 32] {
            // Lengths straddling word boundaries, incl. empty and partial words.
            for len in [0usize, 1, 7, 63, 64, 65, 128, 1000, 4096 + 13] {
                let codes = codes_for(bits, len);
                let words = pack(&codes, bits);
                let mut scalar = vec![0u32; len];
                let mut unrolled = vec![u32::MAX; len];
                let mut dispatched = vec![123u32; len];
                unpack_words_scalar(&words, bits as u8, len, &mut scalar);
                unpack_words_unrolled(&words, bits as u8, len, &mut unrolled);
                unpack_words(&words, bits as u8, len, &mut dispatched);
                assert_eq!(scalar, codes, "scalar bits={bits} len={len}");
                assert_eq!(unrolled, codes, "unrolled bits={bits} len={len}");
                assert_eq!(dispatched, codes, "dispatched bits={bits} len={len}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_unpack_matches_scalar_when_available() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for bits in [1usize, 2, 4, 8, 16, 32] {
            for len in [1usize, 65, 333, 65_536] {
                let codes = codes_for(bits, len);
                let words = pack(&codes, bits);
                let mut got = vec![0u32; len];
                // SAFETY: guarded by is_x86_feature_detected above.
                unsafe { avx2::unpack(&words, bits as u8, len, &mut got) };
                assert_eq!(got, codes, "avx2 bits={bits} len={len}");
            }
        }
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
            assert!(active.is_scalar());
        } else {
            assert_eq!(active, detected);
        }
        assert!(!detected.name().is_empty());
        #[cfg(target_arch = "x86_64")]
        assert!(detected_features().contains(&"sse2"));
    }
}
