//! Chunked, bit-packed physical column storage.
//!
//! Two building blocks live here:
//!
//! * [`PackedCodes`] — dictionary codes laid out in fixed-size chunks of
//!   [`CHUNK_ROWS`] rows. Sealed chunks bit-pack their codes at the
//!   smallest power-of-two width that fits the chunk's largest code
//!   (1/2/4/8/16/32 bits), so early low-cardinality chunks compress
//!   tighter than later ones. A mutable unpacked tail absorbs appends and
//!   is sealed when it fills; [`PackedCodes::freeze`] packs the final
//!   partial chunk. At 8 bits a chunk is 64 KiB — sized to stay resident
//!   in L2 during a scan.
//! * [`NullableVec`] — numeric storage as a dense value vector plus a
//!   lazily-allocated null bitmap, half the footprint of
//!   `Vec<Option<i64>>`.
//!
//! Decoding is word-at-a-time: [`PackedCodes::for_each`] loads one `u64`
//! and shifts out `64 / bits` codes (2–64 values per load), which is what
//! keeps full-column scans (`rows_with_codes`, statistics) fast on packed
//! data.

use std::cell::RefCell;
use std::ops::Range;

use crate::kernel;

/// Rows per sealed chunk. A power of two so sealed-chunk addressing is a
/// shift, and small enough that one packed chunk fits in L2.
pub const CHUNK_ROWS: usize = 1 << 16;

/// Minimum rows in a sealed-chunk visit before `for_each` pays for a bulk
/// vectorized unpack into scratch instead of word-at-a-time decode.
const BULK_DECODE_MIN: usize = 256;

thread_local! {
    /// Reusable per-thread decode scratch (≤ CHUNK_ROWS × 4 bytes =
    /// 256 KiB at full size), shared by every bulk `for_each` on the
    /// thread so steady-state scans allocate nothing.
    static DECODE_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Smallest supported packing width (bits) that fits `max_code`.
fn bits_for(max_code: u32) -> u8 {
    match max_code {
        0..=1 => 1,
        2..=3 => 2,
        4..=15 => 4,
        16..=255 => 8,
        256..=65_535 => 16,
        _ => 32,
    }
}

/// One sealed, immutable chunk of bit-packed codes.
#[derive(Debug, Clone)]
struct CodeChunk {
    /// Packing width: 1, 2, 4, 8, 16, or 32 bits per code.
    bits: u8,
    /// Rows in this chunk (== `CHUNK_ROWS` except for a frozen tail).
    len: u32,
    /// Packed codes, `64 / bits` per word, slot 0 in the low bits.
    words: Vec<u64>,
    /// Null bitmap (bit set = NULL), allocated only when the chunk holds
    /// at least one NULL. NULL rows pack code 0.
    nulls: Option<Vec<u64>>,
}

impl CodeChunk {
    fn pack(rows: &[Option<u32>]) -> CodeChunk {
        let max_code = rows.iter().flatten().copied().max().unwrap_or(0);
        let bits = bits_for(max_code);
        let per_word = 64 / bits as usize;
        let mut words = vec![0u64; rows.len().div_ceil(per_word)];
        let mut nulls: Option<Vec<u64>> = None;
        for (i, v) in rows.iter().enumerate() {
            match v {
                Some(c) => {
                    words[i / per_word] |= u64::from(*c) << ((i % per_word) * bits as usize);
                }
                None => {
                    let bitmap = nulls.get_or_insert_with(|| vec![0u64; rows.len().div_ceil(64)]);
                    bitmap[i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        CodeChunk {
            bits,
            len: rows.len() as u32,
            words,
            nulls,
        }
    }

    #[inline]
    fn is_null(&self, i: usize) -> bool {
        match &self.nulls {
            Some(bitmap) => (bitmap[i / 64] >> (i % 64)) & 1 == 1,
            None => false,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Option<u32> {
        if self.is_null(i) {
            return None;
        }
        let bits = self.bits as usize;
        let per_word = 64 / bits;
        let mask = (1u64 << bits) - 1;
        Some(((self.words[i / per_word] >> ((i % per_word) * bits)) & mask) as u32)
    }

    /// Bulk-decodes rows `[0, len)` into `out[..len]` via the bulk-unpack
    /// kernel, overwriting NULL rows with [`kernel::NULL_CODE`].
    fn unpack_into(&self, out: &mut [u32]) {
        let len = self.len as usize;
        kernel::unpack_words(&self.words, self.bits, len, &mut out[..len]);
        if let Some(nulls) = &self.nulls {
            kernel::apply_null_sentinel(nulls, &mut out[..len]);
        }
    }

    /// Visits `range` (chunk-local) via a bulk-unpacked scratch buffer:
    /// the covering packed words are decoded in one vectorized pass, then
    /// rows are read back as plain `u32` loads (no per-row shift chain).
    /// `scratch` is reused across chunks by the caller.
    fn for_each_bulk<F: FnMut(usize, Option<u32>)>(
        &self,
        range: Range<usize>,
        base: usize,
        scratch: &mut Vec<u32>,
        f: &mut F,
    ) {
        let bits = self.bits as usize;
        let per_word = 64 / bits;
        let word_start = range.start / per_word;
        let decode_base = word_start * per_word;
        let n = range.end - decode_base;
        scratch.clear();
        scratch.resize(n, 0);
        kernel::unpack_words(&self.words[word_start..], self.bits, n, scratch);
        match &self.nulls {
            None => {
                for i in range {
                    f(base + i, Some(scratch[i - decode_base]));
                }
            }
            Some(bitmap) => {
                for i in range {
                    let null = (bitmap[i / 64] >> (i % 64)) & 1 == 1;
                    f(
                        base + i,
                        if null {
                            None
                        } else {
                            Some(scratch[i - decode_base])
                        },
                    );
                }
            }
        }
    }

    /// Visits `range` (chunk-local) in order, one packed word at a time.
    fn for_each<F: FnMut(usize, Option<u32>)>(&self, range: Range<usize>, base: usize, f: &mut F) {
        let bits = self.bits as usize;
        let per_word = 64 / bits;
        let mask = (1u64 << bits) - 1;
        let mut i = range.start;
        match &self.nulls {
            None => {
                while i < range.end {
                    let word_idx = i / per_word;
                    let stop = ((word_idx + 1) * per_word).min(range.end);
                    let mut word = self.words[word_idx] >> ((i % per_word) * bits);
                    while i < stop {
                        f(base + i, Some((word & mask) as u32));
                        word >>= bits;
                        i += 1;
                    }
                }
            }
            Some(bitmap) => {
                while i < range.end {
                    let word_idx = i / per_word;
                    let stop = ((word_idx + 1) * per_word).min(range.end);
                    let mut word = self.words[word_idx] >> ((i % per_word) * bits);
                    while i < stop {
                        let null = (bitmap[i / 64] >> (i % 64)) & 1 == 1;
                        f(
                            base + i,
                            if null {
                                None
                            } else {
                                Some((word & mask) as u32)
                            },
                        );
                        word >>= bits;
                        i += 1;
                    }
                }
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8 + self.nulls.as_ref().map_or(0, |b| b.capacity() * 8)
    }
}

/// Dictionary codes stored as sealed bit-packed chunks plus a mutable
/// unpacked tail. Supports append, random access, and ordered
/// word-at-a-time scans.
#[derive(Debug, Clone, Default)]
pub struct PackedCodes {
    sealed: Vec<CodeChunk>,
    /// Total rows across sealed chunks. All sealed chunks except possibly
    /// the last hold exactly [`CHUNK_ROWS`] rows, so sealed addressing is
    /// `row / CHUNK_ROWS`.
    sealed_rows: usize,
    tail: Vec<Option<u32>>,
    max_code: Option<u32>,
}

impl PackedCodes {
    /// An empty code store.
    pub fn new() -> Self {
        PackedCodes::default()
    }

    /// Appends one code (or NULL). Seals the tail into a packed chunk each
    /// time it reaches [`CHUNK_ROWS`] rows.
    pub fn push(&mut self, code: Option<u32>) {
        if let Some(c) = code {
            self.max_code = Some(self.max_code.map_or(c, |m| m.max(c)));
        }
        self.tail.push(code);
        // Only auto-seal while sealed chunks are all full; after a freeze
        // of a partial chunk, appends keep accumulating in the tail so
        // `row / CHUNK_ROWS` addressing stays valid for sealed rows.
        if self.tail.len() == CHUNK_ROWS && self.sealed_rows.is_multiple_of(CHUNK_ROWS) {
            self.seal_tail();
        }
    }

    fn seal_tail(&mut self) {
        self.sealed.push(CodeChunk::pack(&self.tail));
        self.sealed_rows += self.tail.len();
        self.tail.clear();
    }

    /// Packs any remaining tail rows into a final (possibly partial)
    /// chunk and trims spare capacity. Called when a warehouse build
    /// completes; appends afterwards remain correct but stay unpacked.
    pub fn freeze(&mut self) {
        if !self.tail.is_empty() && self.sealed_rows.is_multiple_of(CHUNK_ROWS) {
            self.seal_tail();
        }
        self.tail.shrink_to_fit();
        self.sealed.shrink_to_fit();
    }

    /// Total rows stored.
    pub fn len(&self) -> usize {
        self.sealed_rows + self.tail.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest code ever appended, `None` when all rows are NULL or empty.
    pub fn max_code(&self) -> Option<u32> {
        self.max_code
    }

    /// Number of sealed (bit-packed) chunks.
    pub fn n_sealed_chunks(&self) -> usize {
        self.sealed.len()
    }

    /// Rows still in the unpacked tail.
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Code at `row`; panics when out of bounds (same contract as vector
    /// indexing — callers index within `0..len()`).
    #[inline]
    pub fn get(&self, row: usize) -> Option<u32> {
        if row < self.sealed_rows {
            self.sealed[row / CHUNK_ROWS].get(row % CHUNK_ROWS)
        } else {
            self.tail[row - self.sealed_rows]
        }
    }

    /// Visits `(row, code)` for every row in `range`, in row order. Sealed
    /// chunks covering at least `BULK_DECODE_MIN` (256) rows of the range are
    /// bulk-unpacked into a per-thread scratch buffer by the vectorized
    /// kernel; smaller slices decode one packed word at a time.
    pub fn for_each<F: FnMut(usize, Option<u32>)>(&self, range: Range<usize>, mut f: F) {
        let start = range.start.min(self.len());
        let end = range.end.min(self.len());
        let mut row = start;
        while row < end && row < self.sealed_rows {
            let chunk_idx = row / CHUNK_ROWS;
            let chunk = &self.sealed[chunk_idx];
            let chunk_base = chunk_idx * CHUNK_ROWS;
            let local_start = row - chunk_base;
            let local_end = (end - chunk_base).min(chunk.len as usize);
            let local = local_start..local_end;
            if local.len() >= BULK_DECODE_MIN {
                // The scratch is borrowed for the duration of the visit;
                // if the closure re-enters a packed scan (so the scratch
                // is already borrowed), fall back to word-at-a-time.
                let bulk_done = DECODE_SCRATCH.with(|s| match s.try_borrow_mut() {
                    Ok(mut scratch) => {
                        chunk.for_each_bulk(local.clone(), chunk_base, &mut scratch, &mut f);
                        true
                    }
                    Err(_) => false,
                });
                if !bulk_done {
                    chunk.for_each(local, chunk_base, &mut f);
                }
            } else {
                chunk.for_each(local, chunk_base, &mut f);
            }
            row = chunk_base + local_end;
        }
        while row < end {
            f(row, self.tail[row - self.sealed_rows]);
            row += 1;
        }
    }

    /// Bulk-decodes the whole store into `out` (cleared first): one `u32`
    /// per row, NULL rows as [`kernel::NULL_CODE`]. Sealed chunks decode
    /// through the vectorized kernel.
    ///
    /// The sentinel makes this unsuitable for stores that legitimately
    /// contain the code `u32::MAX`; dictionary-encoded columns never do
    /// (codes are dense dictionary indices).
    pub fn unpack_all(&self, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.len(), 0);
        let mut base = 0;
        for chunk in &self.sealed {
            let len = chunk.len as usize;
            chunk.unpack_into(&mut out[base..base + len]);
            base += len;
        }
        for (i, v) in self.tail.iter().enumerate() {
            out[base + i] = v.unwrap_or(kernel::NULL_CODE);
        }
    }

    /// Heap bytes held by packed words, null bitmaps, and the tail.
    pub fn heap_bytes(&self) -> usize {
        self.sealed.iter().map(CodeChunk::heap_bytes).sum::<usize>()
            + self.sealed.capacity() * std::mem::size_of::<CodeChunk>()
            + self.tail.capacity() * std::mem::size_of::<Option<u32>>()
    }

    /// Bit widths of the sealed chunks, in chunk order (for inspection
    /// and tests).
    pub fn chunk_bit_widths(&self) -> Vec<u8> {
        self.sealed.iter().map(|c| c.bits).collect()
    }
}

/// Dense numeric storage with a lazily-allocated null bitmap — the
/// packed replacement for `Vec<Option<T>>` (16 bytes/row → 8 for `i64`).
#[derive(Debug, Clone, Default)]
pub struct NullableVec<T> {
    values: Vec<T>,
    /// Bit set = NULL. Allocated on the first NULL push and kept sized to
    /// `values.len().div_ceil(64)` words from then on.
    nulls: Option<Vec<u64>>,
    n_nulls: usize,
}

impl<T: Copy + Default> NullableVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        NullableVec {
            values: Vec::new(),
            nulls: None,
            n_nulls: 0,
        }
    }

    /// Appends a value or NULL (NULL stores `T::default()` plus a bit).
    pub fn push(&mut self, value: Option<T>) {
        let idx = self.values.len();
        self.values.push(value.unwrap_or_default());
        if let Some(bitmap) = &mut self.nulls {
            if bitmap.len() * 64 < self.values.len() {
                bitmap.push(0);
            }
        }
        if value.is_none() {
            let bitmap = self
                .nulls
                .get_or_insert_with(|| vec![0u64; idx.div_ceil(64) + 1]);
            // First allocation sizes for idx+1 rows; make sure the word
            // for `idx` exists even when idx is a multiple of 64.
            while bitmap.len() * 64 < self.values.len() {
                bitmap.push(0);
            }
            bitmap[idx / 64] |= 1u64 << (idx % 64);
            self.n_nulls += 1;
        }
    }

    /// Value at `row`, `None` when NULL. Panics when out of bounds.
    #[inline]
    pub fn get(&self, row: usize) -> Option<T> {
        if let Some(bitmap) = &self.nulls {
            if (bitmap[row / 64] >> (row % 64)) & 1 == 1 {
                return None;
            }
        }
        Some(self.values[row])
    }

    /// Number of rows (including NULLs).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of NULL rows.
    pub fn n_nulls(&self) -> usize {
        self.n_nulls
    }

    /// Iterates all rows in order.
    pub fn iter(&self) -> impl Iterator<Item = Option<T>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The dense value vector (NULL rows hold `T::default()`); pair with
    /// [`NullableVec::null_bitmap`] for batch decoding.
    pub fn values_slice(&self) -> &[T] {
        &self.values
    }

    /// The null bitmap (bit set = NULL), `None` when no row is NULL.
    pub fn null_bitmap(&self) -> Option<&[u64]> {
        self.nulls.as_deref()
    }

    /// Trims spare capacity after a build completes.
    pub fn freeze(&mut self) {
        self.values.shrink_to_fit();
        if let Some(bitmap) = &mut self.nulls {
            bitmap.shrink_to_fit();
        }
    }

    /// Heap bytes held by values and the null bitmap.
    pub fn heap_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<T>()
            + self.nulls.as_ref().map_or(0, |b| b.capacity() * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_picks_minimal_width() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 4);
        assert_eq!(bits_for(15), 4);
        assert_eq!(bits_for(16), 8);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 16);
        assert_eq!(bits_for(65_535), 16);
        assert_eq!(bits_for(65_536), 32);
        assert_eq!(bits_for(u32::MAX), 32);
    }

    #[test]
    fn roundtrip_across_chunk_boundaries() {
        let n = CHUNK_ROWS * 2 + 1234;
        let mut pc = PackedCodes::new();
        let expected: Vec<Option<u32>> = (0..n)
            .map(|i| {
                if i % 97 == 0 {
                    None
                } else {
                    Some((i % 300) as u32)
                }
            })
            .collect();
        for v in &expected {
            pc.push(*v);
        }
        assert_eq!(pc.len(), n);
        assert_eq!(pc.n_sealed_chunks(), 2);
        assert_eq!(pc.tail_len(), 1234);
        pc.freeze();
        assert_eq!(pc.n_sealed_chunks(), 3);
        assert_eq!(pc.tail_len(), 0);
        for (i, v) in expected.iter().enumerate() {
            assert_eq!(pc.get(i), *v, "row {i}");
        }
        // Ordered scan agrees with random access, over a boundary-
        // straddling range.
        let mut seen = Vec::new();
        pc.for_each(CHUNK_ROWS - 5..CHUNK_ROWS + 5, |row, code| {
            seen.push((row, code))
        });
        let want: Vec<_> = (CHUNK_ROWS - 5..CHUNK_ROWS + 5)
            .map(|i| (i, expected[i]))
            .collect();
        assert_eq!(seen, want);
        assert_eq!(pc.max_code(), Some(299));
    }

    #[test]
    fn chunks_pack_at_their_own_width() {
        let mut pc = PackedCodes::new();
        // First chunk: codes 0..=1 (1 bit). Second chunk: up to 1000 (16 bits).
        for i in 0..CHUNK_ROWS {
            pc.push(Some((i % 2) as u32));
        }
        for i in 0..CHUNK_ROWS {
            pc.push(Some((i % 1000) as u32));
        }
        assert_eq!(pc.chunk_bit_widths(), vec![1, 16]);
        pc.freeze(); // drop the tail's retained capacity before measuring
                     // 1-bit chunk (8 KiB) + 16-bit chunk (128 KiB): well under the
                     // 1 MiB the two chunks would cost unpacked.
        assert!(pc.heap_bytes() < CHUNK_ROWS * 8);
        assert_eq!(pc.get(1), Some(1));
        assert_eq!(pc.get(CHUNK_ROWS + 999), Some(999));
    }

    #[test]
    fn all_null_chunk_packs_one_bit() {
        let mut pc = PackedCodes::new();
        for _ in 0..100 {
            pc.push(None);
        }
        pc.freeze();
        assert_eq!(pc.chunk_bit_widths(), vec![1]);
        assert_eq!(pc.get(50), None);
        assert_eq!(pc.max_code(), None);
        let mut nulls = 0;
        pc.for_each(0..100, |_, c| {
            if c.is_none() {
                nulls += 1
            }
        });
        assert_eq!(nulls, 100);
    }

    #[test]
    fn appends_after_freeze_stay_correct() {
        let mut pc = PackedCodes::new();
        for i in 0..10u32 {
            pc.push(Some(i));
        }
        pc.freeze();
        assert_eq!(pc.n_sealed_chunks(), 1);
        // A partial chunk is sealed; further appends must not seal again
        // (that would break row/CHUNK_ROWS addressing) but must read back.
        for i in 10..20u32 {
            pc.push(Some(i));
        }
        assert_eq!(pc.tail_len(), 10);
        for i in 0..20u32 {
            assert_eq!(pc.get(i as usize), Some(i));
        }
        let mut rows = Vec::new();
        pc.for_each(5..15, |r, c| rows.push((r, c)));
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0], (5, Some(5)));
        assert_eq!(rows[9], (14, Some(14)));
    }

    #[test]
    fn unpack_all_matches_get_with_sentinel() {
        // Several widths across chunks + an unfrozen tail, with nulls.
        let n = CHUNK_ROWS * 2 + 999;
        let mut pc = PackedCodes::new();
        for i in 0..n {
            if i % 41 == 0 {
                pc.push(None);
            } else if i < CHUNK_ROWS {
                pc.push(Some((i % 4) as u32)); // 2-bit chunk
            } else {
                pc.push(Some((i % 700) as u32)); // 16-bit chunk
            }
        }
        let mut out = Vec::new();
        pc.unpack_all(&mut out);
        assert_eq!(out.len(), n);
        for (i, &got) in out.iter().enumerate() {
            match pc.get(i) {
                Some(c) => assert_eq!(got, c, "row {i}"),
                None => assert_eq!(got, crate::kernel::NULL_CODE, "row {i}"),
            }
        }
    }

    #[test]
    fn bulk_for_each_matches_word_decode() {
        // Range large enough to trigger the bulk scratch path, with a
        // word-misaligned start and nulls.
        let n = CHUNK_ROWS + 500;
        let mut pc = PackedCodes::new();
        for i in 0..n {
            if i % 13 == 0 {
                pc.push(None);
            } else {
                pc.push(Some((i % 30) as u32));
            }
        }
        pc.freeze();
        let range = 7..CHUNK_ROWS + 123;
        let mut seen = Vec::new();
        pc.for_each(range.clone(), |row, code| seen.push((row, code)));
        let want: Vec<_> = range.map(|i| (i, pc.get(i))).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn nullable_vec_roundtrip_and_nulls() {
        let mut v: NullableVec<i64> = NullableVec::new();
        v.push(Some(7));
        v.push(None);
        v.push(Some(-3));
        assert_eq!(v.len(), 3);
        assert_eq!(v.n_nulls(), 1);
        assert_eq!(v.get(0), Some(7));
        assert_eq!(v.get(1), None);
        assert_eq!(v.get(2), Some(-3));
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![Some(7), None, Some(-3)]);
        // Null bitmap costs ~1 bit/row: footprint well under Vec<Option<i64>>.
        v.freeze();
        assert!(v.heap_bytes() < 3 * 16);
    }

    #[test]
    fn nullable_vec_null_at_word_boundary() {
        let mut v: NullableVec<i64> = NullableVec::new();
        for i in 0..64 {
            v.push(Some(i));
        }
        v.push(None); // row 64: first word boundary after lazy allocation
        for i in 0..200 {
            v.push(if i % 3 == 0 { None } else { Some(i) });
        }
        assert_eq!(v.get(64), None);
        assert_eq!(v.get(63), Some(63));
        let expected_nulls = 1 + (0..200).filter(|i| i % 3 == 0).count();
        assert_eq!(v.n_nulls(), expected_nulls);
    }

    #[test]
    fn nullable_vec_all_non_null_has_no_bitmap_cost() {
        let mut v: NullableVec<f64> = NullableVec::new();
        for i in 0..1000 {
            v.push(Some(i as f64));
        }
        v.freeze();
        assert_eq!(v.heap_bytes(), 1000 * 8);
    }
}
