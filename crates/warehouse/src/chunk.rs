//! Chunked, bit-packed physical column storage.
//!
//! Every sealed chunk shares one layout: up to [`CHUNK_ROWS`] rows packed
//! at the smallest power-of-two width that fits the chunk's largest slot,
//! `64 / bits` slots per `u64` word, with NULL rows in a null bitmap
//! allocated only when the chunk holds one. A mutable unpacked tail
//! absorbs appends and is sealed each time it fills, so no column is ever
//! held unpacked as a whole; `freeze` packs the final partial chunk. Two
//! stores use the layout:
//!
//! * [`PackedCodes`] — dictionary codes at 1/2/4/8/16/32 bits. At 8 bits
//!   a chunk is 64 KiB, sized to stay resident in L2 during a scan.
//! * [`PackedInts`] — integers as frame-of-reference offsets: a chunk
//!   keeps its smallest value as an `i64` base and each row's distance
//!   from it, at 1–32 bits, or 64 when the chunk spans more than
//!   `u32::MAX`.
//!
//! [`NullableVec`] — a dense value vector plus a lazily allocated null
//! bitmap — holds float columns and the unpacked tail of both stores.
//!
//! Decoding is word-at-a-time or chunk-at-a-time: [`PackedCodes::for_each`]
//! shifts `64 / bits` codes out of each word load, or bulk-unpacks a
//! chunk through [`kernel::unpack_words`]; [`PackedInts::for_each`]
//! always takes the kernel, then adds the chunk's base. That is what
//! keeps full-column scans (`rows_with_codes`, statistics, key indexes)
//! fast on packed data.

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

/// Runs `f` with the thread's decode scratch, or with a buffer of its own
/// when a scan is already using the scratch (a visit that re-enters a
/// packed scan).
fn with_scratch<T>(f: impl FnOnce(&mut Vec<u32>) -> T) -> T {
    DECODE_SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Vec::new()),
    })
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

/// Packing width for offsets in `0..=span`: a code width while the span
/// fits in 32 bits, else the whole word.
fn bits_for_span(span: u64) -> u8 {
    u32::try_from(span).map_or(64, bits_for)
}

/// The smallest and largest of `values`; `(i64::MAX, i64::MIN)` when
/// there are none.
fn min_max(values: impl Iterator<Item = i64>) -> (i64, i64) {
    values.fold((i64::MAX, i64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)))
}

/// One sealed chunk's packed slots: `len` slots of `bits` bits, `64 /
/// bits` per word, slot 0 in the low bits, plus the null bitmap (bit set
/// = NULL) when the chunk holds a NULL.
#[derive(Debug, Clone)]
struct Slots {
    /// Packing width: 1, 2, 4, 8, 16, 32 or (integer offsets only) 64.
    bits: u8,
    /// Rows in this chunk (== `CHUNK_ROWS` except for a frozen tail).
    len: u32,
    words: Vec<u64>,
    nulls: Option<Vec<u64>>,
}

impl Slots {
    /// Packs an unpacked tail at `bits` per slot, each row as
    /// `slot(value)`, every word assembled in a register. A NULL row's
    /// slot holds its placeholder value's bits (masked to the width);
    /// readers consult the null bitmap first.
    fn pack<T: Copy + Default>(bits: u8, tail: &NullableVec<T>, slot: impl Fn(T) -> u64) -> Slots {
        let values = tail.values_slice();
        let mask = u64::MAX >> (64 - bits);
        let words = values
            .chunks(64 / bits as usize)
            .map(|group| {
                group.iter().enumerate().fold(0u64, |word, (j, &v)| {
                    word | (slot(v) & mask) << (j * bits as usize)
                })
            })
            .collect();
        let nulls = tail
            .null_bitmap()
            .map(|bitmap| bitmap[..values.len().div_ceil(64)].to_vec());
        Slots {
            bits,
            len: values.len() as u32,
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

    /// The packed bits of slot `i`, NULL or not.
    #[inline]
    fn slot(&self, i: usize) -> u64 {
        let bits = u32::from(self.bits);
        // log2 of the slots per word: addressing by shift, not division.
        let per_word_log2 = 6 - bits.trailing_zeros();
        let word = self.words[i >> per_word_log2];
        let at = (i & ((1 << per_word_log2) - 1)) as u32 * bits;
        (word >> at) & (u64::MAX >> (64 - bits))
    }

    /// Calls `f(first_row + i, value(i))` for every slot `i`, with `None`
    /// for NULL rows.
    #[inline]
    fn visit<T, F: FnMut(usize, Option<T>)>(
        &self,
        first_row: usize,
        value: impl Fn(usize) -> T,
        f: &mut F,
    ) {
        let len = self.len as usize;
        match &self.nulls {
            None => (0..len).for_each(|i| f(first_row + i, Some(value(i)))),
            Some(bitmap) => (0..len).for_each(|i| {
                let null = (bitmap[i / 64] >> (i % 64)) & 1 == 1;
                f(first_row + i, (!null).then(|| value(i)));
            }),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8 + self.nulls.as_ref().map_or(0, |b| b.capacity() * 8)
    }

    // ---- dictionary codes (bits ≤ 32) ----

    #[inline]
    fn get(&self, i: usize) -> Option<u32> {
        (!self.is_null(i)).then(|| self.slot(i) as u32)
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
}

/// One sealed chunk of integers: `base` plus each row's offset from it.
#[derive(Debug, Clone)]
pub(crate) struct IntChunk {
    /// The chunk's smallest value (0 when every row is NULL).
    base: i64,
    /// `value − base` per row, as a `u64` wrapping difference, so a chunk
    /// holding both `i64::MIN` and `i64::MAX` packs at 64 bits.
    offsets: Slots,
}

impl IntChunk {
    #[inline]
    fn value(&self, offset: u64) -> i64 {
        self.base.wrapping_add(offset as i64)
    }

    #[inline]
    fn get(&self, i: usize) -> Option<i64> {
        (!self.offsets.is_null(i)).then(|| self.value(self.offsets.slot(i)))
    }

    /// Visits every row in order: offsets up to 32 bits decode through
    /// the bulk-unpack kernel into `scratch`, 64-bit ones are the words.
    fn for_each<F: FnMut(usize, Option<i64>)>(
        &self,
        first_row: usize,
        scratch: &mut Vec<u32>,
        f: &mut F,
    ) {
        let slots = &self.offsets;
        if slots.bits == 64 {
            slots.visit(first_row, |i| self.value(slots.words[i]), f);
        } else {
            let len = slots.len as usize;
            scratch.clear();
            scratch.resize(len, 0);
            kernel::unpack_words(&slots.words, slots.bits, len, scratch);
            slots.visit(first_row, |i| self.value(u64::from(scratch[i])), f);
        }
    }
}

/// A sealed chunk as the append logic sees it.
trait Sealed: Sized {
    /// One non-NULL row's value in the unpacked tail.
    type Value: Copy + Default;
    /// Packs a tail of at most [`CHUNK_ROWS`] rows.
    fn pack(tail: &NullableVec<Self::Value>) -> Self;
    fn slots(&self) -> &Slots;
}

impl Sealed for Slots {
    type Value = u32;
    fn pack(tail: &NullableVec<u32>) -> Slots {
        // NULL rows hold code 0, which never raises the maximum.
        let max_code = tail.values_slice().iter().copied().max().unwrap_or(0);
        Slots::pack(bits_for(max_code), tail, u64::from)
    }
    fn slots(&self) -> &Slots {
        self
    }
}

impl Sealed for IntChunk {
    type Value = i64;
    fn pack(tail: &NullableVec<i64>) -> IntChunk {
        // Without a NULL, one pass over the bare values.
        let (min, max) = match tail.null_bitmap() {
            None => min_max(tail.values_slice().iter().copied()),
            Some(_) => min_max(tail.iter().flatten()),
        };
        let base = if min <= max { min } else { 0 };
        let offset = |x: i64| (x as u64).wrapping_sub(base as u64);
        let span = if min <= max { offset(max) } else { 0 };
        IntChunk {
            base,
            offsets: Slots::pack(bits_for_span(span), tail, offset),
        }
    }
    fn slots(&self) -> &Slots {
        &self.offsets
    }
}

/// Sealed chunks plus the unpacked tail: the append, address and
/// accounting logic both packed stores share.
#[derive(Debug, Clone)]
struct Chunked<C: Sealed> {
    sealed: Vec<C>,
    /// Total rows across sealed chunks. All sealed chunks except possibly
    /// the last hold exactly [`CHUNK_ROWS`] rows, so sealed addressing is
    /// `row / CHUNK_ROWS`.
    sealed_rows: usize,
    tail: NullableVec<C::Value>,
}

impl<C: Sealed> Default for Chunked<C> {
    fn default() -> Self {
        Chunked {
            sealed: Vec::new(),
            sealed_rows: 0,
            tail: NullableVec::new(),
        }
    }
}

impl<C: Sealed> Chunked<C> {
    fn push(&mut self, row: Option<C::Value>) {
        self.tail.push(row);
        // Only auto-seal while sealed chunks are all full; after a freeze
        // of a partial chunk, appends keep accumulating in the tail so
        // `row / CHUNK_ROWS` addressing stays valid for sealed rows.
        if self.tail.len() == CHUNK_ROWS && self.sealed_rows.is_multiple_of(CHUNK_ROWS) {
            self.seal_tail();
        }
    }

    fn seal_tail(&mut self) {
        self.sealed.push(C::pack(&self.tail));
        self.sealed_rows += self.tail.len();
        self.tail.clear();
    }

    fn freeze(&mut self) {
        if !self.tail.is_empty() && self.sealed_rows.is_multiple_of(CHUNK_ROWS) {
            self.seal_tail();
        }
        self.tail.freeze();
        self.sealed.shrink_to_fit();
    }

    fn len(&self) -> usize {
        self.sealed_rows + self.tail.len()
    }

    /// The sealed chunk holding `row` and the row's index in it, or the
    /// row's tail entry. Panics when out of bounds.
    #[inline]
    fn locate(&self, row: usize) -> Result<(&C, usize), Option<C::Value>> {
        if row < self.sealed_rows {
            Ok((&self.sealed[row / CHUNK_ROWS], row % CHUNK_ROWS))
        } else {
            Err(self.tail.get(row - self.sealed_rows))
        }
    }

    fn heap_bytes(&self) -> usize {
        self.sealed
            .iter()
            .map(|c| c.slots().heap_bytes())
            .sum::<usize>()
            + self.sealed.capacity() * std::mem::size_of::<C>()
            + self.tail.heap_bytes()
    }

    fn chunk_bit_widths(&self) -> Vec<u8> {
        self.sealed.iter().map(|c| c.slots().bits).collect()
    }
}

/// Dictionary codes stored as sealed bit-packed chunks plus a mutable
/// unpacked tail. Supports append, random access, and ordered
/// word-at-a-time scans.
#[derive(Debug, Clone, Default)]
pub struct PackedCodes {
    chunks: Chunked<Slots>,
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
        self.chunks.push(code);
    }

    /// Packs any remaining tail rows into a final (possibly partial)
    /// chunk and trims spare capacity. Called when a warehouse build
    /// completes; appends afterwards remain correct but stay unpacked.
    pub fn freeze(&mut self) {
        self.chunks.freeze();
    }

    /// Total rows stored.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest code ever appended, `None` when all rows are NULL or empty.
    pub fn max_code(&self) -> Option<u32> {
        self.max_code
    }

    /// Code at `row`; panics when out of bounds (same contract as vector
    /// indexing — callers index within `0..len()`).
    #[inline]
    pub fn get(&self, row: usize) -> Option<u32> {
        match self.chunks.locate(row) {
            Ok((chunk, i)) => chunk.get(i),
            Err(code) => code,
        }
    }

    /// Visits `(row, code)` for every row in `range`, in row order. Sealed
    /// chunks covering at least `BULK_DECODE_MIN` (256) rows of the range are
    /// bulk-unpacked into a per-thread scratch buffer by the vectorized
    /// kernel; smaller slices decode one packed word at a time.
    pub fn for_each<F: FnMut(usize, Option<u32>)>(&self, range: Range<usize>, mut f: F) {
        let Chunked {
            sealed,
            sealed_rows,
            tail,
        } = &self.chunks;
        let start = range.start.min(self.len());
        let end = range.end.min(self.len());
        let mut row = start;
        while row < end && row < *sealed_rows {
            let chunk_idx = row / CHUNK_ROWS;
            let chunk = &sealed[chunk_idx];
            let chunk_base = chunk_idx * CHUNK_ROWS;
            let local_start = row - chunk_base;
            let local_end = (end - chunk_base).min(chunk.len as usize);
            let local = local_start..local_end;
            if local.len() >= BULK_DECODE_MIN {
                with_scratch(|scratch| chunk.for_each_bulk(local, chunk_base, scratch, &mut f));
            } else {
                chunk.for_each(local, chunk_base, &mut f);
            }
            row = chunk_base + local_end;
        }
        while row < end {
            f(row, tail.get(row - sealed_rows));
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
        for chunk in &self.chunks.sealed {
            let len = chunk.len as usize;
            chunk.unpack_into(&mut out[base..base + len]);
            base += len;
        }
        for (i, v) in self.chunks.tail.iter().enumerate() {
            out[base + i] = v.unwrap_or(kernel::NULL_CODE);
        }
    }

    /// Heap bytes held by packed words, null bitmaps, and the tail.
    pub fn heap_bytes(&self) -> usize {
        self.chunks.heap_bytes()
    }

    /// Bit widths of the sealed chunks, in chunk order (for inspection
    /// and tests).
    pub fn chunk_bit_widths(&self) -> Vec<u8> {
        self.chunks.chunk_bit_widths()
    }
}

/// Nullable 64-bit integers stored as sealed frame-of-reference chunks
/// plus a mutable unpacked tail: per chunk an `i64` base and each row's
/// offset from it, bit-packed at the chunk's own width.
#[derive(Debug, Clone, Default)]
pub struct PackedInts {
    chunks: Chunked<IntChunk>,
}

impl PackedInts {
    /// An empty integer store.
    pub fn new() -> Self {
        PackedInts::default()
    }

    /// Appends one value (or NULL). Seals the tail into a packed chunk
    /// each time it reaches [`CHUNK_ROWS`] rows.
    pub fn push(&mut self, value: Option<i64>) {
        self.chunks.push(value);
    }

    /// Packs any remaining tail rows into a final (possibly partial)
    /// chunk and trims spare capacity; appends afterwards remain correct
    /// but stay unpacked, as with [`PackedCodes::freeze`].
    pub fn freeze(&mut self) {
        self.chunks.freeze();
    }

    /// Total rows stored.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `row`, `None` when NULL; panics when out of bounds.
    #[inline]
    pub fn get(&self, row: usize) -> Option<i64> {
        match self.chunks.locate(row) {
            Ok((chunk, i)) => chunk.get(i),
            Err(value) => value,
        }
    }

    /// Visits `(row, value)` for every row in row order, decoding each
    /// sealed chunk in one pass of the bulk-unpack kernel (into the
    /// thread's decode scratch) rather than one shift-and-mask per row.
    pub fn for_each<F: FnMut(usize, Option<i64>)>(&self, mut f: F) {
        let Chunked {
            sealed,
            sealed_rows,
            tail,
        } = &self.chunks;
        with_scratch(|scratch| {
            for (c, chunk) in sealed.iter().enumerate() {
                chunk.for_each(c * CHUNK_ROWS, scratch, &mut f);
            }
        });
        for (i, v) in tail.iter().enumerate() {
            f(sealed_rows + i, v);
        }
    }

    /// Heap bytes held by packed offsets, chunk headers, null bitmaps,
    /// and the tail.
    pub fn heap_bytes(&self) -> usize {
        self.chunks.heap_bytes()
    }

    /// Offset widths of the sealed chunks, in chunk order: the column's
    /// encoding, as `kdap stats` prints it.
    pub fn chunk_bit_widths(&self) -> Vec<u8> {
        self.chunks.chunk_bit_widths()
    }
}

/// A dense value vector plus a lazily-allocated null bitmap, half the
/// footprint of `Vec<Option<T>>` for 8-byte values: float columns, and
/// the unpacked tail of both packed stores.
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

    /// Empties the vector, keeping the value capacity.
    fn clear(&mut self) {
        self.values.clear();
        self.nulls = None;
        self.n_nulls = 0;
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
        assert_eq!(pc.chunks.sealed.len(), 2);
        assert_eq!(pc.chunks.tail.len(), 1234);
        pc.freeze();
        assert_eq!(pc.chunks.sealed.len(), 3);
        assert_eq!(pc.chunks.tail.len(), 0);
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
        assert_eq!(pc.chunks.sealed.len(), 1);
        // A partial chunk is sealed; further appends must not seal again
        // (that would break row/CHUNK_ROWS addressing) but must read back.
        for i in 10..20u32 {
            pc.push(Some(i));
        }
        assert_eq!(pc.chunks.tail.len(), 10);
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
