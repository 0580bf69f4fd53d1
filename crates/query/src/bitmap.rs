//! Hybrid row sets for fact-row sets (subspaces).
//!
//! A KDAP *subspace* DS′ is exactly a [`RowSet`] over the fact table.
//! Historically this was one flat `Vec<u64>` bitmap; at 10M+ rows that
//! costs 8 bytes per 64 rows regardless of density, and set algebra
//! always walks the whole universe. The hybrid layout splits the
//! universe into blocks of [`BLOCK_ROWS`] rows, each stored as whichever
//! container is smallest for its density (the Roaring design):
//!
//! * **Array** — sorted `u16` row offsets, for sparse blocks
//!   (≤ [`ARRAY_MAX`] rows);
//! * **Bitmap** — a 1024-word bitmap, for dense scattered blocks;
//! * **Run** — sorted `(start, end)` runs, for contiguous blocks
//!   (`full()` is one run per block).
//!
//! A set is built whole from its words ([`RowSet::from_words`],
//! [`RowSet::from_rows`]), each block in the smallest of the three forms,
//! and every set-algebra result is re-canonicalized the same way. A
//! subspace is a conjunction of keyword constraints, so the one set
//! operation is [`RowSet::intersect_with`]; word-granular entry points
//! (`n_words`, `to_words`, `from_words`, `for_each_in_word_range`) keep
//! the chunked kernels and their thread-count-invariant results working
//! on top.

use crate::error::QueryError;

/// Rows per block: matches the warehouse chunk size so one block of rows
/// corresponds to one packed column chunk.
pub const BLOCK_ROWS: usize = 1 << 16;

/// Words per full block bitmap.
const BLOCK_WORDS: usize = BLOCK_ROWS / 64;

/// Largest array container: beyond this many rows a block converts to a
/// bitmap (4096 × 2 bytes = the break-even point against 8 KiB bitmaps).
pub const ARRAY_MAX: usize = 4096;

/// Counts of each container type across a set of row sets — the
/// compression telemetry surfaced by `kdap stats` and the HTTP stats
/// endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContainerHistogram {
    /// Sparse blocks stored as sorted row arrays.
    pub arrays: usize,
    /// Dense scattered blocks stored as bitmaps.
    pub bitmaps: usize,
    /// Contiguous blocks stored as run lists.
    pub runs: usize,
}

impl ContainerHistogram {
    /// Accumulates another histogram into this one.
    pub fn merge(&mut self, other: &ContainerHistogram) {
        self.arrays += other.arrays;
        self.bitmaps += other.bitmaps;
        self.runs += other.runs;
    }

    /// Total container count.
    pub fn total(&self) -> usize {
        self.arrays + self.bitmaps + self.runs
    }
}

/// One block's physical container.
#[derive(Debug, Clone)]
enum Container {
    /// Sorted row offsets within the block.
    Array(Vec<u16>),
    /// Bitmap over the block's rows; `limit.div_ceil(64)` words.
    Bitmap(Box<[u64]>),
    /// Sorted, disjoint, non-adjacent inclusive `(start, end)` runs.
    Run(Vec<(u16, u16)>),
}

/// Total set bits in `words`.
fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Number of 0→1 transitions across `words` — the bitmap's run count,
/// carrying the top bit across word boundaries.
fn count_run_starts(words: &[u64]) -> usize {
    let mut n = 0usize;
    let mut carry = 0u64;
    for &w in words {
        n += (w & !((w << 1) | carry)).count_ones() as usize;
        carry = w >> 63;
    }
    n
}

/// Sets bits `s..=e` in `words`.
fn set_bit_range(words: &mut [u64], s: usize, e: usize) {
    let (sw, sb) = (s / 64, s % 64);
    let (ew, eb) = (e / 64, e % 64);
    if sw == ew {
        let width = eb - sb + 1;
        let mask = if width == 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1) << sb
        };
        words[sw] |= mask;
    } else {
        words[sw] |= u64::MAX << sb;
        for w in &mut words[sw + 1..ew] {
            *w = u64::MAX;
        }
        words[ew] |= u64::MAX >> (63 - eb);
    }
}

impl Container {
    fn empty() -> Container {
        Container::Array(Vec::new())
    }

    fn cardinality(&self) -> usize {
        match self {
            Container::Array(a) => a.len(),
            Container::Bitmap(w) => popcount(w),
            Container::Run(rs) => rs.iter().map(|&(s, e)| e as usize - s as usize + 1).sum(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Container::Array(a) => a.is_empty(),
            Container::Bitmap(w) => w.iter().all(|&w| w == 0),
            Container::Run(rs) => rs.is_empty(),
        }
    }

    fn contains(&self, r: u16) -> bool {
        match self {
            Container::Array(a) => a.binary_search(&r).is_ok(),
            Container::Bitmap(w) => {
                let (wi, b) = (r as usize / 64, r as usize % 64);
                wi < w.len() && w[wi] >> b & 1 == 1
            }
            Container::Run(rs) => {
                let idx = rs.partition_point(|&(s, _)| s <= r);
                idx > 0 && rs[idx - 1].1 >= r
            }
        }
    }

    /// Writes this container's bits into `out` (zeroing it first).
    /// `out` must hold the block's word count.
    fn write_words(&self, out: &mut [u64]) {
        out.fill(0);
        match self {
            Container::Array(a) => {
                for &r in a {
                    out[r as usize / 64] |= 1u64 << (r as usize % 64);
                }
            }
            Container::Bitmap(w) => out[..w.len()].copy_from_slice(w),
            Container::Run(rs) => {
                for &(s, e) in rs {
                    set_bit_range(out, s as usize, e as usize);
                }
            }
        }
    }

    /// Builds the canonical container for the given words: a run list
    /// when it is strictly smaller than both other forms, else an array
    /// up to [`ARRAY_MAX`] rows, else the bitmap.
    fn from_words(words: &[u64]) -> Container {
        let card = popcount(words);
        if card == 0 {
            return Container::empty();
        }
        let n_runs = count_run_starts(words);
        let run_bytes = n_runs * 4;
        let array_bytes = card * 2;
        let bitmap_bytes = words.len() * 8;
        if run_bytes < array_bytes.min(bitmap_bytes) {
            // Pair up run starts (0→1) and ends (1→0) in order.
            let mut runs = Vec::with_capacity(n_runs);
            let mut starts = Vec::with_capacity(n_runs);
            let mut carry = 0u64;
            for (wi, &w) in words.iter().enumerate() {
                let next = words.get(wi + 1).copied().unwrap_or(0);
                let mut sbits = w & !((w << 1) | carry);
                while sbits != 0 {
                    starts.push((wi * 64 + sbits.trailing_zeros() as usize) as u16);
                    sbits &= sbits - 1;
                }
                let mut ebits = w & !((w >> 1) | (next << 63));
                while ebits != 0 {
                    let e = (wi * 64 + ebits.trailing_zeros() as usize) as u16;
                    // Starts always lead ends, so one is available.
                    runs.push((starts[runs.len()], e));
                    ebits &= ebits - 1;
                }
                carry = w >> 63;
            }
            Container::Run(runs)
        } else if card <= ARRAY_MAX {
            let mut rows = Vec::with_capacity(card);
            for (wi, &w) in words.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    rows.push((wi * 64 + w.trailing_zeros() as usize) as u16);
                    w &= w - 1;
                }
            }
            Container::Array(rows)
        } else {
            Container::Bitmap(words.to_vec().into_boxed_slice())
        }
    }

    /// True when this is a single run covering the whole block universe.
    fn covers_all(&self, limit: usize) -> bool {
        matches!(self, Container::Run(rs)
            if rs.len() == 1 && rs[0].0 == 0 && rs[0].1 as usize == limit - 1)
    }

    /// Visits every set row in `local_range` (block-local, ascending),
    /// offset by `base`. Bitmap blocks decode word-at-a-time (64 rows per
    /// load); run blocks iterate without any probing at all.
    fn for_each_range<F: FnMut(usize)>(
        &self,
        local_range: std::ops::Range<usize>,
        base: usize,
        f: &mut F,
    ) {
        match self {
            Container::Array(a) => {
                let lo = a.partition_point(|&r| (r as usize) < local_range.start);
                for &r in &a[lo..] {
                    if r as usize >= local_range.end {
                        break;
                    }
                    f(base + r as usize);
                }
            }
            Container::Bitmap(words) => {
                let start_w = local_range.start / 64;
                let end_w = local_range.end.div_ceil(64).min(words.len());
                for wi in start_w..end_w {
                    let mut w = words[wi];
                    if wi == start_w {
                        let lo = local_range.start % 64;
                        if lo > 0 {
                            w &= u64::MAX << lo;
                        }
                    }
                    if wi == end_w - 1 {
                        let hi = local_range.end - wi * 64;
                        if hi < 64 {
                            w &= (1u64 << hi) - 1;
                        }
                    }
                    let word_base = base + wi * 64;
                    while w != 0 {
                        f(word_base + w.trailing_zeros() as usize);
                        w &= w - 1;
                    }
                }
            }
            Container::Run(rs) => {
                for &(s, e) in rs {
                    let s = (s as usize).max(local_range.start);
                    let e = (e as usize + 1).min(local_range.end);
                    for r in s..e {
                        f(base + r);
                    }
                }
            }
        }
    }

    /// Next set row at or after `local`, if any.
    fn next_from(&self, local: usize) -> Option<usize> {
        match self {
            Container::Array(a) => {
                let idx = a.partition_point(|&r| (r as usize) < local);
                a.get(idx).map(|&r| r as usize)
            }
            Container::Bitmap(words) => {
                let mut wi = local / 64;
                if wi >= words.len() {
                    return None;
                }
                let mut w = words[wi] & (u64::MAX << (local % 64));
                loop {
                    if w != 0 {
                        return Some(wi * 64 + w.trailing_zeros() as usize);
                    }
                    wi += 1;
                    if wi >= words.len() {
                        return None;
                    }
                    w = words[wi];
                }
            }
            Container::Run(rs) => {
                let idx = rs.partition_point(|&(s, _)| (s as usize) <= local);
                if idx > 0 && rs[idx - 1].1 as usize >= local {
                    return Some(local);
                }
                rs.get(idx).map(|&(s, _)| s as usize)
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Container::Array(a) => a.capacity() * 2,
            Container::Bitmap(w) => w.len() * 8,
            Container::Run(rs) => rs.capacity() * 4,
        }
    }
}

/// Intersects two blocks. `limit` is the block's universe (rows valid in
/// it); inputs never hold bits past `limit`, so neither does the result.
fn intersect_block(a: &Container, b: &Container, limit: usize) -> Container {
    // Cheap structural fast paths before any materialization.
    if a.is_empty() || b.is_empty() {
        return Container::empty();
    }
    if a.covers_all(limit) {
        return b.clone();
    }
    if b.covers_all(limit) {
        return a.clone();
    }
    // Array-driven paths: probe or merge without touching full bitmaps.
    match (a, b) {
        (Container::Array(xs), Container::Array(ys)) => Container::Array(intersect_arrays(xs, ys)),
        (Container::Array(xs), other) | (other, Container::Array(xs)) => {
            Container::Array(xs.iter().copied().filter(|&r| other.contains(r)).collect())
        }
        _ => {
            // General path: materialize both sides to words, AND them in
            // one pass (a loop LLVM vectorizes), re-canonicalize.
            let n_words = limit.div_ceil(64);
            let mut wa = [0u64; BLOCK_WORDS];
            let mut wb = [0u64; BLOCK_WORDS];
            a.write_words(&mut wa[..n_words]);
            b.write_words(&mut wb[..n_words]);
            for (x, y) in wa[..n_words].iter_mut().zip(&wb[..n_words]) {
                *x &= y;
            }
            Container::from_words(&wa[..n_words])
        }
    }
}

/// Intersects two sorted arrays.
fn intersect_arrays(xs: &[u16], ys: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(xs.len().min(ys.len()));
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(xs[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// A set of row indices over a table of known size, stored as one hybrid
/// container (array / bitmap / run) per [`BLOCK_ROWS`]-row block.
#[derive(Debug, Clone)]
pub struct RowSet {
    blocks: Vec<Container>,
    nrows: usize,
}

impl RowSet {
    fn n_blocks(nrows: usize) -> usize {
        nrows.div_ceil(BLOCK_ROWS)
    }

    /// Rows valid in block `b` (== `BLOCK_ROWS` except the last block).
    fn block_limit(&self, b: usize) -> usize {
        (self.nrows - b * BLOCK_ROWS).min(BLOCK_ROWS)
    }

    /// Empty set over `nrows` rows.
    pub fn empty(nrows: usize) -> Self {
        RowSet {
            blocks: (0..Self::n_blocks(nrows))
                .map(|_| Container::empty())
                .collect(),
            nrows,
        }
    }

    /// Full set over `nrows` rows — one run container per block.
    pub fn full(nrows: usize) -> Self {
        let mut s = RowSet::empty(nrows);
        for b in 0..s.blocks.len() {
            let limit = s.block_limit(b);
            s.blocks[b] = Container::Run(vec![(0, (limit - 1) as u16)]);
        }
        s
    }

    /// Builds a set from explicit row indices, in any order and with
    /// repeats. Panics when a row is out of range (programming error).
    pub fn from_rows(nrows: usize, rows: impl IntoIterator<Item = usize>) -> Self {
        let mut words = vec![0u64; nrows.div_ceil(64)];
        for r in rows {
            assert!(r < nrows, "row {r} out of range {nrows}");
            words[r / 64] |= 1u64 << (r % 64);
        }
        Self::from_valid_words(nrows, &words)
    }

    /// Builds a set from its flat word representation. `words` must hold
    /// exactly `nrows.div_ceil(64)` words with no bits past `nrows`; a
    /// stray trailing bit yields [`QueryError::TrailingBits`].
    pub fn from_words(nrows: usize, words: Vec<u64>) -> Result<Self, QueryError> {
        if words.len() != nrows.div_ceil(64) {
            return Err(QueryError::RowOutOfRange {
                row: words.len() * 64,
                universe: nrows,
            });
        }
        if let Some(&last) = words.last() {
            let bits = nrows - (words.len() - 1) * 64;
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let stray = last & !mask;
            if stray != 0 {
                return Err(QueryError::TrailingBits {
                    universe: nrows,
                    trailing: stray.count_ones(),
                });
            }
        }
        Ok(Self::from_valid_words(nrows, &words))
    }

    /// [`RowSet::from_words`] on words already checked: each block in its
    /// smallest container.
    fn from_valid_words(nrows: usize, words: &[u64]) -> Self {
        RowSet {
            blocks: words
                .chunks(BLOCK_WORDS)
                .map(Container::from_words)
                .collect(),
            nrows,
        }
    }

    /// Number of words in the flat `u64` representation
    /// (`nrows.div_ceil(64)`). Chunked kernels partition work by word
    /// index, which keeps their results identical for every thread count.
    pub fn n_words(&self) -> usize {
        self.nrows.div_ceil(64)
    }

    /// Materializes the flat word representation (least-significant bit =
    /// lowest row) — for fingerprinting and equivalence checks, not hot
    /// paths.
    pub fn to_words(&self) -> Vec<u64> {
        let mut words = vec![0u64; self.n_words()];
        for (b, c) in self.blocks.iter().enumerate() {
            let start_w = b * BLOCK_WORDS;
            let end_w = (start_w + BLOCK_WORDS).min(words.len());
            c.write_words(&mut words[start_w..end_w]);
        }
        words
    }

    /// Number of rows in the underlying table.
    pub fn universe(&self) -> usize {
        self.nrows
    }

    /// Heap footprint of the hybrid containers in bytes. Memory-budget
    /// accounting charges this for every freshly materialized set.
    pub fn heap_bytes(&self) -> u64 {
        let containers: usize = self.blocks.iter().map(Container::heap_bytes).sum();
        (containers + self.blocks.capacity() * std::mem::size_of::<Container>()) as u64
    }

    /// Counts this set's blocks by container type.
    pub fn container_histogram(&self) -> ContainerHistogram {
        let mut h = ContainerHistogram::default();
        for c in &self.blocks {
            match c {
                Container::Array(_) => h.arrays += 1,
                Container::Bitmap(_) => h.bitmaps += 1,
                Container::Run(_) => h.runs += 1,
            }
        }
        h
    }

    /// Membership test.
    pub fn contains(&self, row: usize) -> bool {
        row < self.nrows && self.blocks[row / BLOCK_ROWS].contains((row % BLOCK_ROWS) as u16)
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(Container::cardinality).sum()
    }

    /// True when no row is set.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(Container::is_empty)
    }

    /// In-place intersection; sets over different universes are a typed
    /// [`QueryError::UniverseMismatch`] and leave `self` untouched.
    pub fn intersect_with(&mut self, other: &RowSet) -> Result<(), QueryError> {
        if self.nrows != other.nrows {
            return Err(QueryError::UniverseMismatch {
                left: self.nrows,
                right: other.nrows,
            });
        }
        for b in 0..self.blocks.len() {
            let limit = self.block_limit(b);
            self.blocks[b] = intersect_block(&self.blocks[b], &other.blocks[b], limit);
        }
        Ok(())
    }

    /// Iterates set rows in ascending order.
    pub fn iter(&self) -> RowIter<'_> {
        self.iter_word_range(0..self.n_words())
    }

    /// Iterator over the rows encoded in the given word range of the flat
    /// representation. Sparse containers iterate in time proportional to
    /// their occupancy rather than the universe. Chunked kernels hand
    /// each worker a sub-range of words.
    pub fn iter_word_range(&self, words: std::ops::Range<usize>) -> RowIter<'_> {
        let start = words.start * 64;
        let end = (words.end * 64).min(self.nrows);
        RowIter {
            set: self,
            cur: start,
            end: end.max(start),
        }
    }

    /// Collects every set row in the given word range into `out`
    /// (cleared first) as `u32` row indices, in ascending order — the
    /// gather-buffer feeder for batch kernels that want a materialized
    /// index list (one tight pass per block) instead of a per-row
    /// callback. Panics when the universe does not fit in `u32` (fact
    /// rows are `u32` throughout the join index, so it always does).
    pub fn collect_rows_in_word_range(&self, words: std::ops::Range<usize>, out: &mut Vec<u32>) {
        assert!(self.nrows <= u32::MAX as usize + 1, "universe exceeds u32");
        out.clear();
        self.for_each_in_word_range(words, |r| out.push(r as u32));
    }

    /// True when some set row lies in the given word range: a chunked
    /// kernel's test for an empty chunk, without visiting its rows.
    pub fn any_in_word_range(&self, words: std::ops::Range<usize>) -> bool {
        let end = (words.end * 64).min(self.nrows);
        let mut row = words.start * 64;
        while row < end {
            let b = row / BLOCK_ROWS;
            let base = b * BLOCK_ROWS;
            let local_end = (end - base).min(BLOCK_ROWS);
            if self.blocks[b]
                .next_from(row - base)
                .is_some_and(|r| r < local_end)
            {
                return true;
            }
            row = base + local_end;
        }
        false
    }

    /// Visits every set row in the given word range in ascending order —
    /// the tight-loop twin of [`RowSet::iter_word_range`] for hot
    /// kernels: bitmap blocks decode 64 rows per word load, run blocks
    /// iterate with no probing, and the callback is invoked directly
    /// without iterator state.
    pub fn for_each_in_word_range<F: FnMut(usize)>(&self, words: std::ops::Range<usize>, mut f: F) {
        let start = words.start * 64;
        let end = (words.end * 64).min(self.nrows);
        let mut row = start;
        while row < end {
            let b = row / BLOCK_ROWS;
            let base = b * BLOCK_ROWS;
            let local_start = row - base;
            let local_end = (end - base).min(BLOCK_ROWS);
            self.blocks[b].for_each_range(local_start..local_end, base, &mut f);
            row = base + local_end;
        }
    }
}

impl PartialEq for RowSet {
    fn eq(&self, other: &Self) -> bool {
        if self.nrows != other.nrows {
            return false;
        }
        // Compare semantically: equal sets may sit in different container
        // forms (an intersection keeps an array where a run is smaller).
        let mut wa = [0u64; BLOCK_WORDS];
        let mut wb = [0u64; BLOCK_WORDS];
        for (b, (x, y)) in self.blocks.iter().zip(&other.blocks).enumerate() {
            let n_words = self.block_limit(b).div_ceil(64);
            x.write_words(&mut wa[..n_words]);
            y.write_words(&mut wb[..n_words]);
            if wa[..n_words] != wb[..n_words] {
                return false;
            }
        }
        true
    }
}

impl Eq for RowSet {}

/// Ascending row iterator over a [`RowSet`] range; see
/// [`RowSet::iter_word_range`].
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    set: &'a RowSet,
    cur: usize,
    end: usize,
}

impl Iterator for RowIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.cur < self.end {
            let b = self.cur / BLOCK_ROWS;
            match self.set.blocks[b].next_from(self.cur % BLOCK_ROWS) {
                Some(local) => {
                    let row = b * BLOCK_ROWS + local;
                    if row >= self.end {
                        return None;
                    }
                    self.cur = row + 1;
                    return Some(row);
                }
                None => self.cur = (b + 1) * BLOCK_ROWS,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_starts_carry_across_words() {
        assert_eq!(count_run_starts(&[0b0110]), 1);
        // A run spanning two words is one run.
        assert_eq!(count_run_starts(&[1 << 63, 1]), 1);
        assert_eq!(count_run_starts(&[1 << 63, 2]), 2);
        assert_eq!(count_run_starts(&[]), 0);
    }

    #[test]
    fn empty_and_full() {
        let e = RowSet::empty(70);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = RowSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(f.contains(69));
        assert!(!f.contains(70));
    }

    #[test]
    fn full_has_no_stray_bits_past_end() {
        for n in [1usize, 63, 64, 65, 128, 130, BLOCK_ROWS, BLOCK_ROWS + 1] {
            let f = RowSet::full(n);
            assert_eq!(f.len(), n, "n={n}");
            let words = f.to_words();
            let bits: usize = words.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(bits, n, "n={n}");
        }
        assert_eq!(RowSet::full(0).len(), 0);
    }

    #[test]
    fn full_uses_run_containers() {
        let f = RowSet::full(BLOCK_ROWS * 2 + 100);
        let h = f.container_histogram();
        assert_eq!(
            h,
            ContainerHistogram {
                arrays: 0,
                bitmaps: 0,
                runs: 3
            }
        );
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn from_rows_contains_iter() {
        let s = RowSet::from_rows(100, [99, 0, 64, 0]);
        assert!(s.contains(64));
        assert!(!s.contains(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 99]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn from_rows_picks_the_smallest_container() {
        let n = BLOCK_ROWS;
        let every_other = |k: usize| RowSet::from_rows(n, (0..k).map(|r| r * 2));
        assert_eq!(every_other(ARRAY_MAX).container_histogram().arrays, 1);
        let s = every_other(ARRAY_MAX + 1); // one past the array limit
        let h = s.container_histogram();
        assert_eq!((h.arrays, h.bitmaps), (0, 1));
        assert_eq!(s.len(), ARRAY_MAX + 1);
        for r in 0..=ARRAY_MAX {
            assert!(s.contains(r * 2), "row {}", r * 2);
        }
        // Contiguous rows are runs, in a 200-row universe as in a block.
        let t = RowSet::from_rows(200, (0..100).chain([150]));
        assert_eq!(t.container_histogram().runs, 1);
        assert!(t.contains(150));
        assert_eq!(t.len(), 101);
    }

    #[test]
    fn intersection() {
        let mut i = RowSet::from_rows(10, [1, 2, 3]);
        i.intersect_with(&RowSet::from_rows(10, [2, 3, 4])).unwrap();
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn intersection_across_container_kinds() {
        let n = BLOCK_ROWS * 2 + 500;
        let full = RowSet::full(n); // runs
        let sparse = RowSet::from_rows(n, (0..n).step_by(1000)); // arrays
        let dense = RowSet::from_rows(n, (0..n).filter(|r| r % 3 != 0)); // bitmaps
        for x in [&full, &sparse, &dense] {
            for y in [&full, &sparse, &dense] {
                let mut i = x.clone();
                i.intersect_with(y).unwrap();
                let ys: std::collections::HashSet<usize> = y.iter().collect();
                let want: Vec<usize> = x.iter().filter(|r| ys.contains(r)).collect();
                assert_eq!(i.iter().collect::<Vec<_>>(), want);
                assert_eq!(i.len(), want.len());
            }
        }
    }

    #[test]
    fn intersection_canonicalizes_to_smallest_container() {
        let n = BLOCK_ROWS;
        let evens = |rows: std::ops::Range<usize>| rows.step_by(2);
        // Two dense bitmaps sharing ten scattered rows → tiny array.
        let mut a = RowSet::from_rows(n, evens(0..n));
        let b = RowSet::from_rows(n, (0..n).filter(|r| *r < 20 || r % 2 == 1));
        assert_eq!(b.container_histogram().bitmaps, 1);
        a.intersect_with(&b).unwrap();
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            evens(0..20).collect::<Vec<_>>()
        );
        assert_eq!(a.container_histogram().arrays, 1);
        // Bitmap ∩ short run: the contiguous residual stays a run.
        let mut c = RowSet::from_rows(n, (0..20).chain(evens(20..n)));
        assert_eq!(c.container_histogram().bitmaps, 1);
        c.intersect_with(&RowSet::from_rows(n, 0..10)).unwrap();
        assert_eq!(c.len(), 10);
        assert_eq!(c.container_histogram().runs, 1);
        // Two bitmaps whose scattered rows miss each other → one run.
        let mut lo = RowSet::from_rows(n, (n / 8..3 * n / 4).chain(evens(7 * n / 8..n)));
        let hi = RowSet::from_rows(n, evens(0..n / 8).chain(n / 4..13 * n / 16));
        assert_eq!(lo.container_histogram().bitmaps, 1);
        assert_eq!(hi.container_histogram().bitmaps, 1);
        lo.intersect_with(&hi).unwrap();
        assert_eq!(lo.len(), n / 2);
        assert_eq!(lo.container_histogram().runs, 1);
        assert!(lo.heap_bytes() < 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_rows_out_of_range_panics() {
        RowSet::from_rows(5, [5]);
    }

    #[test]
    fn mismatched_universe_is_a_typed_error() {
        let mut a = RowSet::from_rows(5, [1, 3]);
        let err = a.intersect_with(&RowSet::empty(6)).unwrap_err();
        assert_eq!(err, QueryError::UniverseMismatch { left: 5, right: 6 });
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 3], "untouched");
        assert!(a.intersect_with(&RowSet::full(5)).is_ok());
    }

    #[test]
    fn words_round_trip() {
        let a = RowSet::from_rows(130, [0, 64, 129]);
        let b = RowSet::from_words(130, a.to_words()).unwrap();
        assert_eq!(a, b);
        // Wrong word count is rejected.
        assert!(RowSet::from_words(130, vec![0; 2]).is_err());
        // Round-trip across block boundaries.
        let n = BLOCK_ROWS + 77;
        let c = RowSet::from_rows(n, (0..n).step_by(13));
        assert_eq!(RowSet::from_words(n, c.to_words()).unwrap(), c);
    }

    #[test]
    fn trailing_bits_past_universe_are_a_typed_error() {
        // 130-row universe: the last word may only use bits 0 and 1.
        let err = RowSet::from_words(130, vec![0, 0, u64::MAX]).unwrap_err();
        assert_eq!(
            err,
            QueryError::TrailingBits {
                universe: 130,
                trailing: 62,
            }
        );
        let err = RowSet::from_words(64, vec![u64::MAX]).map(|_| ());
        assert_eq!(err, Ok(())); // exactly 64 rows: all bits valid
        let err = RowSet::from_words(63, vec![u64::MAX]).unwrap_err();
        assert!(matches!(err, QueryError::TrailingBits { trailing: 1, .. }));
    }

    #[test]
    fn equality_is_semantic_across_representations() {
        let n = BLOCK_ROWS;
        // Rows 0..4 as an array (an intersection filters one) and as a run.
        let mut via_array = RowSet::from_rows(n, [0, 1, 2, 3, 200, 300, 400]);
        via_array
            .intersect_with(&RowSet::from_rows(n, 0..100))
            .unwrap();
        let via_run = RowSet::from_rows(n, 0..4);
        assert_ne!(
            via_array.container_histogram(),
            via_run.container_histogram()
        );
        assert_eq!(via_array, via_run);
        let via_full = RowSet::full(n);
        let mut different = via_full.clone();
        different
            .intersect_with(&RowSet::from_rows(n, (0..n).filter(|&r| r != 77)))
            .unwrap();
        assert_ne!(different, via_full);
    }

    #[test]
    fn word_range_iteration() {
        let s = RowSet::from_rows(256, [0, 63, 64, 200]);
        assert_eq!(s.iter_word_range(0..1).collect::<Vec<_>>(), vec![0, 63]);
        assert_eq!(s.iter_word_range(1..4).collect::<Vec<_>>(), vec![64, 200]);
        assert_eq!(s.iter_word_range(2..3).count(), 0);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 200]);
    }

    #[test]
    fn for_each_matches_iter_on_every_container_kind() {
        let n = BLOCK_ROWS * 2 + 300;
        let sets = [
            RowSet::full(n),
            RowSet::from_rows(n, (0..n).step_by(701)),
            RowSet::from_rows(n, (0..n).filter(|r| r % 2 == 0)),
            RowSet::from_rows(n, (0..n).filter(|r| r % 6000 < 64)),
            RowSet::empty(n),
        ];
        for s in &sets {
            // Whole-set scan.
            let mut seen = Vec::new();
            s.for_each_in_word_range(0..s.n_words(), |r| seen.push(r));
            assert_eq!(seen, s.iter().collect::<Vec<_>>());
            // Sub-word-range scans, including block-straddling ones.
            for range in [
                0..2,
                5..9,
                1020..1030,
                (BLOCK_ROWS / 64 - 1)..(BLOCK_ROWS / 64 + 2),
            ] {
                let mut seen = Vec::new();
                s.for_each_in_word_range(range.clone(), |r| seen.push(r));
                assert_eq!(
                    seen,
                    s.iter_word_range(range.clone()).collect::<Vec<_>>(),
                    "range {range:?}"
                );
                assert_eq!(
                    s.any_in_word_range(range.clone()),
                    !seen.is_empty(),
                    "range {range:?}"
                );
            }
            // Every one-word range: a row just before or after the range
            // is not in it.
            for w in 0..s.n_words() {
                assert_eq!(
                    s.any_in_word_range(w..w + 1),
                    s.iter_word_range(w..w + 1).next().is_some(),
                    "word {w}"
                );
            }
        }
    }

    #[test]
    fn heap_bytes_tracks_density() {
        let n = BLOCK_ROWS * 8;
        let full = RowSet::full(n);
        let sparse = RowSet::from_rows(n, (0..n).step_by(10_000));
        let dense = RowSet::from_rows(n, (0..n).filter(|r| r % 3 == 0));
        // Runs and arrays are orders of magnitude below the flat bitmap
        // cost (n/8 bytes); dense scattered sets pay the bitmap cost.
        assert!(full.heap_bytes() < 2048, "{}", full.heap_bytes());
        assert!(sparse.heap_bytes() < 8192, "{}", sparse.heap_bytes());
        assert!(dense.heap_bytes() >= (n / 8) as u64);
    }
}
