//! The vectorized scan is an *execution* strategy, never a *semantics*
//! change: the fixed-trip bit-unpack must reproduce the independent
//! div/mod oracle kept below, row sets must answer as a boolean-vector
//! model and canonicalize to the form their counts say, and the batch
//! group-by scan built on them must reproduce the row-at-a-time oracle
//! of `tests/support` bit-for-bit — across bit widths, container shapes,
//! null bitmaps, thread counts, and the dense-array and hash-fallback
//! accumulator paths.

mod support;

use std::collections::BTreeMap;

use proptest::prelude::*;

use kdap_suite::core::{materialize, Kdap};
use kdap_suite::datagen::{build_aw_online, Scale};
use kdap_suite::query::bitmap::{ARRAY_MAX, BLOCK_ROWS};
use kdap_suite::query::{
    multi_group_by_exec, Accumulator, ContainerHistogram, ExecConfig, FacetGroups, FacetSpec,
    MeasureVector, QueryError, RowSet, DENSE_GROUP_LIMIT,
};
use kdap_suite::warehouse::kernel;

use support::{
    aggregate_total, bits, candidate_specs, group_by_buckets, group_by_categorical, hostile_floats,
    project_categorical, project_numeric, workload, KeyWalker,
};

/// Deterministic pseudo-random words (splitmix64).
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The unpack oracle: one divide, one modulo, one shift and one mask per
/// code — `len` codes bit-packed at `bits` per code, slot 0 in the low
/// bits, `64 / bits` codes per word.
fn unpack_words_oracle(words: &[u64], bits: u8, len: usize, out: &mut [u32]) {
    let bits = bits as usize;
    let per_word = 64 / bits;
    let mask = (1u64 << bits) - 1;
    for (i, slot) in out[..len].iter_mut().enumerate() {
        *slot = ((words[i / per_word] >> ((i % per_word) * bits)) & mask) as u32;
    }
}

// ---------------------------------------------------------------------
// Kernel level
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bulk bit-unpack agrees with the div/mod oracle for every supported
    /// width, at every length (including empty and partial final words),
    /// from every word offset a chunked decode starts at, and
    /// null-sentinel application on top yields identical buffers.
    #[test]
    fn unpack_matches_the_div_mod_oracle(
        bits in proptest::sample::select(vec![1u8, 2, 4, 8, 16, 32]),
        len in 0usize..3000,
        // 0..3: land within one code of a word boundary; else keep `len`.
        near_boundary in 0usize..6,
        word_start in 0usize..40,
        seed in any::<u64>(),
        null_every in 0usize..8,
    ) {
        let per_word = 64 / bits as usize;
        let len = match near_boundary {
            off @ 0..=2 => (len / per_word * per_word + off).saturating_sub(1),
            _ => len,
        };
        let mut next = splitmix(seed);
        // A ranged chunk decode (`PackedCodes::for_each_bulk`) hands the
        // kernel `&words[word_start..]`: an offset start and more words
        // than `len` codes need.
        let words: Vec<u64> =
            (0..word_start + len.div_ceil(per_word) + 3).map(|_| next()).collect();
        let src = &words[word_start..];
        let mut oracle = vec![0u32; len];
        let mut unpacked = vec![0xAAAA_AAAAu32; len];
        unpack_words_oracle(src, bits, len, &mut oracle);
        kernel::unpack_words(src, bits, len, &mut unpacked);
        prop_assert_eq!(&oracle, &unpacked);
        // Null sentinel on top: exactly the null rows read NULL_CODE.
        let null_words: Vec<u64> = (0..len.div_ceil(64))
            .map(|_| if null_every == 0 { 0 } else { next() })
            .collect();
        kernel::apply_null_sentinel(&null_words, &mut unpacked);
        for (i, (&got, &code)) in unpacked.iter().zip(&oracle).enumerate() {
            let is_null = null_words[i / 64] >> (i % 64) & 1 == 1;
            prop_assert_eq!(got, if is_null { kernel::NULL_CODE } else { code }, "row {}", i);
        }
    }
}

// ---------------------------------------------------------------------
// RowSet level: container shapes against a naive model
// ---------------------------------------------------------------------

/// Sets the rows of `model` that one shape recipe picks:
/// 0 = sparse scatter (Array), 1 = dense runs (Run), 2 = random fill
/// (Bitmap) — per block, so multi-block sets mix container kinds.
fn fill_block(model: &mut [bool], block: usize, shape: u8, seed: u64) {
    let base = block * BLOCK_ROWS;
    let limit = model.len().min(base + BLOCK_ROWS);
    if base >= limit {
        return;
    }
    let span = limit - base;
    let mut next = splitmix(seed);
    let mut put = |row: usize| model[row] = true;
    match shape {
        0 => {
            for _ in 0..200 {
                put(base + next() as usize % span);
            }
        }
        1 => {
            for _ in 0..4 {
                let start = next() as usize % span;
                let len = (next() as usize % 5000).min(span - start);
                for r in start..start + len {
                    put(base + r);
                }
            }
        }
        _ => {
            for _ in 0..span / 3 {
                put(base + next() as usize % span);
            }
        }
    }
}

/// A canonical set holds, per block, the form the model's counts make
/// smallest: runs (4 bytes each) when they undercut both an array
/// (2 bytes per row) and the bitmap (8 bytes per word), else an array up
/// to `ARRAY_MAX` rows, else the bitmap — the order in which
/// `RowSet::from_words` breaks ties. `heap_bytes` is those forms' sizes
/// on top of an empty set's block table.
fn check_canonical_forms(set: &RowSet, model: &[bool]) {
    let mut want = ContainerHistogram::default();
    let mut bytes = RowSet::empty(model.len()).heap_bytes();
    for block in model.chunks(BLOCK_ROWS) {
        let card = block.iter().filter(|&&x| x).count();
        let runs = (0..block.len())
            .filter(|&i| block[i] && (i == 0 || !block[i - 1]))
            .count();
        let words = block.len().div_ceil(64);
        let (form, size) = if card == 0 {
            (&mut want.arrays, 0)
        } else if runs * 4 < (card * 2).min(words * 8) {
            (&mut want.runs, runs * 4)
        } else if card <= ARRAY_MAX {
            (&mut want.arrays, card * 2)
        } else {
            (&mut want.bitmaps, words * 8)
        };
        *form += 1;
        bytes += size as u64;
    }
    assert_eq!(set.container_histogram(), want);
    assert_eq!(set.heap_bytes(), bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Intersection over mixed container shapes equals the boolean-vector
    /// model, as do cardinality and membership after canonicalization,
    /// and canonicalization picks the form the model's counts say.
    #[test]
    fn rowset_ops_match_naive_model(
        shapes_a in proptest::collection::vec(0u8..3, 3),
        shapes_b in proptest::collection::vec(0u8..3, 3),
        seed in any::<u64>(),
        tail in 1usize..2000,
    ) {
        let universe = 2 * BLOCK_ROWS + tail;
        let mut ma = vec![false; universe];
        let mut mb = vec![false; universe];
        for blk in 0..3 {
            fill_block(&mut ma, blk, shapes_a[blk], seed ^ (blk as u64 + 1));
            fill_block(&mut mb, blk, shapes_b[blk], seed ^ (0x100 + blk as u64));
        }
        let rows = |model: &[bool]| (0..universe).filter(|&r| model[r]).collect::<Vec<_>>();
        let a = RowSet::from_rows(universe, rows(&ma));
        let b = RowSet::from_rows(universe, rows(&mb));
        prop_assert_eq!(a.len(), ma.iter().filter(|&&x| x).count());
        let check = |set: &RowSet, model: &[bool]| {
            let want: Vec<usize> =
                model.iter().enumerate().filter(|(_, &x)| x).map(|(i, _)| i).collect();
            let got: Vec<usize> = set.iter().collect();
            assert_eq!(got, want);
            assert_eq!(set.len(), want.len());
        };
        let mut and = a.clone();
        and.intersect_with(&b).unwrap();
        let m_and: Vec<bool> = ma.iter().zip(&mb).map(|(&x, &y)| x && y).collect();
        check(&and, &m_and);
        // The same operands in canonical form (run containers included).
        let canonical = |s: &RowSet| RowSet::from_words(universe, s.to_words()).unwrap();
        check_canonical_forms(&canonical(&a), &ma);
        check_canonical_forms(&canonical(&b), &mb);
        check_canonical_forms(&canonical(&and), &m_and);
        let mut and = canonical(&a);
        and.intersect_with(&canonical(&b)).unwrap();
        check(&and, &m_and);
    }
}

// ---------------------------------------------------------------------
// Group-by scan: row-at-a-time oracle vs the batch scan
// ---------------------------------------------------------------------

/// The accumulators of a finished spec, keyed like the oracle's results
/// (categorical: code; buckets: position; total: 0). Groups whose every
/// measure value was NULL carry no accumulator on either side.
fn accumulators(fg: &FacetGroups) -> BTreeMap<u32, Accumulator> {
    match fg {
        FacetGroups::Dense { stats } => stats
            .iter()
            .enumerate()
            .filter(|(_, s)| s.acc.count > 0)
            .map(|(i, s)| (i as u32, s.acc))
            .collect(),
        // Buckets keep empty slots: the series is positional.
        FacetGroups::Buckets { stats } => stats
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.acc))
            .collect(),
        FacetGroups::Sparse { stats } => stats
            .iter()
            .filter(|(_, s)| s.acc.count > 0)
            .map(|(k, s)| (*k, s.acc))
            .collect(),
        FacetGroups::Total { stats } => [(0, stats.acc)].into(),
        FacetGroups::Domain { .. } => BTreeMap::new(),
    }
}

/// Scans every candidate spec of `kdap` over `rows` in one engine pass
/// and holds each result to the oracle: same groups, same domains, same
/// accumulator bit patterns (count, sum, min, max).
fn check_scan_against_oracle(kdap: &Kdap, rows: &RowSet, threads: usize, dense_limit: usize) {
    let wh = kdap.warehouse();
    let keys = KeyWalker::new(wh);
    let measure = kdap.measure();
    let mv = MeasureVector::build(wh, measure);
    let exec = ExecConfig::with_threads(threads);
    let tagged = candidate_specs(kdap, &keys, rows);
    let specs: Vec<FacetSpec> = tagged.iter().map(|(_, s)| s.clone()).collect();
    let got = multi_group_by_exec(wh, &specs, rows, &mv, &exec, dense_limit).unwrap();
    assert_eq!(got.len(), specs.len());
    for (i, ((path, spec), fg)) in tagged.iter().zip(&got).enumerate() {
        let want: BTreeMap<u32, Accumulator> = match spec {
            FacetSpec::Total => [(0, aggregate_total(wh, measure, rows))].into(),
            FacetSpec::Categorical { attr, .. } => {
                assert_eq!(fg.domain(), project_categorical(&keys, path, *attr, rows));
                group_by_categorical(&keys, path, *attr, rows, measure)
                    .into_iter()
                    .collect()
            }
            FacetSpec::Buckets { attr, buckets, .. } => {
                group_by_buckets(&keys, path, *attr, rows, measure, buckets)
                    .into_iter()
                    .enumerate()
                    .map(|(b, acc)| (b as u32, acc))
                    .collect()
            }
            FacetSpec::NumericDomain { attr, .. } => {
                let values = project_numeric(&keys, path, *attr, rows);
                let finite = || values.iter().copied().filter(|v| v.is_finite());
                let FacetGroups::Domain { min, max, any } = fg else {
                    panic!("domain spec yields a domain");
                };
                assert_eq!(*any, finite().next().is_some());
                assert_eq!(*min, finite().fold(f64::INFINITY, f64::min));
                assert_eq!(*max, finite().fold(f64::NEG_INFINITY, f64::max));
                BTreeMap::new()
            }
        };
        let got_bits: Vec<_> = accumulators(fg)
            .iter()
            .map(|(k, a)| (*k, bits(a)))
            .collect();
        let want_bits: Vec<_> = want.iter().map(|(k, a)| (*k, bits(a))).collect();
        assert_eq!(
            got_bits, want_bits,
            "spec {i} ({spec:?}) threads={threads} dense_limit={dense_limit}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batch scan equals the row-at-a-time oracle bit-for-bit on
    /// workload subspaces, on both accumulator paths, at one and four
    /// threads.
    #[test]
    fn fused_group_by_matches_the_row_oracle_bit_for_bit(
        query_idx in 0usize..64,
        threads in proptest::sample::select(vec![1usize, 4]),
        dense in any::<bool>(),
    ) {
        let fx = workload();
        let kdap = &fx.serial;
        let dense_limit = if dense { DENSE_GROUP_LIMIT } else { 0 };
        for net in fx.nets(query_idx).iter().take(2) {
            let sub = materialize(kdap.warehouse(), kdap.join_index(), net);
            check_scan_against_oracle(kdap, &sub, threads, dense_limit);
        }
    }
}

/// The floating-point contract on a warehouse wide enough to chunk
/// (24k facts: two full 8192-row chunks and a partial one, which also
/// takes the threaded arm): rows accumulate in ascending order within
/// fixed chunks and partials merge in chunk order, so the scan equals the
/// oracle bit-for-bit at any thread count — on the whole dataspace and on
/// a scattered subset that leaves chunks unevenly filled, of AW_ONLINE and
/// of the star whose float attribute holds NULL, NaN, ±∞ and −0.0.
#[test]
fn chunked_scan_keeps_the_chunk_then_merge_order() {
    let wh = build_aw_online(Scale::small().scaled(10), 42).expect("generator is valid");
    let aw = Kdap::builder(wh).build().expect("measure defined");
    for kdap in [&aw, hostile_floats()] {
        let n = kdap.warehouse().fact_rows();
        assert!(n > 2 * 8192, "fixture must span several chunks");
        let all = RowSet::full(n);
        let scattered = RowSet::from_rows(n, (0..n).filter(|r| r % 7 == 0 || r % 8192 < 40));
        for rows in [&all, &scattered] {
            for threads in [1usize, 4] {
                for dense_limit in [DENSE_GROUP_LIMIT, 0] {
                    check_scan_against_oracle(kdap, rows, threads, dense_limit);
                }
            }
        }
    }
}

/// The scan's trust boundary: it indexes the measure vector by fact row,
/// so a row set over more rows than the vector covers is a typed error at
/// entry — never an out-of-bounds read.
#[test]
fn row_set_wider_than_the_measure_vector_is_a_typed_error() {
    let wh = build_aw_online(Scale::small().scaled(25), 42).expect("generator is valid");
    let measure = wh.schema().measure_by_name("SalesRevenue").unwrap();
    let mv = MeasureVector::build(&wh, measure);
    assert_eq!(mv.len(), 60_000);
    let rows = RowSet::full(70_000);
    for threads in [1usize, 4] {
        let exec = ExecConfig::with_threads(threads);
        let err = multi_group_by_exec(
            &wh,
            &[FacetSpec::Total],
            &rows,
            &mv,
            &exec,
            DENSE_GROUP_LIMIT,
        )
        .unwrap_err();
        assert_eq!(
            err,
            QueryError::UniverseMismatch {
                left: 70_000,
                right: 60_000
            }
        );
    }
}
