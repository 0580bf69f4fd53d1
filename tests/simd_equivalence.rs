//! The kernel tier is an *execution* strategy, never a *semantics*
//! change: each dispatched kernel (bit-unpack, popcount, run-start count)
//! must reproduce the Scalar tier bit-for-bit — and, for unpack, the
//! independent div/mod oracle kept below — and the batch group-by scan
//! built on them must reproduce the row-at-a-time oracle of
//! `tests/support` — across bit widths, container shapes, null bitmaps,
//! thread counts, and the dense-array / hash-fallback / mid-scan
//! promotion accumulator paths. On hosts without AVX2 the dispatched side
//! *is* the Scalar tier and those checks pass trivially; CI additionally
//! runs the whole suite under `KDAP_NO_SIMD=1`.

mod support;

use std::collections::BTreeMap;

use proptest::prelude::*;

use kdap_suite::core::{materialize, Kdap};
use kdap_suite::datagen::{build_aw_online, Scale};
use kdap_suite::obs::Obs;
use kdap_suite::query::aggregate_multi::multi_group_by_exec_sized;
use kdap_suite::query::bitmap::BLOCK_ROWS;
use kdap_suite::query::{
    multi_group_by_exec, Accumulator, ExecConfig, FacetGroups, FacetSpec, MeasureVector,
    QueryError, RowSet, DENSE_GROUP_LIMIT,
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

    /// Bulk bit-unpack, three ways: the div/mod oracle, the Scalar tier
    /// and the dispatched kernel agree for every supported width, at
    /// every length (including empty and partial final words), from every
    /// word offset a chunked decode starts at, and null-sentinel
    /// application on top yields identical buffers.
    #[test]
    fn unpack_dispatch_matches_scalar(
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
        let mut scalar = vec![0x5555_5555u32; len];
        let mut dispatched = vec![0xAAAA_AAAAu32; len];
        unpack_words_oracle(src, bits, len, &mut oracle);
        kernel::unpack_words_scalar(src, bits, len, &mut scalar);
        kernel::unpack_words(src, bits, len, &mut dispatched);
        prop_assert_eq!(&oracle, &scalar);
        prop_assert_eq!(&oracle, &dispatched);
        // Null sentinel on top: exactly the null rows read NULL_CODE.
        let null_words: Vec<u64> = (0..len.div_ceil(64))
            .map(|_| if null_every == 0 { 0 } else { next() })
            .collect();
        kernel::apply_null_sentinel(&null_words, &mut dispatched);
        for (i, (&got, &code)) in dispatched.iter().zip(&oracle).enumerate() {
            let is_null = null_words[i / 64] >> (i % 64) & 1 == 1;
            prop_assert_eq!(got, if is_null { kernel::NULL_CODE } else { code }, "row {}", i);
        }
    }

    /// Canonicalization counts: popcount and run-start counting match the
    /// Scalar tier on random word blocks of every length up to beyond one
    /// container, with long runs spliced in so carries cross words.
    #[test]
    fn word_ops_dispatch_matches_scalar(
        n_words in 0usize..1100,
        seed in any::<u64>(),
        solid in 0usize..64,
    ) {
        let mut next = splitmix(seed);
        let mut a: Vec<u64> = (0..n_words).map(|_| next()).collect();
        for w in a.iter_mut().skip(seed as usize % 7).take(solid) {
            *w = u64::MAX;
        }
        prop_assert_eq!(kernel::popcount_words_scalar(&a), kernel::popcount_words(&a));
        prop_assert_eq!(kernel::count_run_starts_scalar(&a), kernel::count_run_starts(&a));
    }
}

// ---------------------------------------------------------------------
// RowSet level: container shapes against a naive model
// ---------------------------------------------------------------------

/// Fills `set` and `model` with the same rows from one shape recipe:
/// 0 = sparse scatter (Array), 1 = dense runs (Run), 2 = random fill
/// (Bitmap) — per block, so multi-block sets mix container kinds.
fn fill_block(set: &mut RowSet, model: &mut [bool], block: usize, shape: u8, seed: u64) {
    let base = block * BLOCK_ROWS;
    let limit = model.len().min(base + BLOCK_ROWS);
    if base >= limit {
        return;
    }
    let span = limit - base;
    let mut next = splitmix(seed);
    let mut put = |row: usize| {
        set.insert(row);
        model[row] = true;
    };
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Intersection over mixed container shapes equals the boolean-vector
    /// model, as do cardinality (dispatched popcount) and membership
    /// after canonicalization (dispatched run-start count).
    #[test]
    fn rowset_ops_match_naive_model(
        shapes_a in proptest::collection::vec(0u8..3, 3),
        shapes_b in proptest::collection::vec(0u8..3, 3),
        seed in any::<u64>(),
        tail in 1usize..2000,
    ) {
        let universe = 2 * BLOCK_ROWS + tail;
        let mut a = RowSet::empty(universe);
        let mut b = RowSet::empty(universe);
        let mut ma = vec![false; universe];
        let mut mb = vec![false; universe];
        for blk in 0..3 {
            fill_block(&mut a, &mut ma, blk, shapes_a[blk], seed ^ (blk as u64 + 1));
            fill_block(&mut b, &mut mb, blk, shapes_b[blk], seed ^ (0x100 + blk as u64));
        }
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
        let mut and = canonical(&a);
        and.intersect_with(&canonical(&b)).unwrap();
        check(&and, &m_and);
    }
}

// ---------------------------------------------------------------------
// Group-by scan: row-at-a-time oracle vs dispatched batch scan
// ---------------------------------------------------------------------

/// Exact accumulator digest of one facet result: shape tag, then per
/// touched group the presence count and the raw bit patterns of the
/// accumulator fields. Untouched dense slots are skipped so a promoted
/// (or hash-built) result digests identically to its dense twin.
fn digest(fg: &FacetGroups) -> Vec<(u32, u64, u64, u64, u64, u64)> {
    fn stat_row(key: u32, s: &kdap_suite::query::GroupStats) -> (u32, u64, u64, u64, u64, u64) {
        (
            key,
            s.rows,
            s.acc.count,
            s.acc.sum.to_bits(),
            s.acc.min.to_bits(),
            s.acc.max.to_bits(),
        )
    }
    match fg {
        FacetGroups::Dense { stats } => stats
            .iter()
            .enumerate()
            .filter(|(_, s)| s.rows > 0 || s.acc.count > 0)
            .map(|(i, s)| stat_row(i as u32, s))
            .collect(),
        FacetGroups::Sparse { stats } => {
            let sorted: BTreeMap<u32, _> = stats.iter().map(|(k, v)| (*k, v)).collect();
            sorted.iter().map(|(k, s)| stat_row(*k, s)).collect()
        }
        // Buckets keep zero slots: the series is positional.
        FacetGroups::Buckets { stats } => stats
            .iter()
            .enumerate()
            .map(|(i, s)| stat_row(i as u32, s))
            .collect(),
        FacetGroups::Domain { min, max, any } => {
            vec![(u32::MAX, *any as u64, 0, min.to_bits(), max.to_bits(), 0)]
        }
        FacetGroups::Total { stats } => vec![stat_row(0, stats)],
    }
}

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

    /// The batch (SIMD-dispatched) scan equals the scalar row-at-a-time
    /// oracle bit-for-bit on workload subspaces, on both accumulator
    /// paths, at one and four threads.
    #[test]
    fn fused_group_by_scalar_vs_dispatched_bit_identical(
        query_idx in 0usize..64,
        threads in proptest::sample::select(vec![1usize, 4]),
        dense in any::<bool>(),
    ) {
        let fx = workload();
        let kdap = &fx.serial;
        let dense_limit = if dense { DENSE_GROUP_LIMIT } else { 0 };
        for net in fx.nets(query_idx).iter().take(2) {
            let sub = materialize(kdap.warehouse(), kdap.join_index(), net);
            check_scan_against_oracle(kdap, &sub.rows, threads, dense_limit);
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
/// entry — never an out-of-bounds read — on either tier.
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

// ---------------------------------------------------------------------
// Mid-scan dense→sparse promotion (stale statistics)
// ---------------------------------------------------------------------

/// Drives the out-of-bounds promotion path deterministically: a dense
/// array sized for one code while the column holds many forces every
/// scan — serial and threaded — to promote mid-scan. The promoted result
/// must equal the hash-path result bit-for-bit, and the
/// `agg_dense_oob_fallback` counter must record the promotions.
#[test]
fn oob_promotion_matches_hash_path_under_threads() {
    let kdap = &workload().serial;
    let wh = kdap.warehouse();
    let mv = MeasureVector::build(wh, kdap.measure());
    let rows = RowSet::full(wh.fact_rows());
    // A categorical spec whose domain has at least two codes, so a
    // one-slot dense array must promote.
    let spec = candidate_specs(kdap, &KeyWalker::new(wh), &rows)
        .into_iter()
        .map(|(_, s)| s)
        .find(|s| {
            let FacetSpec::Categorical { .. } = s else {
                return false;
            };
            let groups = multi_group_by_exec(
                wh,
                std::slice::from_ref(s),
                &rows,
                &mv,
                &ExecConfig::serial(),
                DENSE_GROUP_LIMIT,
            )
            .unwrap();
            groups[0].n_groups() >= 2
        })
        .expect("AW_ONLINE has a multi-valued categorical attribute");
    let specs = vec![spec];
    for threads in [1usize, 4] {
        // Reference: plain hash path (dense disabled).
        let hash = multi_group_by_exec(
            wh,
            &specs,
            &rows,
            &mv,
            &ExecConfig::with_threads(threads),
            0,
        )
        .unwrap();
        let obs = Obs::enabled();
        let exec = ExecConfig::with_threads(threads).with_obs(obs.clone());
        let promoted =
            multi_group_by_exec_sized(wh, &specs, &rows, &mv, &exec, DENSE_GROUP_LIMIT, Some(1))
                .unwrap();
        assert!(
            matches!(promoted[0], FacetGroups::Sparse { .. }),
            "dense array for 1 code must promote (threads={threads})"
        );
        assert_eq!(
            digest(&promoted[0]),
            digest(&hash[0]),
            "promoted ≡ hash (threads={threads})"
        );
        let counters = obs.metrics_snapshot().counters;
        let oob = counters
            .get("query.agg_dense_oob_fallback")
            .copied()
            .unwrap_or(0);
        assert!(
            oob >= 1,
            "promotion must be counted (threads={threads}): {counters:?}"
        );
    }
}
