//! The vectorized kernel layer is an *execution* strategy, never a
//! *semantics* change: every dispatched kernel (bit-unpack, bitmap word
//! ops, popcount/run canonicalization, measure gather) must reproduce its
//! scalar reference bit-for-bit, and the batch group-by scan built on
//! them must reproduce the row-at-a-time oracle of `tests/support` —
//! across bit widths, container shapes, null bitmaps, thread counts, and
//! the dense-array / hash-fallback / mid-scan promotion accumulator
//! paths. On hosts whose detected tier is already Scalar the kernel
//! checks degenerate to scalar-vs-scalar and pass trivially; CI
//! additionally runs the whole suite under `KDAP_NO_SIMD=1`.

mod support;

use std::collections::BTreeMap;

use proptest::prelude::*;

use kdap_suite::core::{materialize, Kdap};
use kdap_suite::datagen::{build_aw_online, Scale};
use kdap_suite::obs::Obs;
use kdap_suite::query::aggregate_multi::multi_group_by_exec_sized;
use kdap_suite::query::bitmap::BLOCK_ROWS;
use kdap_suite::query::kernel as qkernel;
use kdap_suite::query::{
    multi_group_by_exec, Accumulator, ExecConfig, FacetGroups, FacetSpec, MeasureVector, RowSet,
    DENSE_GROUP_LIMIT,
};
use kdap_suite::warehouse::kernel as wkernel;

use support::{
    aggregate_total, bits, candidate_specs, group_by_buckets, group_by_categorical,
    project_categorical, project_numeric, workload,
};

// ---------------------------------------------------------------------
// Kernel level: decode
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bulk bit-unpack: the dispatched kernel equals the scalar
    /// reference for every supported width, at every length (including
    /// empty and partial final words), and null-sentinel application on
    /// top of both yields identical buffers.
    #[test]
    fn unpack_dispatch_matches_scalar(
        bits in proptest::sample::select(vec![1u8, 2, 4, 8, 16, 32]),
        len in 0usize..3000,
        seed in any::<u64>(),
        null_every in 0usize..8,
    ) {
        let per_word = 64 / bits as usize;
        let n_words = len.div_ceil(per_word);
        // Deterministic pseudo-random words from the seed (splitmix64).
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let words: Vec<u64> = (0..n_words).map(|_| next()).collect();
        let mut scalar = vec![0u32; len];
        let mut dispatched = vec![0xAAAA_AAAAu32; len];
        wkernel::unpack_words_scalar(&words, bits, len, &mut scalar);
        wkernel::unpack_words(&words, bits, len, &mut dispatched);
        prop_assert_eq!(&scalar, &dispatched);
        // Null sentinel on top: same bits set, same sentinel writes.
        let null_words: Vec<u64> = (0..len.div_ceil(64))
            .map(|_| if null_every == 0 { 0 } else { next() })
            .collect();
        wkernel::apply_null_sentinel(&null_words, &mut scalar);
        wkernel::apply_null_sentinel(&null_words, &mut dispatched);
        prop_assert_eq!(&scalar, &dispatched);
        for (i, v) in scalar.iter().enumerate() {
            let is_null = null_words[i / 64] >> (i % 64) & 1 == 1;
            prop_assert_eq!(is_null, *v == wkernel::NULL_CODE || *v == u32::MAX && is_null,
                "row {}", i);
        }
    }

    /// Bitmap word kernels: AND / OR / ANDNOT, popcount, and
    /// run-start counting all match their scalar references on random
    /// word blocks of every length up to beyond one container.
    #[test]
    fn word_ops_dispatch_matches_scalar(
        n_words in 0usize..1100,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let a: Vec<u64> = (0..n_words).map(|_| next()).collect();
        let b: Vec<u64> = (0..n_words).map(|_| next()).collect();
        for op in 0..3 {
            let mut want = a.clone();
            let mut got = a.clone();
            match op {
                0 => {
                    qkernel::and_words_scalar(&mut want, &b);
                    qkernel::and_words(&mut got, &b);
                }
                1 => {
                    qkernel::or_words_scalar(&mut want, &b);
                    qkernel::or_words(&mut got, &b);
                }
                _ => {
                    qkernel::andnot_words_scalar(&mut want, &b);
                    qkernel::andnot_words(&mut got, &b);
                }
            }
            prop_assert_eq!(want, got, "op {}", op);
        }
        prop_assert_eq!(qkernel::popcount_words_scalar(&a), qkernel::popcount_words(&a));
        prop_assert_eq!(qkernel::count_run_starts_scalar(&a), qkernel::count_run_starts(&a));
    }

    /// Measure gather: the dispatched gather copies exact bit patterns
    /// (including NaN NULL sentinels) for arbitrary index orders.
    #[test]
    fn gather_dispatch_matches_scalar(
        n_values in 1usize..4000,
        n_idx in 0usize..2000,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Raw bit patterns: every eighth value is a NaN payload.
        let values: Vec<f64> = (0..n_values)
            .map(|i| {
                if i % 8 == 7 {
                    f64::from_bits(f64::NAN.to_bits() | (i as u64))
                } else {
                    f64::from_bits(next() & 0x7FEF_FFFF_FFFF_FFFF)
                }
            })
            .collect();
        let idx: Vec<u32> = (0..n_idx).map(|_| (next() as usize % n_values) as u32).collect();
        let mut want = vec![0.0f64; n_idx];
        let mut got = vec![0.0f64; n_idx];
        qkernel::gather_f64_scalar(&values, &idx, &mut want);
        qkernel::gather_f64(&values, &idx, &mut got);
        let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(want_bits, got_bits);
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
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
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

    /// Set algebra over mixed container shapes equals the boolean-vector
    /// model: intersection, union, and difference (all routed through the
    /// dispatched word kernels), plus cardinality (dispatched popcount)
    /// and membership after canonicalization.
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
        and.intersect_with(&b);
        let m_and: Vec<bool> = ma.iter().zip(&mb).map(|(&x, &y)| x && y).collect();
        check(&and, &m_and);
        let mut or = a.clone();
        or.union_with(&b);
        let m_or: Vec<bool> = ma.iter().zip(&mb).map(|(&x, &y)| x || y).collect();
        check(&or, &m_or);
        let mut diff = a.clone();
        diff.and_not_with(&b);
        let m_diff: Vec<bool> = ma.iter().zip(&mb).map(|(&x, &y)| x && !y).collect();
        check(&diff, &m_diff);
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
    let (wh, jidx) = (kdap.warehouse(), kdap.join_index());
    let fact = wh.schema().fact_table();
    let measure = kdap.measure();
    let mv = MeasureVector::build(wh, measure);
    let exec = ExecConfig::with_threads(threads);
    let tagged = candidate_specs(kdap, rows);
    let specs: Vec<FacetSpec> = tagged.iter().map(|(_, s)| s.clone()).collect();
    let got = multi_group_by_exec(wh, &specs, rows, &mv, &exec, dense_limit).unwrap();
    assert_eq!(got.len(), specs.len());
    for (i, ((path, spec), fg)) in tagged.iter().zip(&got).enumerate() {
        let want: BTreeMap<u32, Accumulator> = match spec {
            FacetSpec::Total => [(0, aggregate_total(wh, measure, rows))].into(),
            FacetSpec::Categorical { attr, .. } => {
                assert_eq!(
                    fg.domain(),
                    project_categorical(wh, jidx, fact, path, *attr, rows)
                );
                group_by_categorical(wh, jidx, fact, path, *attr, rows, measure)
                    .into_iter()
                    .collect()
            }
            FacetSpec::Buckets { attr, buckets, .. } => {
                group_by_buckets(wh, jidx, fact, path, *attr, rows, measure, buckets)
                    .into_iter()
                    .enumerate()
                    .map(|(b, acc)| (b as u32, acc))
                    .collect()
            }
            FacetSpec::NumericDomain { attr, .. } => {
                let values = project_numeric(wh, jidx, fact, path, *attr, rows);
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
/// a scattered subset that leaves chunks unevenly filled.
#[test]
fn chunked_scan_keeps_the_chunk_then_merge_order() {
    let wh = build_aw_online(Scale::small().scaled(10), 42).expect("generator is valid");
    let kdap = Kdap::builder(wh).build().expect("measure defined");
    let n = kdap.warehouse().fact_rows();
    assert!(n > 2 * 8192, "fixture must span several chunks");
    let all = RowSet::full(n);
    let scattered = RowSet::from_rows(n, (0..n).filter(|r| r % 7 == 0 || r % 8192 < 40));
    for rows in [&all, &scattered] {
        for threads in [1usize, 4] {
            for dense_limit in [DENSE_GROUP_LIMIT, 0] {
                check_scan_against_oracle(&kdap, rows, threads, dense_limit);
            }
        }
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
    let spec = candidate_specs(kdap, &rows)
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
