//! The hybrid RowSet is a *representation* choice, never a semantics
//! change: whatever mix of array / bitmap / run containers a set settles
//! into, every operation must agree bit-for-bit with a plain `Vec<u64>`
//! word model — across densities that force each container kind, across
//! universes that straddle the 64Ki-row block boundary, and at the
//! array→bitmap conversion threshold.

use proptest::prelude::*;

use kdap_suite::query::bitmap::{ARRAY_MAX, BLOCK_ROWS};
use kdap_suite::query::RowSet;

/// Row-population shapes, each designed to land the set in (or across)
/// a particular container representation.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A handful of scattered rows — array containers.
    Sparse,
    /// ~70% fill — bitmap containers.
    Dense,
    /// A few long contiguous stretches — run containers.
    Runs,
    /// Rows hugging block boundaries (multiples of 64Ki ± 2).
    Boundary,
    /// Exactly `ARRAY_MAX` then `ARRAY_MAX + 1` rows in the first block —
    /// the array→bitmap conversion edge.
    Threshold,
}

const SHAPES: [Shape; 5] = [
    Shape::Sparse,
    Shape::Dense,
    Shape::Runs,
    Shape::Boundary,
    Shape::Threshold,
];

/// Universes that exercise sub-word, sub-block, exact-boundary, and
/// multi-block row sets (including the partial trailing block).
const UNIVERSES: [usize; 7] = [
    1,
    64,
    4_097,
    BLOCK_ROWS - 1,
    BLOCK_ROWS,
    BLOCK_ROWS + 1,
    3 * BLOCK_ROWS + 123,
];

/// Deterministic xorshift so dense populations don't have to round-trip
/// through proptest value trees (shrinking the seed is enough).
fn gen_rows(shape: Shape, seed: u64, universe: usize) -> Vec<usize> {
    let mut s = seed | 1;
    let mut next = move |m: usize| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as usize) % m.max(1)
    };
    let mut rows = std::collections::BTreeSet::new();
    match shape {
        Shape::Sparse => {
            for _ in 0..next(300) {
                rows.insert(next(universe));
            }
        }
        Shape::Dense => {
            for r in 0..universe {
                if next(10) < 7 {
                    rows.insert(r);
                }
            }
        }
        Shape::Runs => {
            for _ in 0..1 + next(6) {
                let start = next(universe);
                let len = 1 + next(universe - start);
                rows.extend(start..start + len.min(BLOCK_ROWS * 2));
            }
        }
        Shape::Boundary => {
            for block in 0..=universe / BLOCK_ROWS {
                let edge = block * BLOCK_ROWS;
                for off in [0usize, 1, 2] {
                    if edge >= off && edge - off < universe && next(3) > 0 {
                        rows.insert(edge - off);
                    }
                    if edge + off < universe && next(3) > 0 {
                        rows.insert(edge + off);
                    }
                }
            }
        }
        Shape::Threshold => {
            let extra = next(2); // ARRAY_MAX stays array, +1 must convert
            for _ in 0..(ARRAY_MAX + extra) * 2 {
                rows.insert(next(universe.min(BLOCK_ROWS)));
                if rows.len() >= ARRAY_MAX + extra {
                    break;
                }
            }
        }
    }
    rows.into_iter().collect()
}

/// The reference model: a plain bit-per-row word vector.
fn model_words(rows: &[usize], universe: usize) -> Vec<u64> {
    let mut words = vec![0u64; universe.div_ceil(64)];
    for &r in rows {
        words[r / 64] |= 1 << (r % 64);
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Intersection — the one set operation — on every shape pairing, in
    /// every universe, agrees with word-level arithmetic.
    #[test]
    fn set_ops_match_the_word_model(
        shape_a in proptest::sample::select(SHAPES.to_vec()),
        shape_b in proptest::sample::select(SHAPES.to_vec()),
        universe in proptest::sample::select(UNIVERSES.to_vec()),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let rows_a = gen_rows(shape_a, seed_a, universe);
        let rows_b = gen_rows(shape_b, seed_b, universe);
        let (wa, wb) = (model_words(&rows_a, universe), model_words(&rows_b, universe));
        let a = RowSet::from_rows(universe, rows_a.iter().copied());
        let b = RowSet::from_rows(universe, rows_b.iter().copied());
        prop_assert_eq!(&a.to_words(), &wa, "from_rows round-trip");
        prop_assert_eq!(a.len(), rows_a.len());

        let expected: Vec<u64> = wa.iter().zip(&wb).map(|(&x, &y)| x & y).collect();
        // Insert-built operands and their canonical twins (run containers
        // appear only after canonicalization) must all give the same set.
        let canonical = |s: &RowSet| RowSet::from_words(universe, s.to_words()).unwrap();
        for (lhs, rhs) in [(a.clone(), b.clone()), (canonical(&a), canonical(&b))] {
            let mut got = lhs;
            got.intersect_with(&rhs).unwrap();
            prop_assert_eq!(&got.to_words(), &expected);
            // Representation may differ; equality must be semantic.
            prop_assert_eq!(&got, &RowSet::from_words(universe, expected.clone()).unwrap());
            prop_assert_eq!(
                got.len(),
                expected.iter().map(|w| w.count_ones() as usize).sum::<usize>()
            );
        }
    }

    /// Iteration, callback traversal, membership, and the words
    /// round-trip all describe the same set the model does.
    #[test]
    fn traversal_matches_the_word_model(
        shape in proptest::sample::select(SHAPES.to_vec()),
        universe in proptest::sample::select(UNIVERSES.to_vec()),
        seed in any::<u64>(),
    ) {
        let rows = gen_rows(shape, seed, universe);
        let set = RowSet::from_rows(universe, rows.iter().copied());
        let words = model_words(&rows, universe);

        let via_iter: Vec<usize> = set.iter().collect();
        prop_assert_eq!(&via_iter, &rows, "iter() in sorted order");

        let mut via_for_each = Vec::new();
        set.for_each_in_word_range(0..set.n_words(), |r| via_for_each.push(r));
        prop_assert_eq!(&via_for_each, &rows, "for_each over the full range");

        // A sub-range that starts and ends mid-block.
        let lo = set.n_words() / 3;
        let hi = set.n_words() - set.n_words() / 4;
        let expect_range: Vec<usize> = rows
            .iter()
            .copied()
            .filter(|r| (lo * 64..hi * 64).contains(r))
            .collect();
        let got_range: Vec<usize> = set.iter_word_range(lo..hi).collect();
        prop_assert_eq!(&got_range, &expect_range, "word range {}..{}", lo, hi);

        let roundtrip = RowSet::from_words(universe, words.clone()).unwrap();
        prop_assert_eq!(&roundtrip, &set, "from_words(to_words) identity");

        // Membership spot-checks around every populated row's neighborhood.
        for &r in rows.iter().take(64) {
            prop_assert!(set.contains(r));
            if r + 1 < universe {
                prop_assert_eq!(set.contains(r + 1), rows.binary_search(&(r + 1)).is_ok());
            }
        }
    }
}

/// The `ARRAY_MAX`-th insert converts the container without disturbing
/// the set's contents (deterministic edge kept outside proptest so the
/// exact threshold is always exercised).
#[test]
fn conversion_threshold_preserves_contents() {
    let universe = BLOCK_ROWS + 7;
    let mut set = RowSet::empty(universe);
    let mut model = vec![0u64; universe.div_ceil(64)];
    for i in 0..ARRAY_MAX + 2 {
        let row = i * 3 % BLOCK_ROWS;
        set.insert(row);
        model[row / 64] |= 1 << (row % 64);
        if i == ARRAY_MAX - 1 || i == ARRAY_MAX {
            assert_eq!(set.to_words(), model, "around the threshold at {i}");
        }
    }
    assert_eq!(set.to_words(), model);
    assert!(
        set.container_histogram().bitmaps >= 1,
        "past ARRAY_MAX must be a bitmap"
    );
}
