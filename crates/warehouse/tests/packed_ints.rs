//! Packed integer columns against a plain `Vec<Option<i64>>` oracle.
//!
//! An Int column stores each sealed chunk as an `i64` base plus bit-packed
//! offsets, widening to 64 bits when the chunk spans more than
//! `u32::MAX`. Every case here builds a column from generated rows and
//! reads it back every way the crate offers — `get`/`get_int`/`get_float`
//! row by row, the chunk-at-a-time `for_each_int`/`for_each_float`,
//! `unpack_floats_into`, `ColumnStats`, the chunk widths — and through a
//! `save_warehouse` → `load_warehouse` round trip, comparing each with
//! the oracle.
//!
//! The generator builds a column from segments: constants, NULL runs,
//! values at both ends of `i64`, ranges whose span is 2³² − 1, 2³² or
//! 2³² + 1, and noisy keys. Lengths include 65,535 / 65,536 / 65,537, and
//! some cases freeze part-way and append after the freeze. The loop runs
//! at a tier-1 case count by default; an `#[ignore]`d copy runs 20,000
//! cases (`cargo test --release -p kdap-warehouse -- --ignored`).

use std::collections::HashSet;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use kdap_warehouse::{
    load_warehouse, save_warehouse, Column, ColumnStats, Value, ValueType, WarehouseBuilder,
    CHUNK_ROWS,
};

/// One generated column: its rows, and the row count pushed before a
/// `freeze` when the case appends after one.
#[derive(Debug, Clone)]
struct Case {
    rows: Vec<Option<i64>>,
    freeze_at: Option<usize>,
}

/// The packing width the store must pick for a sealed chunk of `rows`:
/// the smallest of 1/2/4/8/16/32 bits that holds `max − min` (as a `u64`
/// wrapping difference), else 64.
fn expected_bits(rows: &[Option<i64>]) -> u8 {
    let values = rows.iter().flatten();
    let (Some(min), Some(max)) = (values.clone().min(), values.max()) else {
        return 1;
    };
    let span = (*max as u64).wrapping_sub(*min as u64);
    [1u8, 2, 4, 8, 16, 32]
        .into_iter()
        .find(|&b| span < 1u64 << b)
        .unwrap_or(64)
}

/// Builds the column the way a loader does: push, freeze, maybe append.
fn build(case: &Case) -> Column {
    let mut col = Column::new("V", ValueType::Int, false);
    let split = case.freeze_at.unwrap_or(case.rows.len());
    for (i, v) in case.rows.iter().enumerate() {
        if i == split {
            col.freeze();
        }
        col.push(v.map_or(Value::Null, Value::Int)).unwrap();
    }
    col.freeze();
    col
}

/// The chunk widths the store must report: one per sealed chunk. A
/// freeze before the first full chunk fills seals that partial chunk
/// and leaves every later row in the tail.
fn expected_widths(case: &Case) -> Vec<u8> {
    let sealed = match case.freeze_at {
        Some(at) if at % CHUNK_ROWS != 0 => at,
        _ => case.rows.len(),
    };
    case.rows[..sealed]
        .chunks(CHUNK_ROWS)
        .map(expected_bits)
        .collect()
}

fn check(case: &Case, context: &str) {
    let col = build(case);
    let rows = &case.rows;
    assert_eq!(col.len(), rows.len(), "{context}");
    assert_eq!(col.int_chunk_bits(), expected_widths(case), "{context}");

    // Sequential: one row at a time.
    for (row, want) in rows.iter().enumerate() {
        assert_eq!(col.get_int(row), *want, "{context} row {row}");
        assert_eq!(
            col.get_float(row),
            want.map(|x| x as f64),
            "{context} row {row}"
        );
        assert_eq!(
            col.get(row),
            want.map_or(Value::Null, Value::Int),
            "{context} row {row}"
        );
    }

    // Bulk: a chunk at a time, every row once and in order.
    let mut seen = Vec::with_capacity(rows.len());
    col.for_each_int(|row, v| {
        assert_eq!(row, seen.len(), "{context}");
        seen.push(v);
    });
    assert_eq!(&seen, rows, "{context}");
    let mut floats = Vec::with_capacity(rows.len());
    col.for_each_float(|_, v| floats.push(v));
    let want: Vec<Option<f64>> = rows.iter().map(|v| v.map(|x| x as f64)).collect();
    assert_eq!(floats, want, "{context}");

    let mut unpacked = vec![1.5; 3];
    assert!(col.unpack_floats_into(&mut unpacked), "{context}");
    assert_eq!(unpacked.len(), rows.len(), "{context}");
    for (row, (got, want)) in unpacked.iter().zip(rows).enumerate() {
        match want {
            Some(x) => assert_eq!(got.to_bits(), (*x as f64).to_bits(), "{context} row {row}"),
            None => assert!(got.is_nan(), "{context} row {row}"),
        }
    }

    let stats = ColumnStats::compute(&col);
    let values: Vec<i64> = rows.iter().flatten().copied().collect();
    assert_eq!(stats.rows, rows.len(), "{context}");
    assert_eq!(stats.nulls, rows.len() - values.len(), "{context}");
    assert_eq!(
        stats.distinct,
        values.iter().collect::<HashSet<_>>().len(),
        "{context}"
    );
    assert_eq!(
        stats.min,
        values.iter().min().map(|&x| x as f64),
        "{context}"
    );
    assert_eq!(
        stats.max,
        values.iter().max().map(|&x| x as f64),
        "{context}"
    );
}

/// Saves a one-table, one-column warehouse holding the case's rows and
/// loads it back.
fn check_save_load(case: &Case, context: &str) {
    let mut b = WarehouseBuilder::new();
    b.table("T", &[("V", ValueType::Int, false)]).unwrap();
    for v in &case.rows {
        b.row("T", vec![v.map_or(Value::Null, Value::Int)]).unwrap();
    }
    b.fact("T").unwrap();
    let wh = b.finish().unwrap();
    let dir = std::env::temp_dir().join(format!(
        "kdap_packed_ints_{}_{}",
        std::process::id(),
        context.replace(|c: char| !c.is_ascii_alphanumeric(), "_")
    ));
    save_warehouse(&wh, &dir).unwrap();
    let back = load_warehouse(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let back = back.unwrap();
    let col = wh.table(wh.schema().fact_table()).column(0);
    let back_col = back.table(back.schema().fact_table()).column(0);
    assert_eq!(back_col.len(), case.rows.len(), "{context}");
    let mut got = Vec::new();
    back_col.for_each_int(|_, v| got.push(v));
    assert_eq!(got, case.rows, "{context}");
    assert_eq!(back_col.int_chunk_bits(), col.int_chunk_bits(), "{context}");
    assert_eq!(back.approx_bytes(), wh.approx_bytes(), "{context}");
}

// -------------------------------------------------------------- generator

/// Column lengths: mostly short, sometimes at a chunk boundary.
fn length(rng: &mut TestRng) -> usize {
    match rng.below(256) {
        0 => [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1][rng.below(3) as usize],
        1 => 2 * CHUNK_ROWS + rng.below(300) as usize,
        _ => rng.below(3000) as usize,
    }
}

/// A value `lo + [0, span]`, wrapping, as offsets are packed.
fn within(rng: &mut TestRng, lo: i64, span: u64) -> i64 {
    let off = if span == u64::MAX {
        rng.next_u64()
    } else {
        rng.below(span + 1)
    };
    lo.wrapping_add(off as i64)
}

struct IntCase;

impl Strategy for IntCase {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let len = length(rng);
        let mut rows = Vec::with_capacity(len);
        match rng.below(16) {
            0 => rows.resize(len, None),
            1 => rows.resize(len, Some(rng.next_u64() as i64)),
            _ => {}
        }
        while rows.len() < len {
            let longest = if rng.below(4) == 0 { 70_000 } else { 400 };
            let run = (1 + rng.below(longest) as usize).min(len - rows.len());
            let null_one_in = [0u64, 2, 16][rng.below(3) as usize];
            let lo = match rng.below(4) {
                0 => 0,
                1 => i64::MIN + rng.below(4) as i64,
                2 => i64::MAX - (1 << 40),
                _ => rng.next_u64() as i64,
            };
            let shape = rng.below(6);
            for _ in 0..run {
                let v = match shape {
                    0 => lo,
                    1 => [i64::MIN, i64::MAX, 0, -1][rng.below(4) as usize],
                    2 => {
                        let span = (1u64 << 32) - 2 + rng.below(4);
                        within(rng, lo, span)
                    }
                    3 => within(rng, lo, u64::MAX),
                    4 => {
                        let span = 1 << rng.below(33);
                        within(rng, lo, span)
                    }
                    _ => rows.len() as i64 + rng.below(3) as i64,
                };
                let null = null_one_in > 0 && rng.below(null_one_in) == 0;
                rows.push((!null).then_some(v));
            }
            if rng.below(16) == 0 {
                let nulls = (1 + rng.below(200) as usize).min(len - rows.len());
                rows.extend(std::iter::repeat_n(None, nulls));
            }
        }
        let freeze_at = (len > 0 && rng.below(6) == 0).then(|| rng.below(len as u64) as usize);
        Case { rows, freeze_at }
    }
}

fn run_case(case: &Case, n: u64) {
    let context = format!(
        "case {n} (len {}, freeze {:?})",
        case.rows.len(),
        case.freeze_at
    );
    check(case, &context);
    if n.is_multiple_of(64) && case.rows.len() <= 4096 {
        check_save_load(case, &context);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_ints_match_the_oracle(case in IntCase, n in 0u64..1 << 20) {
        run_case(&case, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore = "fuzz smoke: run with --release -- --ignored"]
    fn packed_ints_match_the_oracle_20k(case in IntCase, n in 0u64..1 << 20) {
        run_case(&case, n);
    }
}

// ------------------------------------------------------------ fixed edges

fn edge_cases() -> Vec<(&'static str, Case)> {
    let plain = |rows: Vec<Option<i64>>| Case {
        rows,
        freeze_at: None,
    };
    let span = |width: u64| -> Vec<Option<i64>> {
        (0..1000)
            .map(|i| Some(-7 + (i as u64 * width / 999) as i64))
            .collect()
    };
    let keys = |n: usize| -> Vec<Option<i64>> { (0..n as i64).map(|k| Some(1000 + k)).collect() };
    vec![
        (
            "both ends of i64",
            plain(vec![
                Some(i64::MIN),
                Some(i64::MAX),
                None,
                Some(0),
                Some(-1),
            ]),
        ),
        ("span 2^32 - 1", plain(span((1 << 32) - 1))),
        ("span 2^32", plain(span(1 << 32))),
        ("span 2^32 + 1", plain(span((1 << 32) + 1))),
        ("all NULL", plain(vec![None; CHUNK_ROWS + 3])),
        ("constant", plain(vec![Some(-42); CHUNK_ROWS + 5])),
        ("65,535 rows", plain(keys(CHUNK_ROWS - 1))),
        ("65,536 rows", plain(keys(CHUNK_ROWS))),
        ("65,537 rows", plain(keys(CHUNK_ROWS + 1))),
        (
            "append after a partial freeze",
            Case {
                rows: keys(CHUNK_ROWS + 10),
                freeze_at: Some(100),
            },
        ),
        (
            "append after a full-chunk freeze",
            Case {
                rows: keys(CHUNK_ROWS + 10),
                freeze_at: Some(CHUNK_ROWS),
            },
        ),
        ("empty", plain(Vec::new())),
    ]
}

#[test]
fn edge_columns_round_trip() {
    for (name, case) in edge_cases() {
        check(&case, name);
        check_save_load(&case, name);
    }
}

#[test]
fn widths_widen_past_a_32_bit_span() {
    let widths: Vec<(&str, Vec<u8>)> = edge_cases()
        .into_iter()
        .map(|(name, case)| (name, build(&case).int_chunk_bits()))
        .collect();
    let of = |name: &str| &widths.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!(of("both ends of i64"), &vec![64]);
    assert_eq!(of("span 2^32 - 1"), &vec![32]);
    assert_eq!(of("span 2^32"), &vec![64]);
    assert_eq!(of("span 2^32 + 1"), &vec![64]);
    assert_eq!(of("all NULL"), &vec![1, 1]);
    assert_eq!(of("constant"), &vec![1, 1]);
    assert_eq!(of("65,536 rows"), &vec![16]);
    assert_eq!(of("65,537 rows"), &vec![16, 1]);
    // The freeze sealed rows 0..100; the rest stay in the tail.
    assert_eq!(of("append after a partial freeze"), &vec![8]);
    assert_eq!(of("append after a full-chunk freeze"), &vec![16, 4]);
}

#[test]
fn the_generator_reaches_every_shape() {
    // Guards the generator: within 1,024 cases it produces both ends of
    // i64 in one chunk, a 64-bit and a 32-bit chunk, an all-NULL chunk,
    // a multi-chunk column and an append after freeze.
    let mut seen = [false; 6];
    for n in 0..1024 {
        let mut rng = TestRng::for_case("packed_ints::shapes", n);
        let case = IntCase.generate(&mut rng);
        let widths = expected_widths(&case);
        seen[0] |= case.rows.contains(&Some(i64::MIN)) && case.rows.contains(&Some(i64::MAX));
        seen[1] |= widths.contains(&64);
        seen[2] |= widths.contains(&32);
        seen[3] |= !case.rows.is_empty() && case.rows.iter().all(Option::is_none);
        seen[4] |= case.rows.len() > CHUNK_ROWS;
        seen[5] |= case.freeze_at.is_some_and(|at| at % CHUNK_ROWS != 0);
    }
    assert!(seen.iter().all(|&s| s), "{seen:?}");
}
