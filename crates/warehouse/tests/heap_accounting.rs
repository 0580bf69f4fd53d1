//! A packed column's `heap_bytes()` against what building it left
//! allocated, counted by a global allocator.
//!
//! `Warehouse::approx_bytes` — and so the benchmark's `bytes_per_fact` —
//! is the sum of the columns' `heap_bytes()`, computed from chunk
//! metadata. This binary checks that sum against the allocator: it
//! counts the live bytes before a column is built and after it is
//! frozen, and requires `heap_bytes()` to be within 5 % of the
//! difference. It is one test so that no other test thread allocates
//! while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use kdap_warehouse::{Column, Value, ValueType, CHUNK_ROWS};

/// The system allocator, keeping a running total of live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Builds a frozen column of `rows` values and returns it with the bytes
/// its build left allocated. The column's name is allocated before the
/// count starts.
fn built(ty: ValueType, rows: usize, value: impl Fn(usize) -> Value) -> (Column, usize) {
    let mut col = Column::new("C", ty, false);
    let before = LIVE.load(Ordering::Relaxed);
    for row in 0..rows {
        col.push(value(row)).unwrap();
    }
    col.freeze();
    let after = LIVE.load(Ordering::Relaxed);
    (col, (after - before) as usize)
}

/// The value of row `r` of a test column.
type RowValue = fn(usize) -> Value;

#[test]
fn heap_bytes_is_what_a_packed_column_holds() {
    let n = 3 * CHUNK_ROWS + 1234;
    let int_columns: [(&str, RowValue); 5] = [
        ("dense keys", |r| Value::Int(1000 + r as i64)),
        ("keys with NULLs", |r| match r % 7 {
            0 => Value::Null,
            _ => Value::Int(r as i64 * 3),
        }),
        ("constant", |_| Value::Int(-5)),
        ("64-bit span", |r| match r % 2 {
            0 => Value::Int(i64::MIN),
            _ => Value::Int(i64::MAX),
        }),
        ("small quantities", |r| Value::Int((r % 10) as i64)),
    ];
    for (name, value) in &int_columns {
        for rows in [n, 100, CHUNK_ROWS] {
            let (col, allocated) = built(ValueType::Int, rows, *value);
            let counted = col.heap_bytes();
            let off = counted.abs_diff(allocated) as f64 / allocated as f64;
            assert!(
                off <= 0.05,
                "{name}, {rows} rows: heap_bytes {counted} vs allocated {allocated}"
            );
        }
    }

    // Float columns (dense values plus the lazy null bitmap) keep the
    // same contract.
    let (col, allocated) = built(ValueType::Float, n, |r| {
        if r % 5 == 0 {
            Value::Null
        } else {
            Value::Float(r as f64)
        }
    });
    let counted = col.heap_bytes();
    assert!(
        counted.abs_diff(allocated) as f64 <= 0.05 * allocated as f64,
        "float: heap_bytes {counted} vs allocated {allocated}"
    );
}
