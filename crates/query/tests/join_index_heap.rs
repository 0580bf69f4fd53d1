//! What `JoinIndex::build` leaves allocated, counted by a global
//! allocator.
//!
//! The join index holds one `parent_of` array per FK edge, 4 B per row of
//! the edge's child table, and nothing else: a path of three or more
//! edges composes its later hops where it is read. This binary builds the
//! index of a chain warehouse of five hops and requires the bytes still
//! live after the build to be 4 B per child row per edge, plus at most
//! [`PER_EDGE`] bytes per edge (the array's reference counts and the
//! edge's slot in the index). It is one test so that no other test
//! thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use kdap_query::{JoinIndex, JoinPath};
use kdap_warehouse::{EdgeId, Value, ValueType, Warehouse, WarehouseBuilder};

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

/// Edges of the chain.
const HOPS: usize = 5;
/// Rows of every table.
const ROWS: usize = 10_000;
/// The bytes an edge may hold beside its array: two reference counts
/// and one slot of the index's edge vector.
const PER_EDGE: usize = 64;

/// T0(fact) → T1 → … → T`HOPS`, [`ROWS`] rows per table: row `r` joins
/// to row `(r + 1) % ROWS` of the next table; every seventh key is NULL.
fn chain() -> Warehouse {
    let mut b = WarehouseBuilder::new();
    for t in 0..=HOPS {
        let cols = [
            ("Key", ValueType::Int, false),
            ("Next", ValueType::Int, false),
        ];
        b.table(&format!("T{t}"), &cols).unwrap();
        for r in 0..ROWS {
            let next = match r % 7 {
                6 => Value::Null,
                _ => Value::Int(((r + 1) % ROWS) as i64),
            };
            b.row(&format!("T{t}"), vec![Value::Int(r as i64), next])
                .unwrap();
        }
    }
    for t in 0..HOPS {
        b.edge(
            &format!("T{t}.Next"),
            &format!("T{}.Key", t + 1),
            None,
            None,
        )
        .unwrap();
    }
    b.fact("T0").unwrap();
    b.finish().unwrap()
}

#[test]
fn a_join_index_holds_one_array_per_edge() {
    let wh = chain();
    // A first build sizes this thread's decode scratch, which the
    // warehouse keeps for every later scan on the thread.
    drop(JoinIndex::build(&wh));
    let before = LIVE.load(Ordering::Relaxed);
    let idx = JoinIndex::build(&wh);
    let held = (LIVE.load(Ordering::Relaxed) - before) as usize;
    let arrays = 4 * ROWS * HOPS;
    assert!(
        (arrays..=arrays + PER_EDGE * HOPS).contains(&held),
        "{HOPS} edges of {ROWS} child rows: {held} B held, {arrays} B of arrays"
    );

    // The index still reaches the end of the chain.
    let fact = wh.schema().fact_table();
    let path = JoinPath::new(wh.schema(), fact, (0..HOPS as u32).map(EdgeId).collect()).unwrap();
    assert_eq!(idx.row_mapper(&path).get(0), Some(HOPS as u32));
}
