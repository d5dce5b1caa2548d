//! Allocation floors of the indexed read and write paths, counted by a
//! counting global allocator.
//!
//! The indexed write path allocates per batch, not per write: after a
//! warm-up that moves the same ids back and forth, one `apply_batch` of
//! 2,000 writes to existing keys allocates exactly as many times as one
//! of 100 writes, on each of a hash index over a string column (`team`)
//! and sorted indexes over a float (`hp`) and an int (`gold`) column,
//! with no view or tap attached. A known key is found without building
//! an owned key, a slot leaves its old posting list without a search, and
//! the batch's value moves into its column uncopied; this fails the
//! moment any of them allocates per write.
//!
//! A dense index probe never materialises its candidate list: an
//! `aggregate` planned onto a sorted index allocates as often, and as
//! many bytes, at 10 % selectivity as at 70 %.
//!
//! The allocator is process-global, so it counts only on a thread that
//! opened a window, into that thread's own counters: tests running side
//! by side do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{aggregate, plan, Access, AggFn, EntityId, IndexKind, Query, TableStats, World, WriteBatch};

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations and bytes allocated inside this thread's windows.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the const-initialised, drop-free thread-locals
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.with(|a| {
                let (n, bytes) = a.get();
                a.set((n + 1, bytes + layout.size() as u64));
            });
        }
        // SAFETY: the caller's `layout` guarantees pass through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread, and the bytes they asked for.
fn allocs_during(f: impl FnOnce()) -> (u64, u64) {
    let (n, bytes) = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    let (n2, bytes2) = ALLOCS.with(Cell::get);
    (n2 - n, bytes2 - bytes)
}

const N: usize = 4_000;
/// Writes go to the first `MOVED` entities only; the rest hold every key,
/// so no key dies or is born.
const MOVED: usize = 2_000;
const KEYS: usize = 50;

/// Key `k` of `column`.
fn value(column: &str, k: usize) -> Value {
    match column {
        "hp" => Value::Float(k as f32),
        "gold" => Value::Int(k as i64 * 1_000),
        _ => Value::Str(format!("team-{k:03}")),
    }
}

fn world() -> (World, Vec<EntityId>) {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    w.define_component("gold", ValueType::Int).unwrap();
    w.define_component("team", ValueType::Str).unwrap();
    let ids: Vec<EntityId> = (0..N)
        .map(|i| {
            let e = w.spawn();
            for c in ["hp", "gold", "team"] {
                w.set(e, c, value(c, i % KEYS)).unwrap();
            }
            e
        })
        .collect();
    w.create_index("team", IndexKind::Hash).unwrap();
    w.create_index("hp", IndexKind::Sorted).unwrap();
    w.create_index("gold", IndexKind::Sorted).unwrap();
    (w, ids)
}

/// `n` writes to `column`: the i-th moved entity gets key `(i + shift) %
/// KEYS`, so shift 1 moves each id one key on and shift 0 moves it back.
fn batch(ids: &[EntityId], column: &str, n: usize, shift: usize) -> WriteBatch {
    let mut b = WriteBatch::new();
    for (i, &e) in ids[..MOVED].iter().enumerate().take(n) {
        b.set(e, column, value(column, (i + shift) % KEYS));
    }
    b
}

#[test]
fn indexed_batch_writes_allocate_per_batch_not_per_write() {
    let (mut w, ids) = world();
    for column in ["team", "hp", "gold"] {
        // warm-up: every posting list has held its largest size
        for shift in [1, 0, 1, 0] {
            w.apply_batch(batch(&ids, column, MOVED, shift)).unwrap();
        }
        let mut counts = Vec::new();
        for n in [MOVED, 100] {
            let there = batch(&ids, column, n, 1);
            counts.push(
                allocs_during(|| {
                    w.apply_batch(there).unwrap();
                })
                .0,
            );
            w.apply_batch(batch(&ids, column, n, 0)).unwrap();
        }
        println!(
            "{column}: {MOVED} writes {} allocations, 100 writes {}",
            counts[0], counts[1]
        );
        assert!(counts[1] > 0, "the counter sees the batch");
        assert_eq!(
            counts[0], counts[1],
            "{column}: allocations of {MOVED} writes vs 100"
        );
    }
    for (i, &e) in ids.iter().enumerate() {
        assert_eq!(w.get(e, "team"), Some(value("team", i % KEYS)));
    }
}

#[test]
fn dense_probe_aggregate_allocates_alike_at_any_selectivity() {
    // hp runs 0..100 over the rows, so `hp < x` keeps x % of them
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    w.define_component("gold", ValueType::Int).unwrap();
    for i in 0..N {
        let e = w.spawn();
        w.set(e, "hp", Value::Float((i * 37 % 100) as f32)).unwrap();
        w.set(e, "gold", Value::Int(i as i64)).unwrap();
    }
    w.create_index("hp", IndexKind::Sorted).unwrap();
    let sum = AggFn::Sum("gold".into());
    let below = |x: f32| Query::select().filter("hp", CmpOp::Lt, Value::Float(x));
    let mut seen = Vec::new();
    for x in [10.0, 70.0] {
        let q = below(x);
        let p = plan(&q, &TableStats::for_query(&w, &q));
        assert!(matches!(p.access, Access::AttributeIndex { .. }), "{}", p.explain());
        // warm-up: whatever is built once per process is built
        aggregate(&w, &q, &sum);
        let mut got = 0.0;
        let allocs = allocs_during(|| got = aggregate(&w, &q, &sum).as_number().unwrap());
        let rows = (0..N).filter(|i| ((i * 37 % 100) as f32) < x);
        assert_eq!(got, rows.map(|i| i as f64).sum::<f64>());
        println!("hp < {x}: {} allocations, {} bytes", allocs.0, allocs.1);
        seen.push(allocs);
    }
    assert!(seen[0].0 > 0, "the counter sees the probe");
    assert_eq!(seen[0], seen[1], "(allocations, bytes) at 10 % vs 70 %");
}
