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
//! The counting allocator is process-global, so this binary holds this
//! one test alone, and it counts only the allocations of the thread that
//! opened a window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use gamedb_content::{Value, ValueType};
use gamedb_core::{EntityId, IndexKind, World, WriteBatch};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter and the const-initialised,
// drop-free thread-local never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Allocations `f` makes on this thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
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
            counts.push(allocs_during(|| {
                w.apply_batch(there).unwrap();
            }));
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
