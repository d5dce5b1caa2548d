//! The metrics hooks cost no allocation: after one warm-up tick, a
//! write tick (K batched writes → one commit → view refresh, with an
//! index, two views and a WAL attached) allocates exactly as many times
//! with a `MetricsRegistry` attached to the store and its world as
//! without one. Every hook is a relaxed atomic bump behind a handle
//! resolved at attach time; this fails the moment one allocates.
//!
//! The snapshot checksum gates everything sized by a snapshot's
//! contents: a forged image fails its checksum having allocated nothing.
//!
//! The counting allocator is process-global, so it counts only the
//! allocations of the thread that opened a window, and the tests here
//! may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{EntityId, IndexKind, Query, World, WriteBatch};
use gamedb_metrics::MetricsRegistry;
use gamedb_persist::{decode, encode, temp_dir, Backend, SnapshotError, WalStore};
use gamedb_spatial::Vec2;

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

const N: usize = 5_000;
const K: usize = 512;

fn store(label: &str) -> WalStore {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    for i in 0..N {
        let e = w.spawn_at(Vec2::new((i * 37 % 2_000) as f32, (i * 91 % 2_000) as f32));
        w.set_f32(e, "hp", 100.0).unwrap();
    }
    w.create_index("hp", IndexKind::Sorted).unwrap();
    w.register_view(Query::select().filter("hp", CmpOp::Lt, Value::Float(25.0)));
    w.register_view(Query::select().within(Vec2::new(1_000.0, 1_000.0), 150.0));
    WalStore::new(w, Backend::open(temp_dir(label)).unwrap(), K).unwrap()
}

/// Round `r`'s tick: K pseudo-random entities get a fresh hp.
fn tick(s: &mut WalStore, r: usize) {
    let ids = s.world().entity_vec();
    let mut batch = WriteBatch::new();
    for k in 0..K {
        let e = ids[(r * 7_919 + k * 104_729) % N];
        batch.set(e, "hp", Value::Float(((r + k * 13) % 100) as f32));
    }
    s.world_mut().apply_batch(batch).unwrap();
    s.commit().unwrap();
    s.world_mut().refresh_views();
}

#[test]
fn metrics_hooks_allocate_nothing_per_tick() {
    let registry = MetricsRegistry::new();
    let mut bare = store("metrics-alloc-bare");
    let mut instrumented = store("metrics-alloc-instrumented");
    instrumented.attach_metrics(&registry);
    instrumented.world_mut().attach_metrics(&registry);
    // the first tick registers handles lazily on both sides
    tick(&mut bare, 0);
    tick(&mut instrumented, 0);
    for r in 1..4 {
        let plain = allocs_during(|| tick(&mut bare, r));
        let counted = allocs_during(|| tick(&mut instrumented, r));
        assert!(plain > 0, "the counter sees the tick");
        assert_eq!(counted, plain, "round {r}: allocations with metrics vs without");
    }
    let snap = registry.snapshot();
    assert!(snap.counter("change.records") >= K as u64);
    assert!(snap.counter("change.batches") > 0);
    assert!(snap.counter("wal.commits") > 0);
    assert!(snap.counter("view.refreshes") > 0);
}

/// An image whose entity list names slot `u32::MAX − 1` under a wrong
/// checksum: were the rows loaded before the checksum held, restoring
/// the allocator would size a slot table by that slot. The checksum is
/// checked first, so the decode fails as a mismatch having allocated
/// nothing at all.
#[test]
fn checksum_holds_before_anything_is_sized_by_the_snapshot() {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    for i in 0..3 {
        w.spawn_at(Vec2::new(i as f32, 0.0));
    }
    let mut forged = encode(&w).to_vec();
    // body: n_schema | (len, name, type tag) per entry | n_entities | ids
    let mut at = 24 + 4;
    for _ in 0..w.component_count() {
        at += 4 + u32::from_le_bytes(forged[at..at + 4].try_into().unwrap()) as usize + 1;
    }
    assert_eq!(u32::from_le_bytes(forged[at..at + 4].try_into().unwrap()), 3);
    let far = EntityId::from_bits(u64::from(u32::MAX - 1));
    forged[at + 4..at + 12].copy_from_slice(&far.to_bits().to_le_bytes());
    let mut result = None;
    let allocs = allocs_during(|| result = Some(decode(&forged).map(|_| ())));
    assert!(
        matches!(result, Some(Err(SnapshotError::ChecksumMismatch { .. }))),
        "{result:?}"
    );
    assert_eq!(allocs, 0, "nothing is allocated before the checksum holds");
}
