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
//! A new string is stored once: a write of a string no slot holds
//! allocates once, for the column's dictionary, whether or not a hash
//! index is on the column — the index keys by the dictionary's code. An
//! index built over existing string rows allocates per distinct key (its
//! posting list), not per row.
//!
//! A dense index probe never materialises its candidate list: an
//! `aggregate` planned onto a sorted index allocates as often, and as
//! many bytes, at 10 % selectivity as at 70 %.
//!
//! A group query on an indexed key column reads the index's key ids: at
//! a fixed row count it allocates as often at 10 groups as at 10,000
//! with an int key, and exactly once more per output row (the row's key
//! `String`) with a string key.
//!
//! A view nobody subscribed to logs nothing: under steady churn, four
//! unsubscribed views hold no delta entries and every tick allocates
//! exactly as often as the first tick of its shape.
//!
//! The allocator is process-global, so it counts only on a thread that
//! opened a window, into that thread's own counters: tests running side
//! by side do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{
    aggregate, plan, Access, AggFn, EntityId, GroupRow, IndexKind, JoinOn, PlanNode, Query,
    TableStats, ViewPlan, World, WriteBatch,
};
use gamedb_spatial::Vec2;

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

/// A string no slot holds is stored once: once the dictionary and the
/// index have room (keys born, then all retired, so codes are free, the
/// map keeps its capacity and each code's posting list its buffer), a
/// write of a new string to a string column allocates exactly once — its
/// dictionary entry, shared by the dictionary's map and key list — with
/// a hash index on the column as without one.
#[test]
fn a_new_string_allocates_once_indexed_or_not() {
    const ROWS: usize = 200;
    for indexed in [false, true] {
        let mut w = World::new();
        w.define_component("team", ValueType::Str).unwrap();
        if indexed {
            w.create_index("team", IndexKind::Hash).unwrap();
        }
        let ids: Vec<EntityId> = (0..ROWS).map(|_| w.spawn()).collect();
        for (i, &e) in ids.iter().enumerate() {
            w.set(e, "team", Value::Str(format!("warm-{i}"))).unwrap();
        }
        for &e in &ids {
            w.set(e, "team", Value::Str("shared".into())).unwrap();
        }
        let fresh: Vec<Value> = (0..ROWS / 2)
            .map(|i| Value::Str(format!("new-{i}")))
            .collect();
        let (allocs, _) = allocs_during(|| {
            for (&e, v) in ids.iter().zip(fresh) {
                w.set(e, "team", v).unwrap();
            }
        });
        println!("indexed {indexed}: {allocs} allocations for the new strings");
        assert_eq!(allocs, (ROWS / 2) as u64, "indexed: {indexed}");
        assert_eq!(w.get(ids[7], "team"), Some(Value::Str("new-7".into())));
        let shared = Some(Value::Str("shared".into()));
        assert_eq!(w.get(ids[ROWS - 1], "team"), shared);
    }
}

/// An index built over a string column reads each row's dictionary code
/// and copies no string: over 10,000 rows holding 100 distinct strings,
/// `create_index` allocates one posting list per distinct key, plus a
/// few buffers that grow with the rows by doubling (about log₂ 10,000 =
/// 14 allocations each) and a sorted index's tree nodes — never one
/// allocation per row, nor a second per key for a copied string.
#[test]
fn string_index_build_allocates_per_distinct_key_not_per_row() {
    const ROWS: usize = 10_000;
    const DISTINCT: usize = 100;
    for kind in [IndexKind::Hash, IndexKind::Sorted] {
        let mut w = World::new();
        w.define_component("team", ValueType::Str).unwrap();
        for i in 0..ROWS {
            let e = w.spawn();
            w.set(e, "team", Value::Str(format!("guild_{:03}", i % DISTINCT))).unwrap();
        }
        let (allocs, _) = allocs_during(|| w.create_index("team", kind).unwrap());
        println!("{kind:?}: {allocs} allocations to index {ROWS} rows of {DISTINCT} strings");
        assert!(allocs >= DISTINCT as u64, "{kind:?}: one posting list per key");
        assert!(allocs < 2 * DISTINCT as u64, "{kind:?}: {allocs} allocations");
        assert_eq!(w.index_on("team").unwrap().ndv(), DISTINCT);
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

/// The position entity `i` toggles to: one step right of its home on
/// odd shifts, so a column of entities crosses the disk's edge.
fn churn_pos(i: usize, shift: usize) -> Vec2 {
    Vec2::new((i % 64 + shift) as f32, (i / 64) as f32)
}

/// One churn tick: every moved entity's hp, gold and position go to
/// their `shift` values, then the tick folds into the views.
fn churn_tick(w: &mut World, ids: &[EntityId], shift: usize) {
    let mut b = WriteBatch::new();
    for (i, &e) in ids[..MOVED].iter().enumerate() {
        let k = (i + shift) % KEYS;
        b.set(e, "hp", Value::Float(k as f32 * 20.0));
        b.set(e, "gold", Value::Int(k as i64 * 1_000));
        b.set_pos(e, churn_pos(i, shift));
    }
    w.apply_batch(b).unwrap();
    let t = w.tick();
    w.advance_tick_to(t + 1);
}

#[test]
fn unsubscribed_views_log_nothing_and_allocate_alike_every_tick() {
    // the benchmark's write-churn view shapes at small scale
    let registry = gamedb_metrics::MetricsRegistry::new();
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    w.define_component("gold", ValueType::Int).unwrap();
    w.define_component("team", ValueType::Str).unwrap();
    let ids: Vec<EntityId> = (0..N)
        .map(|i| {
            let e = w.spawn_at(churn_pos(i, 0));
            w.set(e, "hp", Value::Float((i % KEYS) as f32 * 20.0)).unwrap();
            w.set(e, "gold", Value::Int((i % KEYS) as i64 * 1_000)).unwrap();
            w.set(e, "team", value("team", i % KEYS)).unwrap();
            e
        })
        .collect();
    w.attach_metrics(&registry);
    let hp = |op, x: f32| Query::select().filter("hp", op, Value::Float(x));
    let views = [
        w.register_view(hp(CmpOp::Lt, 25.0)),
        w.register_view(
            Query::select()
                .within(Vec2::new(32.0, 32.0), 8.0)
                .filter("hp", CmpOp::Ge, Value::Float(500.0)),
        ),
        w.register_view_plan(ViewPlan::join(
            PlanNode::scan(hp(CmpOp::Lt, 10.0)),
            PlanNode::scan(Query::select()),
            JoinOn::Eq {
                left: "team".into(),
                right: "team".into(),
            },
        ))
        .unwrap(),
        w.register_view_plan(
            Query::select().into_grouped_plan("team", AggFn::Sum("gold".into())).unwrap(),
        )
        .unwrap(),
    ];
    // warm-up: every buffer has held its largest batch
    for shift in [1, 0, 1, 0] {
        churn_tick(&mut w, &ids, shift);
    }
    let counts: Vec<u64> = (0..50)
        .map(|t| allocs_during(|| churn_tick(&mut w, &ids, (t + 1) % 2)).0)
        .collect();
    println!("allocations per tick: {:?}", &counts[..4]);
    let snap = registry.snapshot();
    for v in views {
        let stats = w.view_stats(v);
        assert!(stats.delta_rows > 0, "view {} saw deltas", v.slot());
        let held = snap.gauge(&format!("view.s{}.log_len", v.slot()));
        assert_eq!(held, 0, "view {} holds nothing for nobody", v.slot());
    }
    assert!(counts[0] > 0, "the counter sees the tick");
    for (t, &n) in counts.iter().enumerate() {
        assert_eq!(n, counts[t % 2], "tick {t} allocates as the first tick of its shape");
    }

    // a subscriber takes exactly the deltas produced since it subscribed
    let sums = views[3];
    let before = w.view_stats(sums).delta_rows;
    w.subscribe_view(sums);
    for t in 0..10 {
        churn_tick(&mut w, &ids, (t + 1) % 2);
    }
    let log = w.take_view_delta::<GroupRow>(sums).expect("subscribed");
    assert!(!log.changed.is_empty(), "the sums moved");
    assert_eq!(log.len() as u64, w.view_stats(sums).delta_rows - before);
}

#[test]
fn group_query_allocates_per_output_key_not_per_row() {
    // One shape, 20,000 rows, in 10 or in 10,000 groups of uneven size
    // (every third row is in group 0, the rest spread evenly), keyed by
    // an indexed int or string column. The group numbers come from the
    // index's key ids, so only the output may allocate per group: a
    // string key's `GroupRow` key, one `String` each.
    const ROWS: usize = 20_000;
    let allocs = |groups: usize, ty: ValueType| {
        let mut w = World::new();
        w.define_component("k", ty).unwrap();
        w.define_component("v", ValueType::Float).unwrap();
        for i in 0..ROWS {
            let e = w.spawn();
            let g = if i % 3 == 0 { 0 } else { i % groups };
            let key = match ty {
                ValueType::Int => Value::Int(g as i64 * 7),
                // past eight bytes: at 10,000 groups a thousand share
                // each prefix, so the keys themselves are compared
                _ => Value::Str(format!("{:03}_guild_{g:05}", g % 10)),
            };
            w.set(e, "k", key).unwrap();
            w.set(e, "v", Value::Float((i % 13) as f32 * 0.5)).unwrap();
        }
        w.create_index("k", IndexKind::Hash).unwrap();
        let plan = Query::select().into_grouped_plan("k", AggFn::Sum("v".into())).unwrap();
        // warm-up: whatever is built once per process is built
        plan.evaluate(&w).unwrap();
        let mut out = None;
        let (n, _) = allocs_during(|| out = Some(plan.evaluate(&w).unwrap()));
        let out = out.unwrap();
        let out = out.as_groups().unwrap();
        assert_eq!(out.len(), groups, "every group has rows");
        let sum: f64 = out.iter().map(|g| g.value).sum();
        assert_eq!(sum, (0..ROWS).map(|i| (i % 13) as f64 * 0.5).sum::<f64>());
        println!("{ty:?} keys, {groups} groups: {n} allocations");
        n
    };
    let int = [allocs(10, ValueType::Int), allocs(10_000, ValueType::Int)];
    let str = [allocs(10, ValueType::Str), allocs(10_000, ValueType::Str)];
    assert!(int[0] > 0, "the counter sees the query");
    assert_eq!(int[0], int[1], "int keys: allocations at 10 vs 10,000 groups");
    assert_eq!(str[0], int[0] + 10, "string keys, 10 groups: one more per output row");
    assert_eq!(str[1], int[1] + 10_000, "string keys, 10,000 groups: one more per output row");
}
