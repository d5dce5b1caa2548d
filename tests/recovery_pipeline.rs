//! Cross-crate recovery pipeline: after a crash, the persistence layer
//! hands back a world whose catalog — secondary indexes and standing
//! views — survived, and every view subscriber (exploit auditor, aggro
//! candidate view, interest-bubble replicator) re-attaches to its
//! recovered view instead of registering a duplicate or silently losing
//! its subscription. Designer triggers hold no view: a runner started on
//! the recovered world counts crossings from there.

use gamedb::content::{gdml, CmpOp, TriggerSet, Value, ValueType};
use gamedb::core::{IndexKind, Query, World};
use gamedb::persist::{decode, encode, temp_dir, Backend, WalStore};
use gamedb::spatial::Vec2;
use gamedb::sync::{Auditor, CandidateView, ConsistencyLevel, Interest, Replica, Replicator};
use gamedb::TriggerRunner;

fn triggers() -> TriggerSet {
    TriggerSet::from_gdml(
        &gdml::parse(
            r#"<triggers>
                 <trigger id="low_hp" event="stat_below" component="hp" threshold="20">
                   <action kind="emit" event="flee"/>
                 </trigger>
               </triggers>"#,
        )
        .unwrap(),
    )
    .unwrap()
}

/// A runner started on the recovered world neither double-fires
/// pre-crash crossings nor misses new ones, and the recovered tick counter
/// keeps crossing bookkeeping coherent.
#[test]
fn threshold_watcher_survives_crash_without_refiring() {
    let mut world = World::new();
    world.define_component("hp", ValueType::Float).unwrap();
    let backend = Backend::open(temp_dir("recovery-watcher")).unwrap();
    let mut store = WalStore::new(world, backend, 1).unwrap();
    // the `hp < 20` view an older, view-based trigger watcher committed
    let watch_query = Query::select().filter("hp", CmpOp::Lt, Value::Float(20.0));
    store.ensure_view(watch_query).unwrap();
    let mut runner = TriggerRunner::new(store.world_mut(), &triggers());

    let a = store.world_mut().spawn_at(Vec2::ZERO);
    let b = store.world_mut().spawn_at(Vec2::new(5.0, 0.0));
    store.world_mut().set(a, "hp", Value::Float(100.0)).unwrap();
    store.world_mut().set(b, "hp", Value::Float(100.0)).unwrap();
    // a crosses before the crash, and its firing is consumed
    store.world_mut().set(a, "hp", Value::Float(5.0)).unwrap();
    let t = store.world().tick();
    store.world_mut().advance_tick_to(t + 1);
    store.commit().unwrap();
    let fired = runner.pump(store.world_mut());
    assert_eq!(fired.len(), 1, "pre-crash crossing fires once");

    let tick_before = store.world().tick();
    let (mut store, _) = store.crash_and_recover().unwrap();
    assert_eq!(store.world().tick(), tick_before, "tick recovers exactly");

    // a fresh process starts a fresh runner: already-below rows are not
    // crossings, so nothing re-fires
    let mut runner = TriggerRunner::new(store.world_mut(), &triggers());
    assert_eq!(
        store.world().view_ids().len(),
        1,
        "the old view stays in the recovered catalog, and the runner adds none"
    );
    let refired = runner.pump(store.world_mut());
    assert!(refired.is_empty(), "recovered crossings must not double-fire");

    // but a genuinely new crossing after recovery fires exactly once
    store.world_mut().set(b, "hp", Value::Float(1.0)).unwrap();
    let t = store.world().tick();
    store.world_mut().advance_tick_to(t + 1);
    store.commit().unwrap();
    let fired = runner.pump(store.world_mut());
    assert_eq!(fired.len(), 1, "post-recovery crossings fire normally");
    assert_eq!(fired[0].0, b);
}

/// The auditor's `gold < 0` view survives a snapshot round-trip and a
/// restarted auditor adopts it rather than registering a second one.
#[test]
fn auditor_reattaches_to_recovered_overdraft_view() {
    let mut w = World::new();
    w.define_component("gold", ValueType::Int).unwrap();
    let e = w.spawn_at(Vec2::ZERO);
    w.set(e, "gold", Value::Int(-5)).unwrap();
    let auditor = Auditor::attach(&mut w, 10.0);
    assert_eq!(w.view_ids().len(), 1);

    let (mut recovered, _) = decode(&encode(&w)).unwrap();
    auditor.release(&mut w);
    let mut restarted = Auditor::attach(&mut recovered, 10.0);
    assert_eq!(
        recovered.view_ids().len(),
        1,
        "the recovered view is adopted, not duplicated"
    );
    let report = restarted.audit(&mut recovered);
    assert_eq!(report.overdrafts, 1, "overdraft visible through the view");
    restarted.release(&mut recovered);
}

/// A mob's aggro candidate view survives recovery; `reattach` finds it
/// by its excluded-mob fingerprint and keeps maintaining it.
#[test]
fn candidate_view_reattaches_after_recovery() {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    let mob = w.spawn_at(Vec2::ZERO);
    let prey = w.spawn_at(Vec2::new(3.0, 0.0));
    let cv = CandidateView::register(&mut w, mob, 10.0).unwrap();
    assert_eq!(cv.candidates(&w), &[prey]);

    let (mut recovered, _) = decode(&encode(&w)).unwrap();
    let cv2 = CandidateView::reattach(&mut recovered, mob, 10.0).unwrap();
    assert_eq!(cv2.view(), cv.view(), "same recovered view handle");
    assert_eq!(recovered.view_ids().len(), 1);
    assert_eq!(cv2.candidates(&recovered), &[prey]);
    // and it stays live: the prey leaves the radius
    let mut table = gamedb::sync::AggroTable::new();
    table.add_threat(prey, gamedb::sync::Role::Dps, 5.0);
    recovered.set_pos(prey, Vec2::new(100.0, 0.0)).unwrap();
    let mut cv2 = cv2;
    let log = cv2.sync(&mut recovered, &mut table);
    assert_eq!(log.exited, vec![prey]);
    assert!(table.is_empty(), "evicted from the threat table");
}

/// A replicator rebuilt after recovery adopts the surviving interest
/// view and ships the exact same replica a full-walk sync would.
#[test]
fn replicator_reattaches_interest_view_after_recovery() {
    let interest = Interest {
        center: (0.0, 0.0),
        radius: 12.0,
        margin: 2.0,
    };
    let mut w = World::new();
    w.define_component("gold", ValueType::Int).unwrap();
    w.create_index("gold", IndexKind::Sorted).unwrap();
    for i in 0..20 {
        let e = w.spawn_at(Vec2::new(i as f32 * 2.0, 0.0));
        w.set(e, "gold", Value::Int(i)).unwrap();
    }
    let mut rep = Replicator::with_interest(ConsistencyLevel::Strict, interest);
    rep.attach_stream(&mut w);
    assert_eq!(w.view_ids().len(), 1);

    let (mut recovered, _) = decode(&encode(&w)).unwrap();
    let mut rep2 = Replicator::with_interest(ConsistencyLevel::Strict, interest);
    rep2.reattach_view(&mut recovered);
    rep2.attach_stream(&mut recovered);
    assert_eq!(
        recovered.view_ids().len(),
        1,
        "interest view adopted, not re-registered"
    );
    let mut via_view = Replica::default();
    rep2.sync_stream(&mut recovered, &mut via_view);
    let mut plain = Replicator::with_interest(ConsistencyLevel::Strict, interest);
    let mut via_walk = Replica::default();
    plain.sync(&recovered, &mut via_walk);
    assert_eq!(via_view.rows, via_walk.rows, "identical replica state");
}
