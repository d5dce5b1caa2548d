//! The metric catalog in `docs/ARCHITECTURE.md` and the names the
//! subsystems register must be equal sets: a counter added without a
//! catalog row, or a row left behind by a deleted counter, fails here.

use std::collections::BTreeSet;

use gamedb::core::{AggFn, Query};
use gamedb::metrics::MetricsRegistry;
use gamedb::persist::{temp_dir, Backend, FlushPolicy, WalStore};
use gamedb::script::{Level, ScriptEngine};
use gamedb::spatial::Vec2;
use gamedb::sync::{
    arena_world, AssignPolicy, BubbleConfig, ConsistencyLevel, Interest, Replica, Replicator,
    ShardManager, ShardRouter,
};

/// Every name a fully attached stack registers, after one tick that
/// touches the lazily created families (per-slot view counters for a
/// rows view and a group view, the per-tap lag gauge).
fn registered_names() -> BTreeSet<String> {
    let registry = MetricsRegistry::new();
    let (mut world, players) = arena_world(16, |i| Vec2::new(i as f32 * 5.0, 0.0));
    world.register_view(Query::select().within(Vec2::ZERO, 20.0));
    world
        .register_view_plan(
            Query::select()
                .into_aggregate_plan(AggFn::Sum("gold".into()))
                .unwrap(),
        )
        .unwrap();
    let mut engine = ScriptEngine::new(Level::Restricted);
    let backend = Backend::open(temp_dir("metrics_catalog")).unwrap();
    let mut store = WalStore::new_async(world, backend, FlushPolicy::flush_every(8, 1), 4).unwrap();
    let mut shards = ShardManager::new(
        2,
        AssignPolicy::DynamicBubbles {
            cfg: BubbleConfig::default(),
            max_overload: 1.4,
        },
    );
    let mut router = ShardRouter::new(store.world_mut(), 2);
    let mut rep = Replicator::with_interest(
        ConsistencyLevel::Strict,
        Interest {
            center: (0.0, 0.0),
            radius: 30.0,
            margin: 0.0,
        },
    );
    rep.attach_stream(store.world_mut());

    store.attach_metrics(&registry);
    store.world_mut().attach_metrics(&registry);
    engine.attach_metrics(&registry);
    shards.attach_metrics(&registry);
    router.attach_metrics(&registry);
    rep.attach_metrics(&registry);

    store
        .world_mut()
        .set_pos(players[0], Vec2::new(1.0, 1.0))
        .unwrap();
    let assignment = shards.tick(store.world(), &[]);
    engine.tick(store.world_mut()).unwrap();
    store.world_mut().refresh_views();
    store.commit().unwrap();
    router.tick(store.world_mut(), &assignment);
    rep.sync_stream(store.world_mut(), &mut Replica::default());
    store.wait_durable(store.last_enqueued()).unwrap();

    let names = registry.snapshot().iter().map(|(n, _)| n.to_string()).collect();
    router.detach(store.world_mut());
    names
}

/// The first-column names of the "Metric catalog" table, `{a,b}`
/// alternations expanded; `{N}` / `{slot}` placeholders left in.
fn catalog_names() -> BTreeSet<String> {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/ARCHITECTURE.md"))
        .expect("docs/ARCHITECTURE.md");
    let table = doc
        .split("### Metric catalog")
        .nth(1)
        .expect("a Metric catalog section")
        .split("\n### ")
        .next()
        .unwrap();
    let mut names = BTreeSet::new();
    for row in table.lines().filter(|l| l.starts_with("| `")) {
        let cell = row.split('|').nth(1).unwrap();
        for name in cell.split('`').skip(1).step_by(2) {
            // the alternation, if any, is the brace group with a comma
            let alternation = name.match_indices('{').find_map(|(open, _)| {
                let close = open + name[open..].find('}')?;
                name[open..close].contains(',').then_some((open, close))
            });
            match alternation {
                Some((open, close)) => {
                    for alt in name[open + 1..close].split(',') {
                        names.insert(format!("{}{alt}{}", &name[..open], &name[close + 1..]));
                    }
                }
                None => {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

/// `pattern` with its `{placeholder}` (if any) standing for a number.
fn matches(pattern: &str, name: &str) -> bool {
    let (Some(open), Some(close)) = (pattern.find('{'), pattern.find('}')) else {
        return pattern == name;
    };
    name.strip_prefix(&pattern[..open])
        .and_then(|rest| rest.strip_suffix(&pattern[close + 1..]))
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

#[test]
fn architecture_catalog_and_registered_names_are_equal_sets() {
    let registered = registered_names();
    let catalog = catalog_names();
    let uncatalogued: Vec<_> = registered
        .iter()
        .filter(|n| !catalog.iter().any(|p| matches(p, n)))
        .collect();
    let unregistered: Vec<_> = catalog
        .iter()
        .filter(|p| !registered.iter().any(|n| matches(p, n)))
        .collect();
    assert!(
        uncatalogued.is_empty() && unregistered.is_empty(),
        "registered but missing from the ARCHITECTURE.md catalog: {uncatalogued:?}\n\
         in the catalog but registered by no subsystem: {unregistered:?}"
    );
}

/// A checkpoint is one observation of its encode and one of its write,
/// in either durability mode (async: the write is timed on the writer
/// thread, and observed before the checkpoint call returns).
#[test]
fn each_checkpoint_observes_its_encode_and_its_write() {
    for async_mode in [false, true] {
        let registry = MetricsRegistry::new();
        let (world, _) = arena_world(16, |i| Vec2::new(i as f32, 0.0));
        let backend = Backend::open(temp_dir("metrics_checkpoint")).unwrap();
        let mut store = if async_mode {
            WalStore::new_async(world, backend, FlushPolicy::flush_every(8, 1), 4)
        } else {
            WalStore::new(world, backend, 1)
        }
        .unwrap();
        store.attach_metrics(&registry);
        store.checkpoint().unwrap();
        store.checkpoint().unwrap();
        let snapshot = registry.snapshot();
        for name in ["checkpoint.encode_us", "checkpoint.write_us"] {
            assert_eq!(
                snapshot.histogram(name).map(|h| h.count),
                Some(2),
                "{name} (async: {async_mode})"
            );
        }
    }
}
