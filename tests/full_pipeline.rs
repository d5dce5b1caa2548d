//! End-to-end integration: designer content → world → restricted scripts
//! → parallel ticks → triggers → checkpoint → crash → recovery.

use gamedb::content::{Action as TriggerAction, ContentBundle, GameEvent, Value};
use gamedb::core::{EffectBuffer, EntityId, TickExecutor, World};
use gamedb::persist::{temp_dir, Backend, CheckpointClock, CheckpointPolicy, WalStore};
use gamedb::script::{check_library, parse_script, run_script, ExecOptions, Level, ScriptLibrary};
use gamedb::spatial::Vec2;

const CONTENT: &str = r#"
<content>
  <templates>
    <template name="fighter" tags="combatant">
      <component name="hp" type="float" default="100"/>
      <component name="dmg" type="float" default="4"/>
      <component name="team" type="str" default="none"/>
      <script>skirmish</script>
    </template>
  </templates>
  <triggers>
    <trigger id="near_death" event="stat_below" component="hp" threshold="20">
      <action kind="emit" event="rescue_me"/>
    </trigger>
  </triggers>
</content>"#;

const SKIRMISH: &str = r#"
    let foes = count(5; other.team != self.team);
    let pain = sum(5; other.dmg; other.team != self.team);
    if foes > 0 { self.hp -= pain * 0.25; }
    self.hp += 0.5;
"#;

fn build_shard() -> (World, Vec<EntityId>, ScriptLibrary) {
    let bundle = ContentBundle::from_gdml_str(CONTENT).unwrap();
    assert!(bundle.validate().is_empty());
    let fighter = bundle.templates.resolve("fighter").unwrap();
    assert!(fighter.has_tag("combatant"));
    assert_eq!(fighter.scripts, vec!["skirmish"]);

    let mut world = World::new();
    let mut ids = Vec::new();
    for i in 0..40 {
        let e = world
            .spawn_from_template(&fighter, Vec2::new((i % 8) as f32 * 3.0, (i / 8) as f32 * 3.0))
            .unwrap();
        world
            .set(
                e,
                "team",
                Value::Str(if i % 2 == 0 { "red" } else { "blue" }.into()),
            )
            .unwrap();
        ids.push(e);
    }

    let mut lib = ScriptLibrary::new();
    lib.insert(parse_script("skirmish", SKIRMISH).unwrap());
    let scripts: Vec<_> = lib.iter().cloned().collect();
    let errors = check_library(&scripts, &world, Level::Restricted);
    assert!(errors.is_empty(), "{errors:?}");
    (world, ids, lib)
}

#[test]
fn content_to_ticks_to_recovery() {
    let (world, ids, lib) = build_shard();
    let bundle = ContentBundle::from_gdml_str(CONTENT).unwrap();
    let mut triggers = bundle.triggers.clone();

    let backend = Backend::open(temp_dir("pipeline")).unwrap();
    let mut store = WalStore::new(world, backend, 1).unwrap();
    let mut clock = CheckpointClock::new(CheckpointPolicy::Periodic { period: 5.0 });

    let mut rescue_events = 0usize;
    // 33 ticks: the last periodic(5) checkpoint lands at t=30, so three
    // ticks of progress exist to lose at the crash
    for _ in 0..33 {
        // run scripts as a tick system
        let lib_ref = &lib;
        let hp_before: Vec<(EntityId, f64)> = ids
            .iter()
            .filter(|&&e| store.world().is_live(e))
            .map(|&e| (e, store.world().get_number(e, "hp").unwrap_or(0.0)))
            .collect();
        let system = move |id: EntityId, w: &World, buf: &mut EffectBuffer| {
            run_script(lib_ref, "skirmish", w, id, buf, ExecOptions::default()).unwrap();
        };
        TickExecutor::sequential()
            .run_tick(store.world_mut(), &[&system])
            .unwrap();
        // feed stat changes into the trigger set
        for (e, old) in hp_before {
            if !store.world().is_live(e) {
                continue;
            }
            let new = store.world().get_number(e, "hp").unwrap_or(0.0);
            if new != old {
                let fired = triggers.fire(
                    &GameEvent::StatChanged {
                        component: "hp".into(),
                        old,
                        new,
                    },
                    &store.world().view(e),
                );
                for (id, action) in fired {
                    assert_eq!(id, "near_death");
                    assert!(matches!(action, TriggerAction::Emit { .. }));
                    rescue_events += 1;
                }
            }
        }
        if clock.observe(1.0, 0.5) {
            store.checkpoint().unwrap();
        }
    }
    assert!(
        rescue_events > 0,
        "sustained combat must push someone below the trigger threshold"
    );
    assert!(store.stats.checkpoints >= 5, "periodic(5s) over 33s");

    // crash: world rolls back to a durable state with all entities intact
    let pre_crash_rows = store.world().rows();
    let report = clock.exposure();
    let (recovered, _) = store.crash_and_recover().unwrap();
    assert!(report.lost_game_seconds <= 5.0 + 1e-6);
    assert_eq!(recovered.world().len(), 40);
    // recovered state is a previous state, not the live one
    assert_ne!(recovered.world().rows(), pre_crash_rows);
    // spatial queries still work after recovery
    let mut near = Vec::new();
    recovered.world().within(Vec2::new(0.0, 0.0), 5.0, &mut near);
    assert!(!near.is_empty());
}

#[test]
fn parallel_and_sequential_shards_agree() {
    let (mut w1, _, lib) = build_shard();
    let (mut w2, _, _) = build_shard();
    let lib_ref = &lib;
    let system = move |id: EntityId, w: &World, buf: &mut EffectBuffer| {
        run_script(lib_ref, "skirmish", w, id, buf, ExecOptions::default()).unwrap();
    };
    for _ in 0..10 {
        TickExecutor::sequential().run_tick(&mut w1, &[&system]).unwrap();
        TickExecutor::parallel(4)
            .with_min_chunk(4)
            .run_tick(&mut w2, &[&system])
            .unwrap();
    }
    assert_eq!(w1.rows(), w2.rows());
}

#[test]
fn compiled_scripts_agree_with_interpreter_over_ticks() {
    let (mut w1, _, lib) = build_shard();
    let (mut w2, _, _) = build_shard();
    let program = gamedb::script::compile_program(&lib, "skirmish", &w2).unwrap();
    let mut vm = gamedb::script::Vm::new();
    for _ in 0..10 {
        let mut b1 = EffectBuffer::new();
        for id in w1.entity_vec() {
            run_script(&lib, "skirmish", &w1, id, &mut b1, ExecOptions::default()).unwrap();
        }
        b1.apply(&mut w1).unwrap();

        // the whole shard as one set-at-a-time run
        let mut b2 = EffectBuffer::new();
        let mut events = Vec::new();
        vm.run_set(&program, &w2, &w2.entity_vec(), &mut b2, ExecOptions::default(), &mut events)
            .unwrap();
        b2.apply(&mut w2).unwrap();
    }
    assert_eq!(w1.rows(), w2.rows());
}
