//! End-to-end integration: designer content → world → restricted scripts
//! → parallel ticks → triggers → checkpoint → crash → recovery.

use gamedb::content::{Action as TriggerAction, ContentBundle, Value};
use gamedb::core::{EffectBuffer, EntityId, TickExecutor, World};
use gamedb::persist::{temp_dir, Backend, CheckpointClock, CheckpointPolicy, WalStore};
use gamedb::script::{check_library, parse_script, run_script, ExecOptions, Level, ScriptLibrary};
use gamedb::spatial::Vec2;
use gamedb::TriggerRunner;

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
    <trigger id="enter_camp" event="enter_area" x="100" y="0" w="10" h="10">
      <when component="team" op="eq" value="red"/>
      <action kind="emit" event="camp_alarm"/>
    </trigger>
    <trigger id="leave_camp" event="exit_area" x="100" y="0" w="10" h="10">
      <action kind="emit" event="camp_clear"/>
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
    let (world, _, lib) = build_shard();
    let bundle = ContentBundle::from_gdml_str(CONTENT).unwrap();

    let backend = Backend::open(temp_dir("pipeline")).unwrap();
    let mut store = WalStore::new(world, backend, 1).unwrap();
    let mut runner = TriggerRunner::new(store.world_mut(), &bundle.triggers);
    let mut clock = CheckpointClock::new(CheckpointPolicy::Periodic { period: 5.0 });

    let mut rescue_events = 0usize;
    // 33 ticks: the last periodic(5) checkpoint lands at t=30, so three
    // ticks of progress exist to lose at the crash
    for _ in 0..33 {
        // run scripts as a tick system
        let lib_ref = &lib;
        let system = move |id: EntityId, w: &World, buf: &mut EffectBuffer| {
            run_script(lib_ref, "skirmish", w, id, buf, ExecOptions::default()).unwrap();
        };
        TickExecutor::sequential()
            .run_tick(store.world_mut(), &[&system])
            .unwrap();
        // crossings are read from the writes the tick made
        for (_, id, action) in runner.pump(store.world_mut()) {
            assert_eq!(id, "near_death");
            assert!(matches!(action, TriggerAction::Emit { .. }));
            rescue_events += 1;
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

/// Area triggers fire from real moves: `set_pos` writes on the store's
/// world reach the runner through the change stream.
#[test]
fn area_triggers_fire_from_set_pos_writes() {
    let (world, ids, _) = build_shard();
    let bundle = ContentBundle::from_gdml_str(CONTENT).unwrap();
    let backend = Backend::open(temp_dir("pipeline-area")).unwrap();
    let mut store = WalStore::new(world, backend, 1).unwrap();
    let mut runner = TriggerRunner::new(store.world_mut(), &bundle.triggers);
    let mut walk = |store: &mut WalStore, who: &[EntityId], to: Vec2| {
        for &e in who {
            store.world_mut().set_pos(e, to).unwrap();
        }
        store.commit().unwrap();
        let fired = runner.pump(store.world_mut());
        fired
            .into_iter()
            .map(|(e, id, _)| (e, id))
            .collect::<Vec<_>>()
    };

    // a red and a blue fighter walk into the camp: the team guard lets
    // only the red one raise the alarm
    let (red, blue) = (ids[0], ids[1]);
    assert_eq!(
        walk(&mut store, &[red, blue], Vec2::new(105.0, 5.0)),
        vec![(red, "enter_camp".to_string())]
    );
    // moving inside the camp crosses nothing
    assert!(walk(&mut store, &[red], Vec2::new(109.0, 9.0)).is_empty());
    // both walk out: one exit each, in entity order
    assert_eq!(
        walk(&mut store, &[blue, red], Vec2::new(50.0, 5.0)),
        vec![
            (red, "leave_camp".to_string()),
            (blue, "leave_camp".to_string())
        ]
    );
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
    let program = gamedb::script::compile_program(&lib, "skirmish", &w2, ExecOptions::default())
        .unwrap();
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
