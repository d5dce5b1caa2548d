//! Each designer trigger kind end to end: parsed by `gamedb-content`,
//! fired by [`crate::TriggerRunner`] on a live world.

mod tests {
    use crate::content::{gdml, Action, TriggerSet, Value, ValueType};
    use crate::core::{EntityId, World};
    use crate::spatial::Vec2;
    use crate::TriggerRunner;

    fn set_from(src: &str) -> TriggerSet {
        TriggerSet::from_gdml(&gdml::parse(src).unwrap()).unwrap()
    }

    fn ids(fired: &[(EntityId, String, Action)]) -> Vec<&str> {
        fired.iter().map(|(_, id, _)| id.as_str()).collect()
    }

    const DOOR: &str = r#"
      <triggers>
        <trigger id="boss_door" event="enter_area" x="10" y="10" w="5" h="5">
          <when component="level" op="ge" value="10"/>
          <action kind="set" component="door_open" value="true"/>
          <action kind="emit" event="boss_intro"/>
        </trigger>
      </triggers>"#;

    /// A world with a `level` column and one entity at the origin,
    /// holding `level` when given.
    fn hero(level: Option<i64>) -> (World, EntityId) {
        let mut w = World::new();
        w.define_component("level", ValueType::Int).unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        if let Some(l) = level {
            w.set(e, "level", Value::Int(l)).unwrap();
        }
        (w, e)
    }

    #[test]
    fn enter_area_fires_on_crossing() {
        let (mut w, e) = hero(Some(12));
        let mut runner = TriggerRunner::new(&mut w, &set_from(DOOR));
        // crossing the boundary fires both actions
        w.set_pos(e, Vec2::new(12.0, 12.0)).unwrap();
        let fired = runner.pump(&mut w);
        assert_eq!(ids(&fired), ["boss_door", "boss_door"]);
        assert_eq!(fired[0].0, e);
        assert!(matches!(fired[0].2, Action::Set { .. }));
        assert!(matches!(fired[1].2, Action::Emit { .. }));
        // moving inside->inside does not fire
        w.set_pos(e, Vec2::new(11.0, 11.0)).unwrap();
        assert!(runner.pump(&mut w).is_empty());
    }

    #[test]
    fn guard_blocks_low_level() {
        let (mut w, e) = hero(Some(3));
        let mut runner = TriggerRunner::new(&mut w, &set_from(DOOR));
        w.set_pos(e, Vec2::new(12.0, 12.0)).unwrap();
        assert!(runner.pump(&mut w).is_empty());
    }

    #[test]
    fn missing_component_fails_guard() {
        let (mut w, e) = hero(None);
        let mut runner = TriggerRunner::new(&mut w, &set_from(DOOR));
        w.set_pos(e, Vec2::new(12.0, 12.0)).unwrap();
        assert!(runner.pump(&mut w).is_empty());
    }

    #[test]
    fn exit_area_fires_on_leaving() {
        let set = set_from(
            r#"<triggers>
                 <trigger id="leave" event="exit_area" x="0" y="0" w="10" h="10">
                   <action kind="emit" event="left_zone"/>
                 </trigger>
               </triggers>"#,
        );
        let mut w = World::new();
        let e = w.spawn_at(Vec2::new(5.0, 5.0));
        let mut runner = TriggerRunner::new(&mut w, &set);
        w.set_pos(e, Vec2::new(50.0, 5.0)).unwrap();
        assert_eq!(ids(&runner.pump(&mut w)), ["leave"]);
    }

    #[test]
    fn stat_below_fires_on_downward_crossing_only() {
        let set = set_from(
            r#"<triggers>
                 <trigger id="low_hp" event="stat_below" component="hp" threshold="20">
                   <action kind="run_script" script="flee"/>
                 </trigger>
               </triggers>"#,
        );
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("mana", ValueType::Float).unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        w.set_f32(e, "hp", 25.0).unwrap();
        w.set_f32(e, "mana", 25.0).unwrap();
        let mut runner = TriggerRunner::new(&mut w, &set);
        // crossing down fires
        w.set_f32(e, "hp", 15.0).unwrap();
        assert_eq!(ids(&runner.pump(&mut w)), ["low_hp"]);
        // already below: no re-fire
        w.set_f32(e, "hp", 10.0).unwrap();
        assert!(runner.pump(&mut w).is_empty());
        // different stat: no fire
        w.set_f32(e, "mana", 15.0).unwrap();
        assert!(runner.pump(&mut w).is_empty());
    }

    #[test]
    fn crossings_fire_each_trigger_at_its_own_threshold() {
        let set = set_from(
            r#"<triggers>
                 <trigger id="low" event="stat_below" component="hp" threshold="20">
                   <action kind="emit" event="flee"/>
                 </trigger>
                 <trigger id="critical" event="stat_below" component="hp" threshold="5" once="true">
                   <action kind="emit" event="last_stand"/>
                 </trigger>
               </triggers>"#,
        );
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        w.set_f32(e, "hp", 30.0).unwrap();
        let mut runner = TriggerRunner::new(&mut w, &set);
        // a crossing of the outer threshold only fires the outer trigger
        w.set_f32(e, "hp", 10.0).unwrap();
        assert_eq!(ids(&runner.pump(&mut w)), ["low"]);
        w.set_f32(e, "hp", 2.0).unwrap();
        assert_eq!(ids(&runner.pump(&mut w)), ["critical"]);
        // both crossed again: the once-trigger stays spent
        w.set_f32(e, "hp", 30.0).unwrap();
        assert!(runner.pump(&mut w).is_empty());
        w.set_f32(e, "hp", 2.0).unwrap();
        assert_eq!(ids(&runner.pump(&mut w)), ["low"]);
    }

    #[test]
    fn custom_events_match_by_name() {
        let set = set_from(
            r#"<triggers>
                 <trigger id="chain" event="custom" name="boss_intro">
                   <action kind="spawn" template="boss" x="12" y="12"/>
                 </trigger>
               </triggers>"#,
        );
        let mut w = World::new();
        let e = w.spawn();
        let mut runner = TriggerRunner::new(&mut w, &set);
        assert!(runner.emit(&w, "other", e).is_empty());
        let fired = runner.emit(&w, "boss_intro", e);
        assert_eq!(fired.len(), 1);
        assert!(matches!(&fired[0].2, Action::Spawn { template, .. } if template == "boss"));
    }

    #[test]
    fn timers_fire_per_period_and_catch_up() {
        let set = set_from(
            r#"<triggers>
                 <trigger id="regen" event="timer" period="5">
                   <action kind="emit" event="heal_pulse"/>
                 </trigger>
               </triggers>"#,
        );
        let mut w = World::new();
        let world_entity = w.spawn();
        let mut runner = TriggerRunner::new(&mut w, &set);
        assert!(runner.timers(&w, 4.0, world_entity).is_empty());
        assert_eq!(runner.timers(&w, 1.0, world_entity).len(), 1);
        // a long frame spanning 3 periods fires 3 times
        assert_eq!(runner.timers(&w, 15.0, world_entity).len(), 3);
    }

    #[test]
    fn once_triggers_fire_once() {
        let set = set_from(
            r#"<triggers>
                 <trigger id="chest" event="custom" name="open_chest" once="true">
                   <action kind="emit" event="loot"/>
                 </trigger>
               </triggers>"#,
        );
        let mut w = World::new();
        let e = w.spawn();
        let mut runner = TriggerRunner::new(&mut w, &set);
        assert_eq!(runner.emit(&w, "open_chest", e).len(), 1);
        assert!(runner.emit(&w, "open_chest", e).is_empty());
        // a new play session is a new runner
        let mut runner = TriggerRunner::new(&mut w, &set);
        assert_eq!(runner.emit(&w, "open_chest", e).len(), 1);
    }

    #[test]
    fn string_and_bool_guards() {
        let set = set_from(
            r#"<triggers>
                 <trigger id="vip" event="custom" name="enter">
                   <when component="class" op="eq" value="paladin"/>
                   <when component="alive" op="eq" value="true"/>
                   <action kind="emit" event="fanfare"/>
                 </trigger>
               </triggers>"#,
        );
        let mut w = World::new();
        w.define_component("class", ValueType::Str).unwrap();
        w.define_component("alive", ValueType::Bool).unwrap();
        let mut spawn = |class: &str| {
            let e = w.spawn();
            w.set(e, "class", Value::Str(class.into())).unwrap();
            w.set(e, "alive", Value::Bool(true)).unwrap();
            e
        };
        let (yes, no) = (spawn("paladin"), spawn("rogue"));
        let mut runner = TriggerRunner::new(&mut w, &set);
        assert_eq!(runner.emit(&w, "enter", yes).len(), 1);
        assert!(runner.emit(&w, "enter", no).is_empty());
    }
}
