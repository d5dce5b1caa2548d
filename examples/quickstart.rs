//! Quickstart: the whole pipeline in one file.
//!
//! Designer-authored GDML content → templates → a world database →
//! a designer script (restricted level) → ticks → designer triggers →
//! declarative queries.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gamedb::content::{CmpOp, ContentBundle, Value};
use gamedb::core::{aggregate, AggFn, EffectBuffer, Query, World};
use gamedb::script::{check_library, parse_script, run_script, ExecOptions, Level, ScriptLibrary};
use gamedb::spatial::Vec2;
use gamedb::TriggerRunner;

/// Everything a designer ships: entity templates, triggers, a HUD.
const CONTENT: &str = r#"
<content>
  <templates>
    <template name="monster" tags="hostile">
      <component name="hp" type="float" default="100"/>
      <component name="dmg" type="float" default="5"/>
      <component name="team" type="str" default="mob"/>
      <script>brawl</script>
    </template>
    <template name="goblin" extends="monster" tags="green">
      <component name="hp" type="float" default="40"/>
      <component name="loot" type="str" default="copper"/>
    </template>
    <template name="ogre" extends="monster">
      <component name="hp" type="float" default="250"/>
      <component name="dmg" type="float" default="15"/>
    </template>
  </templates>
  <triggers>
    <trigger id="ogre_dying" event="stat_below" component="hp" threshold="50">
      <action kind="emit" event="ogre_enrage"/>
    </trigger>
    <trigger id="goblin_bloodied" event="stat_below" component="hp" threshold="30">
      <when component="loot" op="eq" value="copper"/>
      <action kind="emit" event="goblin_retreat"/>
    </trigger>
  </triggers>
  <ui>
    <bar name="boss_hp" width="300" height="16" bind="hp" min="0" max="250"
         anchor="top" relative_to="screen" relative_point="top" dy="20"/>
  </ui>
</content>"#;

/// The designer's combat script, in the *restricted* language level: no
/// loops, no recursion — neighborhood logic goes through aggregates.
const BRAWL: &str = r#"
    let enemies = count(6; other.team != self.team);
    let pressure = sum(6; other.dmg; other.team != self.team);
    if enemies > 0 {
        self.hp -= pressure * 0.1;
    }
    if self.hp < 15 {
        move(0 - 2, 0);
        emit "fleeing";
    }
"#;

fn main() {
    // 1. Load and validate the content bundle.
    let bundle = ContentBundle::from_gdml_str(CONTENT).expect("content parses");
    assert!(bundle.validate().is_empty(), "content validates");
    println!(
        "loaded content: {} templates, {} triggers, {} widgets",
        bundle.templates.len(),
        bundle.triggers.len(),
        bundle.ui.widgets.len()
    );

    // 2. Build a world and spawn entities from templates.
    let mut world = World::new();
    let goblin_t = bundle.templates.resolve("goblin").unwrap();
    let ogre_t = bundle.templates.resolve("ogre").unwrap();
    for i in 0..8 {
        let g = world
            .spawn_from_template(&goblin_t, Vec2::new(i as f32 * 2.0, 0.0))
            .unwrap();
        world.set(g, "team", Value::Str("green".into())).unwrap();
    }
    let ogre = world
        .spawn_from_template(&ogre_t, Vec2::new(8.0, 1.0))
        .unwrap();
    println!("spawned {} entities (1 ogre, 8 goblins)", world.len());

    // 3. Type-check the designer script at the restricted level.
    let mut lib = ScriptLibrary::new();
    lib.insert(parse_script("brawl", BRAWL).unwrap());
    let scripts: Vec<_> = lib.iter().cloned().collect();
    let errors = check_library(&scripts, &world, Level::Restricted);
    assert!(errors.is_empty(), "script passes the restricted level: {errors:?}");
    println!("script 'brawl' accepted at the restricted language level");

    // 4. Run ten ticks: each entity runs its script against the
    //    tick-start state; effects apply atomically. After each tick the
    //    trigger runner reads what the tick wrote and fires each stat
    //    trigger for the entities whose hp crossed below its threshold
    //    (goblins spawn at 40, already below `ogre_dying`'s 50: that is
    //    no crossing).
    let mut triggers = TriggerRunner::new(&mut world, &bundle.triggers);
    for tick in 1..=10 {
        let mut buf = EffectBuffer::new();
        let mut events = Vec::new();
        for id in world.entity_vec() {
            let out = run_script(&lib, "brawl", &world, id, &mut buf, ExecOptions::default())
                .unwrap();
            events.extend(out.events);
        }
        buf.apply(&mut world).unwrap();
        if !events.is_empty() {
            println!("tick {tick}: events {events:?}");
        }
        for (entity, trigger, action) in triggers.pump(&mut world) {
            println!("tick {tick}: trigger {trigger} fired on {entity:?}: {action:?}");
        }
    }

    // 5. Ask the world database declarative questions.
    let wounded = Query::select()
        .filter("hp", CmpOp::Lt, Value::Float(30.0))
        .run(&world);
    println!("wounded entities (hp < 30): {}", wounded.len());

    let near_ogre = Query::select()
        .within(world.pos(ogre).unwrap(), 6.0)
        .excluding(ogre)
        .count(&world);
    println!("entities within 6 units of the ogre: {near_ogre}");

    let avg_hp = aggregate(&world, &Query::select(), &AggFn::Avg("hp".into()))
        .as_number()
        .unwrap();
    println!("average hp across the shard: {avg_hp:.1}");

    // 6. Lay out the designer's HUD for a 1080p screen.
    let layout = bundle.ui.layout(1920.0, 1080.0).unwrap();
    let bar = layout["boss_hp"];
    println!(
        "boss hp bar renders at ({:.0},{:.0}) size {:.0}x{:.0}, bound to {:?}",
        bar.x,
        bar.y,
        bar.w,
        bar.h,
        bundle.ui.bound_components()
    );
}
