//! Designer triggers fired from the world's change stream.
//!
//! `gamedb-content` parses a designer's `<trigger>`s; a [`TriggerRunner`]
//! fires them on a live world. The crossing triggers (`stat_below`,
//! `enter_area`, `exit_area`) read one pinned change-stream tap
//! (`gamedb_core::change`), the ordered record sequence the WAL and the
//! replicator drain too, so every write path is seen: scripted ticks,
//! effect batches and direct writes. A `ChangeOp::Set { old, new }` is a
//! database trigger's OLD/NEW row, so the first `old` an entity's watched
//! column shows since the last pump is its value at that pump, and the
//! world holds its value now. A trigger fires for each entity live now
//! whose membership differs between the two; entities nobody wrote are
//! never visited.
//!
//! Membership is `component < threshold` in the engine's `f32` domain for
//! `stat_below`, and `Region::contains` on `pos` for the area triggers.
//! A value the entity did not have counts as outside, so an entity spawned
//! below a threshold or inside a region crosses. A NaN position is on
//! neither side of a region: moving onto one fires neither enter nor exit.
//!
//! Each `<when>` guard compiles once to a core [`Pred`] whose literal is
//! parsed by the column's type, so a guard decides what a query filter
//! decides: a NaN or a type mismatch fails every operator.

use std::collections::BTreeMap;

use gamedb_content::{Action, CmpOp, Condition, EventKind, Trigger, TriggerSet, Value, ValueType};
use gamedb_core::{compare, ChangeOp, EntityId, Pred, TapId, World, POS};

/// One trigger compiled against a world, with its firing state.
#[derive(Debug)]
struct Compiled {
    trigger: Trigger,
    /// `None` for a guard that never holds: its column is undefined, or
    /// its literal parses as neither the column's type nor, for a
    /// numeric column, the other numeric type.
    guards: Vec<Option<Pred>>,
    spent: bool,
    /// Game time since a timer's last whole period.
    elapsed: f32,
}

impl Compiled {
    /// The column a crossing trigger reads; `None` for timers and custom
    /// events.
    fn column(&self) -> Option<&str> {
        match &self.trigger.event {
            EventKind::StatBelow { component, .. } => Some(component),
            EventKind::EnterArea(_) | EventKind::ExitArea(_) => Some(POS),
            EventKind::Timer { .. } | EventKind::Custom(_) => None,
        }
    }

    /// The side of the boundary `value` lies on: `Some(true)` inside,
    /// `Some(false)` outside (no value included), `None` for a NaN
    /// position, which is on neither side.
    fn side(&self, value: Option<&Value>) -> Option<bool> {
        match (&self.trigger.event, value) {
            (EventKind::StatBelow { threshold, .. }, Some(v)) => {
                Some(compare(v, CmpOp::Lt, &Value::Float(*threshold as f32)))
            }
            (EventKind::EnterArea(r) | EventKind::ExitArea(r), Some(&Value::Vec2(x, y))) => {
                (!x.is_nan() && !y.is_nan()).then(|| r.contains(x, y))
            }
            _ => Some(false),
        }
    }

    /// Whether moving from side `before` to side `after` fires.
    fn crosses(&self, before: Option<bool>, after: Option<bool>) -> bool {
        match self.trigger.event {
            EventKind::ExitArea(_) => before == Some(true) && after == Some(false),
            _ => before != Some(true) && after == Some(true),
        }
    }

    fn guards_hold(&self, world: &World, entity: EntityId) -> bool {
        self.guards
            .iter()
            .all(|g| g.as_ref().is_some_and(|p| p.eval(world, entity)))
    }

    /// Push this trigger's actions for `entity` `times` times, unless it
    /// is spent or a guard fails; a once-trigger fires one time at most.
    fn fire(&mut self, world: &World, entity: EntityId, times: u64, out: &mut Vec<Fired>) {
        if self.spent || times == 0 || !self.guards_hold(world, entity) {
            return;
        }
        let t = &self.trigger;
        let times = if t.once { 1 } else { times };
        for _ in 0..times {
            out.extend(t.actions.iter().map(|a| (entity, t.id.clone(), a.clone())));
        }
        self.spent = t.once;
    }
}

/// A requested action: the entity it concerns, the trigger's id, and the
/// action. Applying it is the caller's job.
pub type Fired = (EntityId, String, Action);

/// Compile `c` against the world's catalog: the literal is parsed by the
/// column's type, so a float literal is an `f32`; a numeric literal that
/// does not parse as the column's type is parsed as the other numeric
/// type.
fn compile_guard(world: &World, c: &Condition) -> Option<Pred> {
    let ty = world.component_type(&c.component)?;
    let other = match ty {
        ValueType::Int => Some(ValueType::Float),
        ValueType::Float => Some(ValueType::Int),
        _ => None,
    };
    let value = Value::parse_as(ty, &c.literal)
        .ok()
        .or_else(|| Value::parse_as(other?, &c.literal).ok())?;
    Some(Pred::new(c.component.clone(), c.op, value))
}

/// Fires a [`TriggerSet`] on one world: crossings from the change
/// stream ([`TriggerRunner::pump`]), timers from game time
/// ([`TriggerRunner::timers`]) and custom events by name
/// ([`TriggerRunner::emit`]). Once-only and timer state live here, so a
/// new runner starts a new play session. Not `Clone`: two runners
/// sharing one tap would each consume the other's records.
#[derive(Debug)]
pub struct TriggerRunner {
    triggers: Vec<Compiled>,
    /// Attached when some trigger crosses. Pinned: a missed record would
    /// be a missed crossing, so retention never evicts it.
    tap: Option<TapId>,
}

impl TriggerRunner {
    /// Compile `triggers` against `world`'s catalog. Guards resolve their
    /// columns now. Crossings are counted from here on: an entity already
    /// below a threshold or inside a region does not fire until it
    /// crosses again.
    pub fn new(world: &mut World, triggers: &TriggerSet) -> Self {
        let triggers: Vec<Compiled> = triggers
            .iter()
            .map(|t| Compiled {
                trigger: t.clone(),
                guards: t
                    .conditions
                    .iter()
                    .map(|c| compile_guard(world, c))
                    .collect(),
                spent: false,
                elapsed: 0.0,
            })
            .collect();
        let tap = triggers
            .iter()
            .any(|t| t.column().is_some())
            .then(|| world.attach_tap_pinned());
        TriggerRunner { triggers, tap }
    }

    /// Fire every crossing trigger for each entity, live now, whose
    /// membership changed since the last pump, and consume the tap.
    /// Fires come out in (trigger definition order, entity id) order.
    /// An entity that crossed and crossed back between pumps, or died,
    /// fires nothing.
    pub fn pump(&mut self, world: &mut World) -> Vec<Fired> {
        let Some(tap) = self.tap else {
            return Vec::new();
        };
        let columns: Vec<_> = self
            .triggers
            .iter()
            .map(|t| world.component_id(t.column()?))
            .collect();
        // each watched column's value, per entity, at the last pump
        let mut before = BTreeMap::new();
        for change in world.tap_pending(tap) {
            let (id, component, old) = match &change.op {
                ChangeOp::Set {
                    id, component, old, ..
                } => (*id, *component, old.as_ref()),
                ChangeOp::Removed { id, component, old } => (*id, *component, Some(old)),
                _ => continue,
            };
            if columns.contains(&Some(component)) {
                before
                    .entry(component)
                    .or_insert_with(BTreeMap::new)
                    .entry(id)
                    .or_insert_with(|| old.cloned());
            }
        }
        world.ack_tap(tap);

        let world = &*world;
        let mut fired = Vec::new();
        for (t, column) in self.triggers.iter_mut().zip(columns) {
            let (Some(name), Some(rows)) = (t.column(), column.and_then(|c| before.get(&c))) else {
                continue;
            };
            let crossed: Vec<EntityId> = rows
                .iter()
                .filter(|&(&e, old)| {
                    let now = world.get(e, name);
                    world.is_live(e) && t.crosses(t.side(old.as_ref()), t.side(now.as_ref()))
                })
                .map(|(&e, _)| e)
                .collect();
            for e in crossed {
                t.fire(world, e, 1, &mut fired);
            }
        }
        fired
    }

    /// Advance game time by `dt` seconds and fire each timer once per
    /// whole period elapsed, its guards read on `subject` (a "world"
    /// entity for global timers) once per call. The remainder carries
    /// over to the next call.
    pub fn timers(&mut self, world: &World, dt: f32, subject: EntityId) -> Vec<Fired> {
        let mut fired = Vec::new();
        for t in &mut self.triggers {
            let EventKind::Timer { period } = t.trigger.event else {
                continue;
            };
            if t.spent {
                continue;
            }
            // one division: repeated subtraction stalls once a period is
            // below the accumulator's ulp
            t.elapsed += dt;
            let rest = t.elapsed % period;
            let periods = ((t.elapsed - rest) / period).round() as u64;
            t.elapsed = rest;
            t.fire(world, subject, periods, &mut fired);
        }
        fired
    }

    /// Fire every `custom` trigger listening for `name` on `entity`.
    pub fn emit(&mut self, world: &World, name: &str, entity: EntityId) -> Vec<Fired> {
        let mut fired = Vec::new();
        for t in &mut self.triggers {
            if matches!(&t.trigger.event, EventKind::Custom(n) if n == name) {
                t.fire(world, entity, 1, &mut fired);
            }
        }
        fired
    }

    /// Detach the change-stream tap. A pinned tap is never evicted, so a
    /// runner dropped without this keeps every later record retained.
    pub fn release(self, world: &mut World) {
        if let Some(tap) = self.tap {
            world.detach_tap(tap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamedb_content::gdml;
    use gamedb_spatial::Vec2;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const TRIGGERS: &str = r#"
      <triggers>
        <trigger id="low_hp" event="stat_below" component="hp" threshold="20">
          <action kind="run_script" script="flee"/>
        </trigger>
        <trigger id="critical_hp" event="stat_below" component="hp" threshold="5">
          <action kind="emit" event="last_stand"/>
        </trigger>
        <trigger id="oom" event="stat_below" component="mana" threshold="10">
          <when component="class" op="eq" value="mage"/>
          <action kind="emit" event="drink_potion"/>
        </trigger>
        <trigger id="door" event="enter_area" x="0" y="0" w="5" h="5">
          <action kind="emit" event="creak"/>
        </trigger>
      </triggers>"#;

    fn parse(src: &str) -> TriggerSet {
        TriggerSet::from_gdml(&gdml::parse(src).unwrap()).unwrap()
    }

    fn arena() -> (World, Vec<EntityId>) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("mana", ValueType::Float).unwrap();
        w.define_component("class", ValueType::Str).unwrap();
        let mut ids = Vec::new();
        for i in 0..4 {
            let e = w.spawn_at(Vec2::new(i as f32 * 10.0, 0.0));
            w.set_f32(e, "hp", 100.0).unwrap();
            w.set_f32(e, "mana", 50.0).unwrap();
            w.set(
                e,
                "class",
                Value::Str(if i % 2 == 0 { "mage" } else { "rogue" }.into()),
            )
            .unwrap();
            ids.push(e);
        }
        (w, ids)
    }

    /// The polling oracle: at every poll, read each live entity's
    /// membership for every crossing trigger and compare it with what it
    /// read at the previous poll (primed at registration; an entity not
    /// seen then was outside). Guards and once-triggers apply as in the
    /// runner.
    struct Poller {
        triggers: Vec<Trigger>,
        guards: Vec<Vec<Option<Pred>>>,
        spent: Vec<bool>,
        last: HashMap<(usize, EntityId), Option<bool>>,
    }

    impl Poller {
        fn new(world: &World, set: &TriggerSet) -> Self {
            let triggers: Vec<Trigger> = set.iter().cloned().collect();
            let guards = triggers
                .iter()
                .map(|t| {
                    t.conditions
                        .iter()
                        .map(|c| compile_guard(world, c))
                        .collect()
                })
                .collect();
            let mut poller = Poller {
                spent: vec![false; triggers.len()],
                triggers,
                guards,
                last: HashMap::new(),
            };
            poller.last = poller.read(world);
            poller
        }

        /// Inside `Some(true)`, outside `Some(false)`, a NaN position
        /// `None`; `None` for a trigger that does not cross.
        fn member(t: &Trigger, world: &World, e: EntityId) -> Option<Option<bool>> {
            Some(match &t.event {
                EventKind::StatBelow {
                    component,
                    threshold,
                } => Some(
                    world
                        .get_number(e, component)
                        .is_some_and(|v| v < f64::from(*threshold as f32)),
                ),
                EventKind::EnterArea(r) | EventKind::ExitArea(r) => match world.pos(e) {
                    Some(p) if p.x.is_nan() || p.y.is_nan() => None,
                    Some(p) => Some(r.contains(p.x, p.y)),
                    None => Some(false),
                },
                EventKind::Timer { .. } | EventKind::Custom(_) => return None,
            })
        }

        fn live(world: &World) -> Vec<EntityId> {
            let mut live = world.entity_vec();
            live.sort();
            live
        }

        fn read(&self, world: &World) -> HashMap<(usize, EntityId), Option<bool>> {
            let mut now = HashMap::new();
            for (i, t) in self.triggers.iter().enumerate() {
                for e in Self::live(world) {
                    if let Some(m) = Self::member(t, world, e) {
                        now.insert((i, e), m);
                    }
                }
            }
            now
        }

        fn poll(&mut self, world: &World) -> Vec<Fired> {
            let now = self.read(world);
            let mut out = Vec::new();
            for (i, t) in self.triggers.iter().enumerate() {
                for e in Self::live(world) {
                    let Some(&after) = now.get(&(i, e)) else {
                        continue;
                    };
                    let before = self.last.get(&(i, e)).copied().unwrap_or(Some(false));
                    let crossed = match t.event {
                        EventKind::ExitArea(_) => before == Some(true) && after == Some(false),
                        _ => before != Some(true) && after == Some(true),
                    };
                    let guards = self.guards[i]
                        .iter()
                        .all(|g| g.as_ref().is_some_and(|p| p.eval(world, e)));
                    if crossed && !self.spent[i] && guards {
                        out.extend(t.actions.iter().map(|a| (e, t.id.clone(), a.clone())));
                        self.spent[i] = t.once;
                    }
                }
            }
            self.last = now;
            out
        }
    }

    fn fired_keys(fired: &[Fired]) -> Vec<(EntityId, String)> {
        let mut keys: Vec<_> = fired.iter().map(|(e, id, _)| (*e, id.clone())).collect();
        keys.sort();
        keys
    }

    #[test]
    fn watcher_fires_on_downward_crossings_only() {
        let (mut w, ids) = arena();
        let mut runner = TriggerRunner::new(&mut w, &parse(TRIGGERS));

        // drop ids[0] across both hp thresholds in one tick
        w.set_f32(ids[0], "hp", 2.0).unwrap();
        // ids[1] crosses only the outer threshold
        w.set_f32(ids[1], "hp", 15.0).unwrap();
        // ids[2] (a mage) runs out of mana
        w.set_f32(ids[2], "mana", 3.0).unwrap();
        // ids[3] (a rogue) also runs dry — the class guard must block it
        w.set_f32(ids[3], "mana", 3.0).unwrap();
        let fired = runner.pump(&mut w);
        assert_eq!(
            fired_keys(&fired),
            vec![
                (ids[0], "critical_hp".to_string()),
                (ids[0], "low_hp".to_string()),
                (ids[1], "low_hp".to_string()),
                (ids[2], "oom".to_string()),
            ]
        );

        // already below: further drops fire nothing
        w.set_f32(ids[0], "hp", 1.0).unwrap();
        assert!(runner.pump(&mut w).is_empty());

        // recover above, then cross again: fires again
        w.set_f32(ids[0], "hp", 50.0).unwrap();
        runner.pump(&mut w);
        w.set_f32(ids[0], "hp", 10.0).unwrap();
        let fired = runner.pump(&mut w);
        assert_eq!(fired_keys(&fired), vec![(ids[0], "low_hp".to_string())]);
        runner.release(&mut w);
    }

    /// The change-stream runner fires exactly what the per-entity poller
    /// fires, pump for pump, over a scripted workload of writes on live
    /// entities.
    #[test]
    fn watcher_equals_polling_driver() {
        let (mut w_tap, ids_t) = arena();
        let (mut w_poll, ids_p) = arena();
        let mut runner = TriggerRunner::new(&mut w_tap, &parse(TRIGGERS));
        let mut poller = Poller::new(&w_poll, &parse(TRIGGERS));

        let script: Vec<Vec<(usize, &str, f32)>> = vec![
            vec![(0, "hp", 18.0), (1, "mana", 5.0)],
            vec![(0, "hp", 3.0)],   // second threshold
            vec![(0, "hp", 3.0)],   // no change: silence
            vec![(2, "mana", 9.0)], // mage oom
            vec![(0, "hp", 90.0)],  // recovery: silence
            vec![(0, "hp", 19.5), (3, "hp", 1.0)],
        ];
        for (tick, writes) in script.iter().enumerate() {
            for &(i, comp, v) in writes {
                w_tap.set_f32(ids_t[i], comp, v).unwrap();
                w_poll.set_f32(ids_p[i], comp, v).unwrap();
            }
            let from_tap = fired_keys(&runner.pump(&mut w_tap));
            let from_poll = fired_keys(&poller.poll(&w_poll));
            assert_eq!(from_tap, from_poll, "tick {tick}");
        }
    }

    #[test]
    fn spawning_below_threshold_counts_as_entering() {
        let (mut w, _) = arena();
        let mut runner = TriggerRunner::new(&mut w, &parse(TRIGGERS));
        let newborn = w.spawn_at(Vec2::new(50.0, 50.0));
        w.set_f32(newborn, "hp", 1.0).unwrap();
        let fired = runner.pump(&mut w);
        assert_eq!(
            fired_keys(&fired),
            vec![
                (newborn, "critical_hp".to_string()),
                (newborn, "low_hp".to_string()),
            ],
            "a value the entity did not have counts as outside"
        );
    }

    #[test]
    fn crossings_resolved_by_pump_time_do_not_fire() {
        let (mut w, ids) = arena();
        let mut runner = TriggerRunner::new(&mut w, &parse(TRIGGERS));
        // crossed below, then despawned before the pump
        w.set_f32(ids[0], "hp", 1.0).unwrap();
        w.despawn(ids[0]);
        // crossed below, then recovered before the pump
        w.set_f32(ids[1], "hp", 1.0).unwrap();
        w.set_f32(ids[1], "hp", 80.0).unwrap();
        // crossed below, then lost the component before the pump
        w.set_f32(ids[2], "hp", 1.0).unwrap();
        w.remove_component(ids[2], "hp").unwrap();
        assert!(
            runner.pump(&mut w).is_empty(),
            "dead or recovered entities must not fire"
        );
    }

    #[test]
    fn preexisting_rows_are_not_crossings() {
        let (mut w, ids) = arena();
        w.set_f32(ids[0], "hp", 1.0).unwrap();
        // registered after the drop, and ids[0] stands inside the door
        let mut runner = TriggerRunner::new(&mut w, &parse(TRIGGERS));
        assert!(runner.pump(&mut w).is_empty());
    }

    /// NaN is unordered: a NaN stat fails every guard operator, `ne`
    /// included, and a NaN position is on neither side of a region.
    #[test]
    fn nan_guards_and_positions_never_fire() {
        let set = parse(
            r#"<triggers>
                 <trigger id="lt" event="custom" name="check">
                   <when component="hp" op="lt" value="10"/>
                   <action kind="emit" event="lt"/>
                 </trigger>
                 <trigger id="ne" event="custom" name="check">
                   <when component="hp" op="ne" value="10"/>
                   <action kind="emit" event="ne"/>
                 </trigger>
                 <trigger id="in" event="enter_area" x="0" y="0" w="10" h="10">
                   <action kind="emit" event="in"/>
                 </trigger>
                 <trigger id="out" event="exit_area" x="0" y="0" w="10" h="10">
                   <action kind="emit" event="out"/>
                 </trigger>
               </triggers>"#,
        );
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let inside = w.spawn_at(Vec2::new(5.0, 5.0));
        let outside = w.spawn_at(Vec2::new(50.0, 5.0));
        w.set_f32(inside, "hp", f32::NAN).unwrap();
        let mut runner = TriggerRunner::new(&mut w, &set);
        assert!(runner.emit(&w, "check", inside).is_empty());

        w.set_pos(inside, Vec2::new(f32::NAN, 5.0)).unwrap();
        w.set_pos(outside, Vec2::new(5.0, f32::NAN)).unwrap();
        assert!(runner.pump(&mut w).is_empty(), "no exit, no enter");
        // from NaN onto a real point inside is an entry
        w.set_pos(outside, Vec2::new(5.0, 5.0)).unwrap();
        assert_eq!(
            fired_keys(&runner.pump(&mut w)),
            vec![(outside, "in".to_string())]
        );
    }

    #[test]
    fn timers_catch_up_in_one_division() {
        let set = parse(
            r#"<triggers>
                 <trigger id="regen" event="timer" period="5">
                   <when component="hp" op="gt" value="0"/>
                   <action kind="emit" event="heal_pulse"/>
                 </trigger>
                 <trigger id="dawn" event="timer" period="5" once="true">
                   <action kind="emit" event="sunrise"/>
                 </trigger>
               </triggers>"#,
        );
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let subject = w.spawn();
        let mut runner = TriggerRunner::new(&mut w, &set);
        // 3e8 - 5 == 3e8 in f32: a subtract loop would never end; the
        // failing guard is read once, the once-timer fires once
        let fired = runner.timers(&w, 3e8, subject);
        assert_eq!(fired_keys(&fired), vec![(subject, "dawn".to_string())]);
        assert!(runner.timers(&w, 3e8, subject).is_empty());
        // the remainder carries over
        w.set_f32(subject, "hp", 1.0).unwrap();
        assert!(runner.timers(&w, 2.5, subject).is_empty());
        assert_eq!(runner.timers(&w, 2.5, subject).len(), 1);
    }

    /// Guards compare in the engine's value domain: the literal is parsed
    /// by the column's type (a float literal is an `f32`), a numeric
    /// literal that is not the column's type is read as the other numeric
    /// type, and an undefined column or an unparseable literal never
    /// holds.
    #[test]
    fn guards_compare_in_the_engine_value_domain() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("level", ValueType::Int).unwrap();
        let e = w.spawn();
        w.set_f32(e, "hp", 0.1).unwrap();
        w.set(e, "level", Value::Int(3)).unwrap();
        let holds = |w: &mut World, component: &str, op: &str, literal: &str| {
            let set = parse(&format!(
                r#"<triggers><trigger id="g" event="custom" name="go">
                     <when component="{component}" op="{op}" value="{literal}"/>
                     <action kind="emit" event="ok"/>
                   </trigger></triggers>"#
            ));
            let mut runner = TriggerRunner::new(w, &set);
            !runner.emit(w, "go", e).is_empty()
        };
        assert!(
            holds(&mut w, "hp", "eq", "0.1"),
            "0.1 is the f32 nearest 0.1"
        );
        assert!(
            holds(&mut w, "level", "gt", "2.5"),
            "an int column takes a float literal"
        );
        assert!(!holds(&mut w, "level", "ge", "3.5"));
        assert!(
            holds(&mut w, "level", "lt", "1e19"),
            "past i64, read as a float"
        );
        assert!(!holds(&mut w, "mana", "ne", "1"), "undefined column");
        assert!(!holds(&mut w, "hp", "ne", "lots"), "unparseable literal");
    }

    proptest! {
        // 64 cases by default; CI's `triggers` step runs 256 through
        // PROPTEST_CASES
        #![proptest_config(ProptestConfig::default())]

        /// The runner equals the polling oracle on every pump, fires and
        /// their order included, over generated writes through
        /// `set`/`set_pos` and `apply_batch`: moves and teleports across
        /// the region's edges, stat writes on a float and an int column,
        /// spawns inside the region or below a threshold, despawns,
        /// component and position removals, NaN values and positions,
        /// guards, once-triggers and a random pump cadence.
        #[test]
        fn trigger_runner_equals_polling_oracle(
            ops in proptest::collection::vec((0u8..11, 0usize..12, 0usize..12, 0usize..12), 1..80),
        ) {
            const STATS: [f32; 12] =
                [-3.0, 0.0, 4.5, 5.0, 9.0, 10.0, 10.5, 11.0, 19.5, 20.0, 80.0, f32::NAN];
            const COORDS: [f32; 12] =
                [-20.0, -0.0, 0.0, 0.5, 4.99, 5.0, 9.5, 10.0, 10.01, 40.0, 1e9, f32::NAN];
            let set = parse(
                r#"<triggers>
                     <trigger id="low" event="stat_below" component="hp" threshold="10">
                       <action kind="emit" event="flee"/>
                     </trigger>
                     <trigger id="last" event="stat_below" component="hp" threshold="5" once="true">
                       <when component="class" op="eq" value="mage"/>
                       <action kind="emit" event="last_stand"/>
                     </trigger>
                     <trigger id="broke" event="stat_below" component="gold" threshold="10.5">
                       <action kind="emit" event="beg"/>
                     </trigger>
                     <trigger id="enter" event="enter_area" x="0" y="0" w="10" h="10">
                       <when component="hp" op="ge" value="10"/>
                       <action kind="emit" event="welcome"/>
                       <action kind="set" component="class" value="guest"/>
                     </trigger>
                     <trigger id="leave" event="exit_area" x="0" y="0" w="10" h="10">
                       <action kind="emit" event="bye"/>
                     </trigger>
                     <trigger id="corner" event="exit_area" x="-1" y="-1" w="2" h="2" once="true">
                       <action kind="emit" event="corner"/>
                     </trigger>
                     <trigger id="ghost" event="enter_area" x="0" y="0" w="10" h="10">
                       <when component="aura" op="eq" value="1"/>
                       <action kind="emit" event="never"/>
                     </trigger>
                   </triggers>"#,
            );
            let mut w = World::new();
            w.define_component("hp", ValueType::Float).unwrap();
            w.define_component("gold", ValueType::Int).unwrap();
            w.define_component("class", ValueType::Str).unwrap();
            let mut ids = Vec::new();
            for i in 0..6 {
                // some start inside the region or below a threshold
                let e = w.spawn_at(Vec2::new(i as f32 * 4.0, 1.0));
                w.set_f32(e, "hp", STATS[i * 2]).unwrap();
                w.set(e, "gold", Value::Int(i as i64 * 4)).unwrap();
                let class = if i % 2 == 0 { "mage" } else { "rogue" };
                w.set(e, "class", Value::Str(class.into())).unwrap();
                ids.push(e);
            }
            let mut runner = TriggerRunner::new(&mut w, &set);
            let mut poller = Poller::new(&w, &set);
            for (step, &(kind, who, a, b)) in ops.iter().enumerate() {
                let e = ids[who % ids.len()];
                let at = Vec2::new(COORDS[a], COORDS[b]);
                // writes to dead entities fail; they are part of the mix
                match kind {
                    0 | 1 => { let _ = w.set_f32(e, "hp", STATS[a]); }
                    2 => { let _ = w.set(e, "gold", Value::Int(STATS[a] as i64)); }
                    3 | 4 => { let _ = w.set_pos(e, at); }
                    5 => {
                        let spawned = w.spawn_at(at);
                        w.set_f32(spawned, "hp", STATS[b]).unwrap();
                        ids.push(spawned);
                    }
                    6 => { w.despawn(e); }
                    7 => {
                        let column = if b % 2 == 0 { "hp" } else { POS };
                        let _ = w.remove_component(e, column);
                    }
                    8 => {
                        let class = if a % 2 == 0 { "mage" } else { "rogue" };
                        let _ = w.set(e, "class", Value::Str(class.into()));
                    }
                    9 => {
                        let mut batch = gamedb_core::WriteBatch::new();
                        batch.set_pos(e, at);
                        batch.set(e, "hp", Value::Float(STATS[b]));
                        let _ = w.apply_batch(batch);
                    }
                    _ => {
                        let tapped = runner.pump(&mut w);
                        let polled = poller.poll(&w);
                        prop_assert_eq!(tapped, polled, "pump at step {}", step);
                    }
                }
            }
            prop_assert_eq!(runner.pump(&mut w), poller.poll(&w), "final pump");
        }
    }
}
