//! The script engine: the one-stop API a game embeds.
//!
//! [`ScriptEngine`] owns the script library, enforces a language level at
//! load time, lowers every loaded script to bytecode (refusing at load a
//! script the VM cannot hold), binds scripts to entities via a component,
//! and drives whole-world ticks — the piece that turns the lower-level
//! modules into the "custom scripting language runtime" a studio would
//! actually ship.
//!
//! The register VM is the only executor; the tree-walking interpreter is
//! the oracle the tests hold it to. Binding is name-free: `bind`
//! pre-resolves the script to a prepared program, and the tick revives
//! that program from a per-entity cache without hashing the script name.
//! A tick then groups the bound entities by program, in id order, and
//! runs each group set-at-a-time ([`Vm::run_set`]).

use std::collections::HashMap;
use std::time::Instant;

use gamedb_content::{Value, ValueType};
use gamedb_core::{EffectBuffer, EntityId, World};
use gamedb_metrics::MetricsRegistry;

use crate::interp::{ExecOptions, RuntimeError, ScriptLibrary};
use crate::metrics::ScriptMetrics;
use crate::parser::{parse_script, ParseError};
use crate::types::{check_library, Level, TypeError};
use crate::vm::{compile_program, CompileError, Program, Vm, VmCounts};

/// Component that names the script an entity runs each tick.
pub const SCRIPT_COMPONENT: &str = "script";

/// Errors loading scripts into the engine.
#[derive(Debug)]
pub enum EngineError {
    Parse(ParseError),
    Check(Vec<TypeError>),
    /// A script of the library, with this load, does not lower to
    /// bytecode (it is past one of the VM's fixed limits).
    Compile { script: String, error: CompileError },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "parse: {e}"),
            EngineError::Check(errs) => {
                write!(f, "{} type error(s); first: {}", errs.len(), errs[0])
            }
            EngineError::Compile { script, error } => write!(f, "compile '{script}': {error}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Statistics from one engine tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineTickStats {
    /// Entities that ran a script.
    pub scripts_run: usize,
    /// Events emitted by scripts, in deterministic (entity, order) order.
    pub events: Vec<(EntityId, String)>,
}

/// Sentinel for an empty per-entity cache slot.
const NO_SLOT: (u64, u32) = (u64::MAX, u32::MAX);

/// The embedded scripting runtime.
pub struct ScriptEngine {
    lib: ScriptLibrary,
    level: Level,
    opts: ExecOptions,
    optimize: bool,
    /// One program per loaded script, lowered at load and re-lowered
    /// when a world's schema or the call depth no longer matches it.
    programs: Vec<Program>,
    by_name: HashMap<String, u32>,
    /// `entity slot → (entity bits, program index)`: the per-binding
    /// cache that makes tick dispatch hash-free.
    slot_cache: Vec<(u64, u32)>,
    /// Per program, the entities bound to it this tick, in id order
    /// (capacity kept across ticks).
    groups: Vec<Vec<EntityId>>,
    vm: Vm,
    /// The VM's work during the last [`ScriptEngine::run_tick`].
    counts: VmCounts,
    /// Instrumentation handles ([`ScriptEngine::attach_metrics`]).
    metrics: Option<ScriptMetrics>,
}

impl ScriptEngine {
    /// Engine enforcing a language level on every loaded script.
    pub fn new(level: Level) -> Self {
        ScriptEngine {
            lib: ScriptLibrary::new(),
            level,
            opts: ExecOptions::default(),
            optimize: false,
            programs: Vec::new(),
            by_name: HashMap::new(),
            slot_cache: Vec::new(),
            groups: Vec::new(),
            vm: Vm::new(),
            counts: VmCounts::default(),
            metrics: None,
        }
    }

    /// Attach a metrics registry: scripted ticks, per-entity runs, VM
    /// instruction/compile totals, and effect-batch sizes are reported
    /// into `registry` from here on. Purely observational.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(ScriptMetrics::new(registry));
    }

    /// Detach the registry attached by
    /// [`ScriptEngine::attach_metrics`].
    pub fn detach_metrics(&mut self) {
        self.metrics = None;
    }

    /// Override execution options (index usage, fuel, call depth).
    /// Programs lowered for another call depth are re-lowered when next
    /// bound or run.
    pub fn with_options(mut self, opts: ExecOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Run the AST optimizer on every loaded script (constant folding,
    /// dead-code elimination, foreach-to-aggregate rewriting). Scripts
    /// are checked *before* optimization, so the enforced level applies
    /// to what the designer wrote, not to what the optimizer made of it.
    pub fn with_optimizer(mut self) -> Self {
        self.optimize = true;
        self
    }

    /// The enforced language level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// The loaded scripts, as stored (after the optimizer, if enabled).
    pub fn library(&self) -> &ScriptLibrary {
        &self.lib
    }

    /// Number of loaded scripts.
    pub fn len(&self) -> usize {
        self.lib.len()
    }

    /// True when no scripts are loaded.
    pub fn is_empty(&self) -> bool {
        self.lib.is_empty()
    }

    /// Parse, type-check (at the engine's level, against the world
    /// schema), and load a script, lowering the whole library again —
    /// a script may now call the new one. All-or-nothing: on any error
    /// the library is left as it was.
    pub fn load(&mut self, name: &str, source: &str, world: &World) -> Result<(), EngineError> {
        let script = parse_script(name, source).map_err(EngineError::Parse)?;
        // check the new script together with the existing library so call
        // graphs (and restricted-level recursion) are validated globally
        let mut all: Vec<_> = self.lib.iter().cloned().collect();
        all.retain(|s| s.name != name);
        all.push(script.clone());
        let errors = check_library(&all, world, self.level);
        if !errors.is_empty() {
            return Err(EngineError::Check(errors));
        }
        let script = if self.optimize {
            crate::optimize::optimize(&script).0
        } else {
            script
        };
        let mut lib = self.lib.clone();
        lib.insert(script);
        let programs = lib
            .iter()
            .map(|s| {
                self.lower(&lib, &s.name, world)
                    .map_err(|error| EngineError::Compile {
                        script: s.name.clone(),
                        error,
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.by_name = programs
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name().to_string(), i as u32))
            .collect();
        self.programs = programs;
        self.slot_cache.clear();
        self.lib = lib;
        Ok(())
    }

    /// Ensure the world can bind scripts to entities.
    pub fn ensure_binding_component(&self, world: &mut World) {
        if world.component_type(SCRIPT_COMPONENT).is_none() {
            world
                .define_component(SCRIPT_COMPONENT, ValueType::Str)
                .expect("script component type is str");
        }
    }

    /// Bind `entity` to run `script` each tick. The script's program is
    /// made to fit `world` here (a schema it does not fit fails with
    /// [`RuntimeError::TypeError`]), so the tick path only revives a
    /// cached slot.
    pub fn bind(
        &mut self,
        world: &mut World,
        entity: EntityId,
        script: &str,
    ) -> Result<(), RuntimeError> {
        let idx = self.prepare(script, world)?;
        world
            .set(entity, SCRIPT_COMPONENT, Value::Str(script.to_string()))
            .map_err(|e| RuntimeError::TypeError(e.to_string()))?;
        self.cache_store(entity, idx);
        Ok(())
    }

    /// Resolve a script name to its program's index, the program fitted
    /// to `world`.
    fn prepare(&mut self, name: &str, world: &World) -> Result<u32, RuntimeError> {
        let idx = *self
            .by_name
            .get(name)
            .ok_or_else(|| RuntimeError::UnknownScript(name.to_string()))?;
        self.revalidate(idx as usize, world)?;
        Ok(idx)
    }

    fn lower(&self, lib: &ScriptLibrary, name: &str, world: &World) -> Result<Program, CompileError> {
        let p = compile_program(lib, name, world, self.opts)?;
        if let Some(m) = &self.metrics {
            m.vm_compiles.inc();
        }
        Ok(p)
    }

    /// Re-lower program `idx` if its baked-in column ids or types no
    /// longer match the world (cross-world reuse), or it was lowered for
    /// another call depth. Cheap: a name and type check per component.
    /// A world the script does not fit fails with the compile message.
    fn revalidate(&mut self, idx: usize, world: &World) -> Result<(), RuntimeError> {
        let p = &self.programs[idx];
        if !p.validate_schema(world) || p.call_depth() != self.opts.max_call_depth {
            self.programs[idx] = self
                .lower(&self.lib, p.name(), world)
                .map_err(|e| RuntimeError::TypeError(e.to_string()))?;
        }
        Ok(())
    }

    fn cache_store(&mut self, entity: EntityId, idx: u32) {
        let slot = entity.index() as usize;
        if self.slot_cache.len() <= slot {
            self.slot_cache.resize(slot + 1, NO_SLOT);
        }
        self.slot_cache[slot] = (entity.to_bits(), idx);
    }

    fn cache_get(&self, entity: EntityId, name: &str) -> Option<u32> {
        let &(bits, idx) = self.slot_cache.get(entity.index() as usize)?;
        if bits != entity.to_bits() {
            return None;
        }
        // rebinding writes the component without going through `bind`
        // (e.g. snapshot restore): verify the cached slot still names
        // the bound script — a memcmp, not a hash
        let p = self.programs.get(idx as usize)?;
        (p.name() == name).then_some(idx)
    }

    /// Run one script for one entity.
    pub fn run_one(
        &mut self,
        world: &World,
        entity: EntityId,
        script: &str,
        buf: &mut EffectBuffer,
    ) -> Result<Vec<String>, RuntimeError> {
        let idx = self.prepare(script, world)? as usize;
        self.vm.run(&self.programs[idx], world, entity, buf, self.opts)
    }

    /// Run one tick: every entity bound via the `script` component runs
    /// its script against the tick-start state ([`ScriptEngine::run_tick`]);
    /// the merged effect buffer then commits as **one batch** through
    /// `World::apply_batch` — every slot one final write, one
    /// change-stream segment. Run against a `WalStore::world_mut()`
    /// world, the whole scripted tick becomes durable with a single
    /// group-commit WAL frame (pair with `WalStore::commit`). A tick
    /// whose scripts fail applies nothing.
    pub fn tick(&mut self, world: &mut World) -> Result<EngineTickStats, RuntimeError> {
        let started = Instant::now();
        let mut buf = EffectBuffer::new();
        let stats = self.run_tick(world, &mut buf)?;
        let effects = buf.len() as u64;
        let ran = Instant::now();
        let applied = buf.apply(world);
        if let Some(m) = &self.metrics {
            let c = self.counts;
            m.ticks.inc();
            m.scripts_run.add(stats.scripts_run as u64);
            m.vm_instrs.add(c.instrs);
            m.vm_dispatches.add(c.dispatches);
            m.probes.add(c.probes);
            m.probe_rows.add(c.probe_rows);
            m.events.add(stats.events.len() as u64);
            m.tick_effects.observe(effects);
            m.vm_us.observe((ran - started).as_micros() as u64);
            m.apply_us.observe(ran.elapsed().as_micros() as u64);
        }
        applied.map_err(|e| RuntimeError::TypeError(e.to_string()))?;
        Ok(stats)
    }

    /// The run phase of [`ScriptEngine::tick`]: every bound entity runs
    /// its script against `world`, and the effects land in `buf`;
    /// nothing is applied. The bound entities are grouped by program, in
    /// id order, and each group runs set-at-a-time.
    ///
    /// The outcome is a per-entity loop's in every respect but one: the
    /// order in which different entities' effects land in `buf`, which
    /// `EffectBuffer::apply` canonicalises. Events come back in (entity,
    /// order) order, and the error is the first failing entity's, in id
    /// order — a program that does not fit `world` fails at its group's
    /// first entity.
    pub fn run_tick(
        &mut self,
        world: &World,
        buf: &mut EffectBuffer,
    ) -> Result<EngineTickStats, RuntimeError> {
        let result = self.run_bound(world, buf);
        // drained on both paths: an aborted tick's instructions and
        // probes must not be reported under the next tick
        self.counts = self.vm.take_counts();
        result
    }

    fn run_bound(
        &mut self,
        world: &World,
        buf: &mut EffectBuffer,
    ) -> Result<EngineTickStats, RuntimeError> {
        let mut stats = EngineTickStats::default();
        let Some(script_cid) = world.component_id(SCRIPT_COMPONENT) else {
            return Ok(stats);
        };
        for g in &mut self.groups {
            g.clear();
        }
        // (entity, error) of the first failure in id order; entities
        // after it cannot change the outcome, so the walk stops there
        let mut failure: Option<(EntityId, RuntimeError)> = None;
        for entity in world.entities() {
            let Some(name) = world.get_str_by_id(entity, script_cid) else {
                continue;
            };
            if name.is_empty() {
                continue;
            }
            let idx = match self.cache_get(entity, name) {
                Some(i) => i,
                None => match self.by_name.get(name) {
                    Some(&i) => {
                        self.cache_store(entity, i);
                        i
                    }
                    None => {
                        failure = Some((entity, RuntimeError::UnknownScript(name.to_string())));
                        break;
                    }
                },
            } as usize;
            if self.groups.len() <= idx {
                self.groups.resize_with(idx + 1, Vec::new);
            }
            self.groups[idx].push(entity);
        }
        let mut events = Vec::new();
        for idx in 0..self.groups.len() {
            let Some(&first) = self.groups[idx].first() else {
                continue;
            };
            let result = match self.revalidate(idx, world) {
                Err(e) => Err((first, e)),
                Ok(()) => {
                    let (p, ids) = (&self.programs[idx], &self.groups[idx]);
                    let mut group_events = Vec::new();
                    let result = self.vm.run_set(p, world, ids, buf, self.opts, &mut group_events);
                    events.extend(group_events.into_iter().map(|(i, e)| (ids[i], e)));
                    stats.scripts_run += ids.len();
                    result.map_err(|(i, e)| (ids[i], e))
                }
            };
            if let Err((id, e)) = result {
                if failure.as_ref().is_none_or(|(f, _)| id.index() < f.index()) {
                    failure = Some((id, e));
                }
            }
        }
        if let Some((_, e)) = failure {
            return Err(e);
        }
        // stable: each entity's events keep their order
        events.sort_by_key(|(id, _): &(EntityId, String)| id.index());
        stats.events = events;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamedb_spatial::Vec2;

    fn world() -> World {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        w
    }

    #[test]
    fn load_checks_at_engine_level() {
        let w = world();
        let mut restricted = ScriptEngine::new(Level::Restricted);
        let err = restricted
            .load("bad", "foreach within (5) { other.hp -= 1; }", &w)
            .unwrap_err();
        assert!(matches!(err, EngineError::Check(_)));
        assert!(restricted.is_empty());

        let mut full = ScriptEngine::new(Level::Full);
        full.load("ok", "foreach within (5) { other.hp -= 1; }", &w)
            .unwrap();
        assert_eq!(full.len(), 1);
    }

    #[test]
    fn load_rejects_parse_errors() {
        let w = world();
        let mut e = ScriptEngine::new(Level::Full);
        assert!(matches!(
            e.load("oops", "let = ;", &w),
            Err(EngineError::Parse(_))
        ));
    }

    #[test]
    fn load_validates_cross_script_calls() {
        let w = world();
        let mut e = ScriptEngine::new(Level::Restricted);
        e.load("helper", "self.hp += 1;", &w).unwrap();
        e.load("main", "call helper;", &w).unwrap();
        // adding a script that closes a call cycle is rejected
        let err = e.load("helper", "call main;", &w).unwrap_err();
        assert!(matches!(err, EngineError::Check(_)));
        // the old helper stays loaded
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn tick_runs_bound_entities_and_applies_effects() {
        let mut w = world();
        let mut e = ScriptEngine::new(Level::Restricted);
        e.ensure_binding_component(&mut w);
        e.load("regen", "self.hp += 5;", &w).unwrap();
        e.load("decay", "self.hp -= 1;", &w).unwrap();

        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::new(1.0, 0.0));
        let c = w.spawn_at(Vec2::new(2.0, 0.0)); // unbound: no script runs
        for id in [a, b, c] {
            w.set_f32(id, "hp", 10.0).unwrap();
        }
        e.bind(&mut w, a, "regen").unwrap();
        e.bind(&mut w, b, "decay").unwrap();

        let stats = e.tick(&mut w).unwrap();
        assert_eq!(stats.scripts_run, 2);
        assert_eq!(w.get_f32(a, "hp"), Some(15.0));
        assert_eq!(w.get_f32(b, "hp"), Some(9.0));
        assert_eq!(w.get_f32(c, "hp"), Some(10.0));
    }

    #[test]
    fn bind_unknown_script_fails() {
        let mut w = world();
        let mut e = ScriptEngine::new(Level::Full);
        let id = w.spawn_at(Vec2::ZERO);
        assert!(matches!(
            e.bind(&mut w, id, "ghost"),
            Err(RuntimeError::UnknownScript(_))
        ));
    }

    /// The VM's two ways of running a script — a set-at-a-time tick and
    /// one entity at a time through `run_one` — land on the same state
    /// and events.
    #[test]
    fn both_modes_agree_on_world_state() {
        let mut w = world();
        let mut e = ScriptEngine::new(Level::Restricted).with_optimizer();
        e.ensure_binding_component(&mut w);
        e.load(
            "swarm",
            "let crowd = count(4; other.hp > 1); self.hp += crowd; emit \"t\";",
            &w,
        )
        .unwrap();
        let mut ids = Vec::new();
        for i in 0..12 {
            let p = w.spawn_at(Vec2::new((i % 4) as f32 * 2.0, (i / 4) as f32 * 2.0));
            w.set_f32(p, "hp", 5.0).unwrap();
            e.bind(&mut w, p, "swarm").unwrap();
            ids.push(p);
        }
        let mut one_by_one = w.clone();
        let mut buf = EffectBuffer::new();
        let mut events = Vec::new();
        for &id in &ids {
            let ev = e.run_one(&one_by_one, id, "swarm", &mut buf).unwrap();
            events.extend(ev.into_iter().map(|ev| (id, ev)));
        }
        buf.apply(&mut one_by_one).unwrap();

        let stats = e.tick(&mut w).unwrap();
        assert_eq!(stats.scripts_run, 12);
        assert_eq!(stats.events, events);
        assert_eq!(w.rows(), one_by_one.rows());
        assert_ne!(w.get_f32(ids[0], "hp"), Some(5.0), "the scripts wrote");
    }

    #[test]
    fn schema_growth_revalidates_programs() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        let mut e = ScriptEngine::new(Level::Restricted);
        e.ensure_binding_component(&mut w);
        e.load("regen", "self.hp += 5;", &w).unwrap();
        let id = w.spawn_at(Vec2::ZERO);
        w.set_f32(id, "hp", 0.0).unwrap();
        e.bind(&mut w, id, "regen").unwrap();
        let stats = e.tick(&mut w).unwrap();
        assert_eq!(stats.scripts_run, 1, "compiles against the initial schema");

        // a fresh engine prepared against world A keeps working (and
        // recompiles) against a world with a different schema layout
        let mut w2 = World::new();
        w2.define_component("armor", ValueType::Float).unwrap();
        w2.define_component("hp", ValueType::Float).unwrap();
        e.ensure_binding_component(&mut w2);
        let id2 = w2.spawn_at(Vec2::ZERO);
        w2.set_f32(id2, "hp", 1.0).unwrap();
        e.bind(&mut w2, id2, "regen").unwrap();
        let stats = e.tick(&mut w2).unwrap();
        assert_eq!(stats.scripts_run, 1, "revalidation recompiled for w2");
        assert_eq!(w2.get_f32(id2, "hp"), Some(6.0));
    }

    /// A world that types a script's component differently, or lacks
    /// it, fails the script at prepare — at `bind`, and at the tick for
    /// a binding written without `bind` — with the compile message.
    #[test]
    fn schema_drift_fails_at_prepare() {
        let w = world();
        let mut e = ScriptEngine::new(Level::Full);
        e.load("s", "if self.hp > 3 { self.hp += 1; }", &w).unwrap();

        let mut retyped = World::new();
        retyped.define_component("hp", ValueType::Str).unwrap();
        assert_eq!(retyped.component_id("hp"), w.component_id("hp"));
        e.ensure_binding_component(&mut retyped);
        let id = retyped.spawn_at(Vec2::ZERO);
        let err = e.bind(&mut retyped, id, "s").unwrap_err();
        assert!(matches!(&err, RuntimeError::TypeError(m) if m.contains("semantic")), "{err}");
        assert_eq!(retyped.get(id, SCRIPT_COMPONENT), None, "a failed bind binds nothing");

        let mut lacking = World::new();
        lacking.define_component("armor", ValueType::Float).unwrap();
        e.ensure_binding_component(&mut lacking);
        let id = lacking.spawn_at(Vec2::ZERO);
        lacking.set(id, SCRIPT_COMPONENT, Value::Str("s".into())).unwrap();
        let err = e.tick(&mut lacking).unwrap_err();
        assert!(matches!(&err, RuntimeError::TypeError(m) if m.contains("'hp'")), "{err}");
    }

    /// Fan-out recursion passes the instruction budget: refused at load,
    /// the library unchanged.
    #[test]
    fn fan_out_recursion_is_refused_at_load() {
        let w = world();
        let mut e = ScriptEngine::new(Level::Full);
        e.load("ok", "self.hp += 1;", &w).unwrap();
        let err = e
            .load("r", "if self.hp > 1 { call r; } else { call r; }", &w)
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::Compile { script, error: CompileError::TooLarge(_) } if script == "r"),
            "{err}"
        );
        assert_eq!(e.len(), 1);
        assert!(e.library().get("r").is_none());
        // a plain recursion lowers: the call past the depth fails at run
        e.load("r", "call r;", &w).unwrap();
        assert_eq!(e.len(), 2);
    }

    /// Reloading a callee so that a caller which inlines it passes the
    /// budget is refused, and the old callee keeps running.
    #[test]
    fn a_reload_that_overgrows_a_caller_is_refused() {
        let mut w = world();
        let mut e = ScriptEngine::new(Level::Restricted);
        e.ensure_binding_component(&mut w);
        e.load("h", "self.hp += 1;", &w).unwrap();
        e.load("main", &"call h; ".repeat(64), &w).unwrap();
        let id = w.spawn_at(Vec2::ZERO);
        e.bind(&mut w, id, "main").unwrap();

        // 600 writes of 2 instructions each: h fits, 64 copies do not
        let big = "self.hp += 1; ".repeat(600);
        let err = e.load("h", &big, &w).unwrap_err();
        assert!(
            matches!(&err, EngineError::Compile { script, error: CompileError::TooLarge(_) } if script == "main"),
            "{err}"
        );
        assert_eq!(e.len(), 2);
        e.tick(&mut w).unwrap();
        assert_eq!(w.get_f32(id, "hp"), Some(64.0), "the old h still runs");
    }

    /// A radius far beyond the map must cost one pass over the spatial
    /// grid, not a probe per cell of the query box — on the old grid
    /// this tick never returned.
    #[test]
    fn a_huge_literal_radius_finishes_its_tick() {
        let mut w = world();
        let mut e = ScriptEngine::new(Level::Restricted);
        e.ensure_binding_component(&mut w);
        e.load("census", "self.hp = count(1000000000);", &w).unwrap();
        let ids: Vec<_> = (0..50)
            .map(|i| w.spawn_at(Vec2::new(i as f32 * 900.0, i as f32 * -700.0)))
            .collect();
        for &id in &ids {
            e.bind(&mut w, id, "census").unwrap();
        }
        let started = Instant::now();
        e.tick(&mut w).unwrap();
        assert!(started.elapsed().as_secs() < 2, "took {:?}", started.elapsed());
        assert_eq!(w.get_f32(ids[0], "hp"), Some(49.0), "everyone else is in range");
    }

    /// A failed tick reports nothing, and its VM work must not be
    /// reported under the next tick either.
    #[test]
    fn failed_tick_does_not_leak_counters_into_the_next() {
        let mut w = world();
        let registry = MetricsRegistry::new();
        let mut e = ScriptEngine::new(Level::Full).with_options(ExecOptions {
            loop_fuel: 8,
            ..ExecOptions::default()
        });
        e.attach_metrics(&registry);
        e.ensure_binding_component(&mut w);
        e.load("spin", "self.hp = count(5); while 1 > 0 { self.hp += 1; }", &w)
            .unwrap();
        let a = w.spawn_at(Vec2::ZERO);
        w.spawn_at(Vec2::new(1.0, 0.0)); // a neighbour for the probe
        e.bind(&mut w, a, "spin").unwrap();
        assert_eq!(e.tick(&mut w), Err(RuntimeError::LoopFuelExhausted { limit: 8 }));

        w.set(a, SCRIPT_COMPONENT, Value::Str(String::new())).unwrap();
        let stats = e.tick(&mut w).unwrap();
        assert_eq!(stats.scripts_run, 0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("script.ticks"), 1, "only the good tick reports");
        for name in [
            "script.vm_instrs",
            "script.vm_dispatches",
            "script.probes",
            "script.probe_rows",
        ] {
            assert_eq!(snap.counter(name), 0, "{name}");
        }
    }

    #[test]
    fn events_are_attributed_to_entities() {
        let mut w = world();
        let mut e = ScriptEngine::new(Level::Restricted);
        e.ensure_binding_component(&mut w);
        e.load("shout", r#"emit "ping";"#, &w).unwrap();
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::new(1.0, 0.0));
        e.bind(&mut w, a, "shout").unwrap();
        e.bind(&mut w, b, "shout").unwrap();
        let stats = e.tick(&mut w).unwrap();
        assert_eq!(
            stats.events,
            vec![(a, "ping".to_string()), (b, "ping".to_string())]
        );
    }

    #[test]
    fn reloading_a_script_changes_behaviour() {
        let mut w = world();
        let mut e = ScriptEngine::new(Level::Restricted);
        e.ensure_binding_component(&mut w);
        e.load("s", "self.hp += 1;", &w).unwrap();
        let id = w.spawn_at(Vec2::ZERO);
        w.set_f32(id, "hp", 0.0).unwrap();
        e.bind(&mut w, id, "s").unwrap();
        e.tick(&mut w).unwrap();
        assert_eq!(w.get_f32(id, "hp"), Some(1.0));
        // hot-reload (designers iterate live)
        e.load("s", "self.hp += 10;", &w).unwrap();
        e.tick(&mut w).unwrap();
        assert_eq!(w.get_f32(id, "hp"), Some(11.0));
    }

    #[test]
    fn optimizer_rewrites_loaded_scripts() {
        let mut w = world();
        let mut e = ScriptEngine::new(Level::Full).with_optimizer();
        e.ensure_binding_component(&mut w);
        let a = w.spawn_at(Vec2::ZERO);
        let b = w.spawn_at(Vec2::new(1.0, 0.0));
        for id in [a, b] {
            w.set_f32(id, "hp", 10.0).unwrap();
        }
        e.load("drain", "foreach within (5) { self.hp -= 2 * 1; }", &w)
            .unwrap();
        // the stored script is the aggregate rewrite, not the loop
        let stored = crate::ast::to_source(&e.lib.get("drain").unwrap().body);
        assert_eq!(stored, "self.hp -= sum(5; 2);\n");
        // and it still runs with identical semantics
        e.bind(&mut w, a, "drain").unwrap();
        e.tick(&mut w).unwrap();
        assert_eq!(w.get_f32(a, "hp"), Some(8.0), "one neighbor drains 2");
    }

    #[test]
    fn level_is_checked_before_optimization() {
        // a restricted engine must still reject the foreach the designer
        // wrote, even though the optimizer could rewrite it into a legal
        // aggregate — enforcement applies to source, not optimizer output
        let w = world();
        let mut e = ScriptEngine::new(Level::Restricted).with_optimizer();
        let err = e.load("bad", "foreach within (5) { self.hp -= 1; }", &w);
        assert!(matches!(err, Err(EngineError::Check(_))));
    }
}
