//! Property test: for randomly generated restricted-level scripts, the
//! bytecode VM produces exactly the effects of the interpreter (the
//! oracle), entity by entity and set-at-a-time across a whole tick;
//! index-backed neighbor enumeration agrees with the naive scan; and the
//! engine's tick lands on the state of an interpreted tick
//! ([`oracle_tick`]) across random world churn and call cycles.

use gamedb::content::{Value, ValueType};
use gamedb::core::{EffectBuffer, EntityId, World};
use gamedb::metrics::MetricsRegistry;
use gamedb::script::vm::LANES;
use gamedb::script::{
    check_script, compile_program, parse_script, run_script, EngineTickStats, ExecOptions, Level,
    RuntimeError, ScriptEngine, ScriptLibrary, Vm, SCRIPT_COMPONENT,
};
use gamedb::spatial::Vec2;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Generate a random restricted-level script from composable fragments.
/// Fragments only use components the test world defines, so every
/// generated script type-checks.
fn script_strategy() -> impl Strategy<Value = String> {
    let num_expr = prop_oneof![
        Just("self.hp".to_string()),
        Just("self.dmg".to_string()),
        Just("count(7)".to_string()),
        Just("count(9; other.team != self.team)".to_string()),
        Just("sum(6; other.dmg)".to_string()),
        Just("maxof(8; other.hp; other.hp > self.hp)".to_string()),
        Just("avgof(5; other.dmg)".to_string()),
        Just("nearest_dist(10)".to_string()),
        Just("min(self.hp, 50)".to_string()),
        Just("abs(self.dmg - 3)".to_string()),
        Just("clamp(self.hp, 0, 80)".to_string()),
        (1..50i32).prop_map(|n| n.to_string()),
    ];
    let stmt = num_expr.prop_flat_map(|e| {
        prop_oneof![
            Just(format!("self.hp += {e};")),
            Just(format!("self.hp -= {e} * 0.5;")),
            Just(format!("self.dmg = {e};")),
            // VAR is renamed per statement index below (unique names)
            Just(format!("let VAR = {e}; self.hp += VAR;")),
            Just(format!("if {e} > 10 {{ self.hp += 1; }} else {{ self.hp -= 1; }}")),
            Just(format!("if count(4) > 1 {{ move({e} * 0.01, 0 - 0.5); }}")),
            Just(format!(
                "if self.team == \"red\" {{ self.hp += {e} * 0.1; }}"
            )),
            // a string local, read, reassigned and read again
            Just(format!(
                "let VAR = self.team; if VAR == \"red\" {{ self.hp += {e} * 0.1; }} \
                 VAR = \"blue\"; if VAR == self.team {{ self.dmg += 1; }}"
            )),
        ]
    });
    proptest::collection::vec(stmt, 1..6).prop_map(|stmts| {
        stmts
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.replace("VAR", &format!("v{i}")))
            .collect::<Vec<_>>()
            .join("\n")
    })
}

fn test_world(positions: &[(f32, f32)]) -> World {
    let mut w = World::new();
    w.define_component("hp", ValueType::Float).unwrap();
    w.define_component("dmg", ValueType::Float).unwrap();
    w.define_component("team", ValueType::Str).unwrap();
    for (i, &(x, y)) in positions.iter().enumerate() {
        let e = w.spawn_at(Vec2::new(x, y));
        w.set_f32(e, "hp", 40.0 + (i % 7) as f32 * 9.0).unwrap();
        w.set_f32(e, "dmg", 1.0 + (i % 4) as f32).unwrap();
        w.set(
            e,
            "team",
            gamedb::content::Value::Str(if i % 2 == 0 { "red" } else { "blue" }.into()),
        )
        .unwrap();
    }
    w
}

/// Programs for the set-at-a-time tick: the churn generator's scripts
/// with `while` loops around them whose trip count differs per entity
/// (so lanes diverge and run out of fuel at different iterations), each
/// emitting events mid-loop and after it.
fn tick_script_strategy() -> impl Strategy<Value = String> {
    let trips = prop_oneof![
        Just("count(7)".to_string()),
        Just("self.dmg".to_string()),
        Just("count(4) * 2".to_string()),
        Just("3".to_string()),
    ];
    let looped = trips
        .prop_map(|t| {
            format!(
                "let wN = 0;\nwhile wN < {t} {{ wN = wN + 1; self.hp += 0.5; if wN == 3 {{ emit \"wN\"; }} }}\nemit \"done\";"
            )
        })
        .boxed();
    (
        proptest::collection::vec(looped.clone(), 0..2),
        script_strategy(),
        proptest::collection::vec(looped, 0..2),
    )
        .prop_map(|(before, body, after)| {
            let mut parts = before;
            parts.push(body);
            parts.extend(after);
            parts
                .into_iter()
                .enumerate()
                .map(|(i, s)| s.replace("wN", &format!("w{i}")))
                .collect::<Vec<_>>()
                .join("\n")
        })
}

/// What one tick on a clone of `world` shows: the effect ops it queued
/// as a sorted multiset (despawns included; empty when the tick failed,
/// as the buffer is then dropped), the tick's result and the rows it
/// leaves.
type TickOutcome = (
    Vec<String>,
    Result<EngineTickStats, RuntimeError>,
    Vec<(EntityId, String, Value)>,
);

fn sorted_ops(buf: &EffectBuffer) -> Vec<String> {
    let mut ops: Vec<_> = buf.ops().map(|(id, c, e)| format!("{id:?} {c} {e:?}")).collect();
    ops.extend(buf.despawned().iter().map(|id| format!("despawn {id:?}")));
    ops.sort();
    ops
}

fn tick_outcome(engine: &mut ScriptEngine, world: &World) -> TickOutcome {
    let mut buf = EffectBuffer::new();
    let ops = match engine.run_tick(world, &mut buf) {
        Ok(_) => sorted_ops(&buf),
        Err(_) => Vec::new(),
    };
    let mut after = world.clone();
    let result = engine.tick(&mut after);
    (ops, result, after.rows())
}

/// The whole-tick oracle `ScriptEngine::tick` is held to: `run_script`
/// for every bound entity in id order, stopping at the first error, then
/// one apply. Returns the queued effect ops with the tick's result.
fn oracle_tick(
    lib: &ScriptLibrary,
    world: &mut World,
    opts: ExecOptions,
) -> (Vec<String>, Result<EngineTickStats, RuntimeError>) {
    let mut buf = EffectBuffer::new();
    let mut stats = EngineTickStats::default();
    for id in world.entity_vec() {
        let Some(Value::Str(name)) = world.get(id, SCRIPT_COMPONENT) else {
            continue;
        };
        if name.is_empty() {
            continue;
        }
        match run_script(lib, &name, world, id, &mut buf, opts) {
            Ok(out) => {
                stats.scripts_run += 1;
                stats.events.extend(out.events.into_iter().map(|e| (id, e)));
            }
            Err(e) => return (Vec::new(), Err(e)),
        }
    }
    let ops = sorted_ops(&buf);
    let applied = buf.apply(world).map_err(|e| RuntimeError::TypeError(e.to_string()));
    (ops, applied.map(|_| stats))
}

/// [`tick_outcome`] for the oracle.
fn oracle_outcome(lib: &ScriptLibrary, world: &World, opts: ExecOptions) -> TickOutcome {
    let mut after = world.clone();
    let (ops, result) = oracle_tick(lib, &mut after, opts);
    (ops, result, after.rows())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bytecode (the compiled form) against the interpreter, one
    /// entity at a time: events, the exact effect-op stream, applied rows.
    #[test]
    fn compiled_equals_interpreted(
        src in script_strategy(),
        positions in proptest::collection::vec((-40.0f32..40.0, -40.0f32..40.0), 2..24),
    ) {
        let world = test_world(&positions);
        let script = parse_script("s", &src).unwrap();
        // generated scripts are restricted-level by construction
        let errors = check_script(&script, &world, Level::Restricted);
        prop_assert!(errors.is_empty(), "{errors:?}\n--- script:\n{src}");

        let mut lib = ScriptLibrary::new();
        lib.insert(script);
        let program = compile_program(&lib, "s", &world, ExecOptions::default()).unwrap();
        let mut vm = Vm::new();

        for id in world.entity_vec() {
            let mut b_interp = EffectBuffer::new();
            let mut b_vm = EffectBuffer::new();
            let out_i = run_script(&lib, "s", &world, id, &mut b_interp, ExecOptions::default())
                .unwrap();
            let out_v = vm
                .run(&program, &world, id, &mut b_vm, ExecOptions::default())
                .unwrap();
            prop_assert_eq!(&out_i.events, &out_v);

            // the VM must agree on the exact write stream, not just the
            // post-apply state
            let ops_i: Vec<_> = b_interp.ops().cloned().collect();
            let ops_v: Vec<_> = b_vm.ops().cloned().collect();
            prop_assert_eq!(ops_i, ops_v, "script:\n{}", src);

            let mut w_i = world.clone();
            let mut w_v = world.clone();
            b_interp.apply(&mut w_i).unwrap();
            b_vm.apply(&mut w_v).unwrap();
            prop_assert_eq!(w_i.rows(), w_v.rows(), "script:\n{}", src);
        }
    }

    #[test]
    fn indexed_equals_naive_neighbors(
        src in script_strategy(),
        positions in proptest::collection::vec((-40.0f32..40.0, -40.0f32..40.0), 2..24),
    ) {
        let world = test_world(&positions);
        let mut lib = ScriptLibrary::new();
        lib.insert(parse_script("s", &src).unwrap());
        for id in world.entity_vec() {
            let mut b_idx = EffectBuffer::new();
            let mut b_scan = EffectBuffer::new();
            run_script(&lib, "s", &world, id, &mut b_idx, ExecOptions::default()).unwrap();
            run_script(
                &lib,
                "s",
                &world,
                id,
                &mut b_scan,
                ExecOptions { use_index: false, ..Default::default() },
            )
            .unwrap();
            let mut w_idx = world.clone();
            let mut w_scan = world.clone();
            b_idx.apply(&mut w_idx).unwrap();
            b_scan.apply(&mut w_scan).unwrap();
            prop_assert_eq!(w_idx.rows(), w_scan.rows(), "script:\n{}", src);
        }
    }

    /// VM-vs-interpreter parity under random world churn: entities are
    /// despawned mid-population and position-less "ghost" entities are
    /// spawned, so scripts hit dead-entity reads and `NoPosition` errors.
    /// Both engines must agree on Ok output (events, the exact effect-op
    /// stream, despawn list, applied rows) AND on every `RuntimeError`.
    #[test]
    fn vm_equals_interp_under_churn(
        src in script_strategy(),
        positions in proptest::collection::vec((-40.0f32..40.0, -40.0f32..40.0), 3..20),
        despawn_mask in proptest::collection::vec(any::<bool>(), 3..20),
        ghosts in 0usize..3,
        loop_fuel in prop_oneof![Just(4usize), Just(64usize), Just(100_000usize)],
    ) {
        let mut world = test_world(&positions);
        // churn: cull a random subset of the seeded entities...
        let seeded = world.entity_vec();
        for (i, id) in seeded.iter().enumerate() {
            if despawn_mask.get(i).copied().unwrap_or(false) && i + 1 < seeded.len() {
                world.despawn(*id);
            }
        }
        // ...and add entities with components but no position
        for g in 0..ghosts {
            let e = world.spawn();
            world.set_f32(e, "hp", 10.0 + g as f32).unwrap();
            world.set_f32(e, "dmg", 2.0).unwrap();
        }

        let mut lib = ScriptLibrary::new();
        lib.insert(parse_script("s", &src).unwrap());
        let opts = ExecOptions { loop_fuel, ..Default::default() };
        let program = compile_program(&lib, "s", &world, opts).unwrap();
        let mut vm = Vm::new();

        for id in world.entity_vec() {
            let mut b_i = EffectBuffer::new();
            let mut b_v = EffectBuffer::new();
            let res_i = run_script(&lib, "s", &world, id, &mut b_i, opts);
            let res_v = vm.run(&program, &world, id, &mut b_v, opts);
            match (res_i, res_v) {
                (Ok(out_i), Ok(out_v)) => {
                    prop_assert_eq!(&out_i.events, &out_v, "script:\n{}", src);
                    let ops_i: Vec<_> = b_i.ops().cloned().collect();
                    let ops_v: Vec<_> = b_v.ops().cloned().collect();
                    prop_assert_eq!(ops_i, ops_v, "script:\n{}", src);
                    prop_assert_eq!(b_i.despawned(), b_v.despawned(), "script:\n{}", src);
                    let mut w_i = world.clone();
                    let mut w_v = world.clone();
                    b_i.apply(&mut w_i).unwrap();
                    b_v.apply(&mut w_v).unwrap();
                    prop_assert_eq!(w_i.rows(), w_v.rows(), "script:\n{}", src);
                }
                (Err(e_i), Err(e_v)) => {
                    prop_assert_eq!(e_i, e_v, "script:\n{}", src);
                }
                (i, v) => {
                    return Err(TestCaseError::fail(format!(
                        "outcome mismatch: interp={i:?} vm={v:?}\nscript:\n{src}"
                    )));
                }
            }
        }
    }

    /// The set-at-a-time tick against the per-entity interpreter: one or
    /// two programs bound in interleaved id order, divergent `if`s and
    /// loops of per-entity trip counts, string locals, despawned entities
    /// and unpositioned ghosts, fuel of 4, 64 and 100k. An engine tick
    /// must equal the oracle's on a clone in the applied rows, the
    /// multiset of queued effect ops, the stats (events in order, scripts
    /// run) and the returned `RuntimeError`.
    #[test]
    fn set_at_a_time_tick_equals_interp(
        srcs in proptest::collection::vec(tick_script_strategy(), 1..3),
        positions in proptest::collection::vec((-40.0f32..40.0, -40.0f32..40.0), 3..20),
        despawn_mask in proptest::collection::vec(any::<bool>(), 3..20),
        ghosts in 0usize..3,
        loop_fuel in prop_oneof![Just(4usize), Just(64usize), Just(100_000usize)],
    ) {
        let mut world = test_world(&positions);
        let seeded = world.entity_vec();
        for (i, id) in seeded.iter().enumerate() {
            if despawn_mask.get(i).copied().unwrap_or(false) && i + 1 < seeded.len() {
                world.despawn(*id);
            }
        }
        for g in 0..ghosts {
            let e = world.spawn();
            world.set_f32(e, "hp", 10.0 + g as f32).unwrap();
            world.set_f32(e, "dmg", 2.0).unwrap();
        }

        let opts = ExecOptions { loop_fuel, ..Default::default() };
        let mut engine = ScriptEngine::new(Level::Full).with_options(opts);
        engine.ensure_binding_component(&mut world);
        let names: Vec<String> = (0..srcs.len()).map(|i| format!("p{i}")).collect();
        for (name, src) in names.iter().zip(&srcs) {
            engine.load(name, src, &world).unwrap();
        }
        // interleaved, every fourth entity left unbound
        for (i, id) in world.entity_vec().into_iter().enumerate() {
            if i % 4 != 3 {
                engine.bind(&mut world, id, &names[i % names.len()]).unwrap();
            }
        }

        let (ops_i, result_i, rows_i) = oracle_outcome(engine.library(), &world, opts);
        let (ops_v, result_v, rows_v) = tick_outcome(&mut engine, &world);
        let script = srcs.join("\n---\n");
        prop_assert_eq!(ops_i, ops_v, "scripts:\n{}", script);
        prop_assert_eq!(rows_i, rows_v, "scripts:\n{}", script);
        prop_assert_eq!(result_i, result_v, "scripts:\n{}", script);
    }
}

/// A multi-tick engine scenario against the oracle from a cloned world:
/// both must land on identical state every tick.
#[test]
fn engine_equals_oracle_across_ticks() {
    let mut world = test_world(&[
        (0.0, 0.0),
        (1.0, 1.0),
        (2.5, 0.5),
        (4.0, 3.0),
        (6.0, 6.0),
        (-3.0, 2.0),
    ]);
    let mut engine = ScriptEngine::new(Level::Full);
    engine.ensure_binding_component(&mut world);
    engine
        .load(
            "skirmish",
            "let threat = count(5; other.team != self.team);\n\
             self.hp -= threat * 0.5;\n\
             if self.hp < 20 { move(0 - 0.5, 0.25); }\n\
             if self.hp < 1 { despawn; }",
            &world,
        )
        .unwrap();
    engine
        .load(
            "taunt",
            "let label = self.team;\nif label == \"red\" { emit \"taunted\"; }\nself.dmg += 1;",
            &world,
        )
        .unwrap();
    for (i, id) in world.entity_vec().into_iter().enumerate() {
        let script = if i % 3 == 2 { "taunt" } else { "skirmish" };
        engine.bind(&mut world, id, script).unwrap();
    }
    let mut oracle = world.clone();
    let mut events = 0;
    for tick in 0..8 {
        let stats = engine.tick(&mut world).unwrap();
        let (_, expected) = oracle_tick(engine.library(), &mut oracle, ExecOptions::default());
        assert_eq!(Ok(&stats), expected.as_ref(), "tick {tick}");
        assert_eq!(world.rows(), oracle.rows(), "tick {tick}");
        events += stats.events.len();
    }
    assert!(events > 0, "the string-local script ran");
}

/// Recursion runs on the VM as in the interpreter: a recursive call in a
/// branch no entity takes costs nothing; a reached self- or mutual
/// recursion fails with `CallDepthExceeded` at the configured depth, the
/// lowest failing entity's; and a `while` per level runs out of fuel
/// first when the fuel is the tighter limit.
#[test]
fn call_cycles_equal_the_oracle() {
    let positions: Vec<_> = (0..40).map(|i| ((i % 8) as f32 * 2.0, (i / 8) as f32 * 2.0)).collect();
    let world = test_world(&positions);
    let fuel64 = ExecOptions { loop_fuel: 64, ..Default::default() };
    let depth3 = ExecOptions { max_call_depth: 3, ..Default::default() };
    // (scripts loaded in order, options, the error the tick returns)
    type Case = (&'static [(&'static str, &'static str)], ExecOptions, Option<RuntimeError>);
    let cases: [Case; 6] = [
        (
            &[("main", "if self.hp > 1000 { call main; } self.hp += 1; emit \"ok\";")],
            ExecOptions::default(),
            None,
        ),
        (
            &[("main", "self.hp += 1; if self.dmg > 2 { call main; }")],
            ExecOptions::default(),
            Some(RuntimeError::CallDepthExceeded { script: "main".into(), limit: 16 }),
        ),
        (
            &[("main", "self.hp += 1; if self.dmg > 2 { call main; }")],
            depth3,
            Some(RuntimeError::CallDepthExceeded { script: "main".into(), limit: 3 }),
        ),
        // `main` is loaded twice: `b` must exist before `main` can call it
        (
            &[("main", ""), ("b", "emit \"b\"; call main;"), ("main", "self.dmg += 1; call b;")],
            ExecOptions::default(),
            Some(RuntimeError::CallDepthExceeded { script: "b".into(), limit: 16 }),
        ),
        (
            &[("main", ""), ("b", "emit \"b\"; call main;"), ("main", "self.dmg += 1; call b;")],
            depth3,
            Some(RuntimeError::CallDepthExceeded { script: "main".into(), limit: 3 }),
        ),
        (
            &[("main", "let n = 0; while n < 10 { n = n + 1; } self.hp += n; call main;")],
            fuel64,
            Some(RuntimeError::LoopFuelExhausted { limit: 64 }),
        ),
    ];
    for (scripts, opts, expected) in cases {
        let mut w = world.clone();
        let mut engine = ScriptEngine::new(Level::Full).with_options(opts);
        engine.ensure_binding_component(&mut w);
        engine.load("plain", "self.hp += 0.5;", &w).unwrap();
        for (name, src) in scripts {
            engine.load(name, src, &w).unwrap();
        }
        // every third entity runs a plain script, so the failing entity
        // is not always the first
        for (i, id) in w.entity_vec().into_iter().enumerate() {
            let name = if i % 3 == 0 { "plain" } else { "main" };
            engine.bind(&mut w, id, name).unwrap();
        }
        let (ops_i, result_i, rows_i) = oracle_outcome(engine.library(), &w, opts);
        let (ops_v, result_v, rows_v) = tick_outcome(&mut engine, &w);
        let case = format!("{scripts:?} at {opts:?}");
        assert_eq!((ops_i, rows_i), (ops_v, rows_v), "{case}");
        assert_eq!(result_i, result_v, "{case}");
        assert_eq!(result_v.err(), expected, "{case}");
    }
}

/// One program over 2 100 entities spans three chunks of [`LANES`].
/// Entities fail in chunk 3 and twice in chunk 2, where the higher id
/// fails first in time (an unpositioned ghost at the first instruction)
/// and the lower one later (fuel, inside the loop). The tick returns the
/// lowest failing id's error, as the per-entity interpreter does; with
/// the failures unbound, engine and oracle agree on every row, with fuel
/// per entity (each runs a handful of iterations; a chunk runs
/// thousands).
#[test]
fn set_at_a_time_error_is_the_lowest_failing_entity_across_chunks() {
    const N: usize = 2_100;
    const FUEL: usize = 50;
    let (fuel_out, early_ghost, late_ghost) = (1_100, 1_900, 2_050);
    assert_eq!(N.div_ceil(LANES), 3);
    assert_eq!([fuel_out / LANES, early_ghost / LANES, late_ghost / LANES], [1, 1, 2]);

    let mut world = test_world(&[]);
    let mut ids = Vec::new();
    for i in 0..N {
        let e = if i == early_ghost || i == late_ghost {
            world.spawn()
        } else {
            world.spawn_at(Vec2::new((i % 50) as f32 * 3.0, (i / 50) as f32 * 3.0))
        };
        let trips = if i == fuel_out { FUEL + 10 } else { 1 + i % 10 };
        world.set_f32(e, "hp", 50.0).unwrap();
        world.set_f32(e, "dmg", trips as f32).unwrap();
        ids.push(e);
    }
    let opts = ExecOptions { loop_fuel: FUEL, ..Default::default() };
    let mut engine = ScriptEngine::new(Level::Full).with_options(opts);
    engine.ensure_binding_component(&mut world);
    engine
        .load(
            "drill",
            "self.hp += count(4);\nlet i = 0;\nwhile i < self.dmg { i = i + 1; }\nself.dmg = i;",
            &world,
        )
        .unwrap();
    for &id in &ids {
        engine.bind(&mut world, id, "drill").unwrap();
    }

    let expected = Err(RuntimeError::LoopFuelExhausted { limit: FUEL });
    let (mut w_i, mut w_v) = (world.clone(), world.clone());
    assert_eq!(oracle_tick(engine.library(), &mut w_i, opts).1, expected);
    assert_eq!(engine.tick(&mut w_v), expected);
    for w in [&w_i, &w_v] {
        assert_eq!(w.rows(), world.rows(), "a failed tick applies nothing");
    }

    for i in [fuel_out, early_ghost, late_ghost] {
        world.set(ids[i], SCRIPT_COMPONENT, Value::Str(String::new())).unwrap();
    }
    let (mut w_i, mut w_v) = (world.clone(), world.clone());
    let s_i = oracle_tick(engine.library(), &mut w_i, opts).1.unwrap();
    let s_v = engine.tick(&mut w_v).unwrap();
    assert_eq!(w_i.rows(), w_v.rows());
    assert_eq!(s_v.scripts_run, N - 3);
    assert_eq!(s_i.scripts_run, s_v.scripts_run);
}

/// The E1 combat script (one `count` aggregate, a 24-iteration `while`,
/// two effects) over 4 096 entities at the `script_tick` workload's
/// density: the VM retires a seed-exact instruction count (~217 per
/// entity), each dispatch drives at least half a chunk of lanes, and the
/// tick's effect ops and rows equal the per-entity interpreter's.
#[test]
fn combat_tick_counts_exact_instrs_over_wide_dispatches() {
    const N: usize = 4_096;
    const COMBAT: &str = "let threat = count(2; other.team != self.team);\n\
                          let pressure = threat * 0.1 + self.dmg * 0.01;\n\
                          let regen = 0.05;\n\
                          let decay = 0;\n\
                          let i = 0;\n\
                          while i < 24 {\n\
                            decay = decay * 0.5 + pressure * 0.125;\n\
                            regen = regen * 0.97;\n\
                            i = i + 1;\n\
                          }\n\
                          self.hp -= clamp(decay, 0, 5);\n\
                          self.hp += regen;";
    let map = (N as f32 / 0.05).sqrt();
    let mut rng = StdRng::seed_from_u64(7);
    let positions: Vec<_> = (0..N)
        .map(|_| (rng.gen::<f32>() * map, rng.gen::<f32>() * map))
        .collect();
    let mut world = test_world(&positions);
    let registry = MetricsRegistry::new();
    let mut vm = ScriptEngine::new(Level::Full);
    vm.attach_metrics(&registry);
    vm.ensure_binding_component(&mut world);
    vm.load("combat", COMBAT, &world).unwrap();
    for id in world.entity_vec() {
        vm.bind(&mut world, id, "combat").unwrap();
    }
    let (ops_i, result_i, rows_i) = oracle_outcome(vm.library(), &world, ExecOptions::default());
    let (ops_v, result_v, rows_v) = tick_outcome(&mut vm, &world);
    assert_eq!((ops_i.len(), &ops_i, &rows_i), (2 * N, &ops_v, &rows_v));
    assert_eq!(result_v.unwrap().scripts_run, result_i.unwrap().scripts_run);
    let snap = registry.snapshot();
    let instrs = snap.counter("script.vm_instrs");
    let dispatches = snap.counter("script.vm_dispatches");
    // 213 per entity with no neighbour in range, ~6 more per candidate
    assert_eq!(instrs, 887_104, "{:.1} per entity", instrs as f64 / N as f64);
    assert!(instrs >= 512 * dispatches, "{instrs} instrs over {dispatches} dispatches");
}
