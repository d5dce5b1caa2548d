//! Property test: for randomly generated restricted-level scripts, the
//! bytecode VM produces exactly the effects of the interpreter (the
//! oracle), entity by entity and set-at-a-time across a whole tick;
//! index-backed neighbor enumeration agrees with the naive scan; and the
//! engine lands on identical world state in both [`ExecMode`]s across
//! random world churn.

use gamedb::content::{Value, ValueType};
use gamedb::core::{EffectBuffer, EntityId, World};
use gamedb::metrics::MetricsRegistry;
use gamedb::script::vm::LANES;
use gamedb::script::{
    check_script, compile_program, parse_script, run_script, EngineTickStats, ExecMode,
    ExecOptions, Level, RuntimeError, ScriptEngine, ScriptLibrary, Vm, SCRIPT_COMPONENT,
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

/// A script the VM does not lower (a string-valued local): its entities
/// are interpreted even in [`ExecMode::Vm`].
const FALLBACK: &str =
    "let label = self.team;\nif label == \"red\" { emit \"taunted\"; }\nself.dmg += 1;";

/// What one tick of `engine` on a clone of `world` shows: the effect ops
/// it queued as a sorted multiset (despawns included; empty when the
/// tick failed, as the buffer is then dropped), the tick's result and
/// the rows it leaves.
type TickOutcome = (
    Vec<String>,
    Result<EngineTickStats, RuntimeError>,
    Vec<(EntityId, String, Value)>,
);

fn tick_outcome(engine: &mut ScriptEngine, world: &World) -> TickOutcome {
    let mut buf = EffectBuffer::new();
    let mut ops = Vec::new();
    if engine.run_tick(world, &mut buf).is_ok() {
        ops.extend(buf.ops().map(|(id, c, e)| format!("{id:?} {c} {e:?}")));
        ops.extend(buf.despawned().iter().map(|id| format!("despawn {id:?}")));
        ops.sort();
    }
    let mut after = world.clone();
    let result = engine.tick(&mut after);
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
        let program = compile_program(&lib, "s", &world).unwrap();
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
        let program = compile_program(&lib, "s", &world).unwrap();
        let mut vm = Vm::new();
        let opts = ExecOptions { loop_fuel, ..Default::default() };

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

    /// The set-at-a-time tick against the per-entity interpreter: two or
    /// three programs bound in interleaved id order (one of them the
    /// string-local script the VM does not lower), divergent `if`s and
    /// loops of per-entity trip counts, despawned entities and
    /// unpositioned ghosts, fuel of 4, 64 and 100k. A VM-mode tick must
    /// equal an interpreter-mode tick on a clone in the applied rows, the
    /// multiset of queued effect ops, the stats (events in order, run
    /// counts) and the returned `RuntimeError`.
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
        let mut engines = [ExecMode::Interp, ExecMode::Vm]
            .map(|mode| ScriptEngine::new(Level::Full).with_mode(mode).with_options(opts));
        let mut names: Vec<String> = (0..srcs.len()).map(|i| format!("p{i}")).collect();
        names.push("fallback".into());
        for engine in &mut engines {
            engine.ensure_binding_component(&mut world);
            for (name, src) in names.iter().zip(srcs.iter().map(String::as_str).chain([FALLBACK])) {
                engine.load(name, src, &world).unwrap();
            }
        }
        // interleaved, every fourth entity left unbound; the
        // interpreter-mode engine resolves the bindings by name
        let mut fallback_bound = 0;
        for (i, id) in world.entity_vec().into_iter().enumerate() {
            if i % 4 == 3 {
                continue;
            }
            let name = &names[i % names.len()];
            fallback_bound += usize::from(name == "fallback");
            engines[1].bind(&mut world, id, name).unwrap();
        }

        let [interp, vm] = &mut engines;
        let (ops_i, result_i, rows_i) = tick_outcome(interp, &world);
        let (ops_v, result_v, rows_v) = tick_outcome(vm, &world);
        let script = srcs.join("\n---\n");
        prop_assert_eq!(ops_i, ops_v, "scripts:\n{}", script);
        prop_assert_eq!(rows_i, rows_v, "scripts:\n{}", script);
        match (result_i, result_v) {
            (Ok(s_i), Ok(s_v)) => {
                prop_assert_eq!(&s_i.events, &s_v.events, "scripts:\n{}", script);
                prop_assert_eq!(s_i.scripts_run, s_v.scripts_run);
                prop_assert_eq!((s_i.vm_runs, s_i.interp_runs), (0, s_i.scripts_run));
                prop_assert_eq!(s_v.interp_runs, fallback_bound);
                prop_assert_eq!(s_v.vm_runs, s_v.scripts_run - fallback_bound);
            }
            (Err(e_i), Err(e_v)) => prop_assert_eq!(e_i, e_v, "scripts:\n{}", script),
            (i, v) => {
                return Err(TestCaseError::fail(format!(
                    "outcome mismatch: interp={i:?} vm={v:?}\nscripts:\n{script}"
                )));
            }
        }
    }
}

/// Run a multi-tick engine scenario in both [`ExecMode`]s from cloned
/// worlds; they must land on identical state, and the stats must show
/// the dispatch actually took the mode's path.
#[test]
fn engine_modes_agree_across_ticks() {
    let scenario = |mode: ExecMode| {
        let mut world = test_world(&[
            (0.0, 0.0),
            (1.0, 1.0),
            (2.5, 0.5),
            (4.0, 3.0),
            (6.0, 6.0),
            (-3.0, 2.0),
        ]);
        let mut engine = ScriptEngine::new(Level::Full).with_mode(mode);
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
        // string-valued locals don't lower to bytecode: exercises the
        // VM-mode interpreter fallback
        engine
            .load(
                "taunt",
                "let label = self.team;\nif label == \"red\" { emit \"taunted\"; }\nself.dmg += 1;",
                &world,
            )
            .unwrap();
        let ids = world.entity_vec();
        for (i, id) in ids.iter().enumerate() {
            let script = if i % 3 == 2 { "taunt" } else { "skirmish" };
            engine.bind(&mut world, *id, script).unwrap();
        }
        let mut vm_runs = 0;
        let mut interp_runs = 0;
        for _ in 0..8 {
            let stats = engine.tick(&mut world).unwrap();
            vm_runs += stats.vm_runs;
            interp_runs += stats.interp_runs;
        }
        (world.rows(), vm_runs, interp_runs)
    };

    let (rows_i, vm_i, interp_i) = scenario(ExecMode::Interp);
    let (rows_v, vm_v, interp_v) = scenario(ExecMode::Vm);
    assert_eq!(rows_i, rows_v, "engine modes diverged on world state");
    assert_eq!(vm_i, 0, "interp mode must not dispatch through the VM");
    assert!(interp_i > 0);
    assert!(vm_v > 0, "vm mode should dispatch compilable scripts to the VM");
    assert!(
        interp_v > 0,
        "string-local script should fall back to the interpreter in vm mode"
    );
}

/// One program over 2 100 entities spans three chunks of [`LANES`].
/// Entities fail in chunk 3 and twice in chunk 2, where the higher id
/// fails first in time (an unpositioned ghost at the first instruction)
/// and the lower one later (fuel, inside the loop). The tick returns the
/// lowest failing id's error, as the per-entity interpreter does; with
/// the failures unbound, both modes agree on every row, with fuel per
/// entity (each runs a handful of iterations; a chunk runs thousands).
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
    let mut engines = [ExecMode::Interp, ExecMode::Vm]
        .map(|mode| ScriptEngine::new(Level::Full).with_mode(mode).with_options(opts));
    for engine in &mut engines {
        engine.ensure_binding_component(&mut world);
        engine
            .load(
                "drill",
                "self.hp += count(4);\nlet i = 0;\nwhile i < self.dmg { i = i + 1; }\nself.dmg = i;",
                &world,
            )
            .unwrap();
    }
    for &id in &ids {
        engines[1].bind(&mut world, id, "drill").unwrap();
    }

    let [interp, vm] = &mut engines;
    let expected = RuntimeError::LoopFuelExhausted { limit: FUEL };
    for engine in [&mut *interp, &mut *vm] {
        let mut w = world.clone();
        assert_eq!(engine.tick(&mut w), Err(expected.clone()), "{:?}", engine.mode());
        assert_eq!(w.rows(), world.rows(), "a failed tick applies nothing");
    }

    for i in [fuel_out, early_ghost, late_ghost] {
        world.set(ids[i], SCRIPT_COMPONENT, Value::Str(String::new())).unwrap();
    }
    let (mut w_i, mut w_v) = (world.clone(), world.clone());
    let s_i = interp.tick(&mut w_i).unwrap();
    let s_v = vm.tick(&mut w_v).unwrap();
    assert_eq!(w_i.rows(), w_v.rows());
    assert_eq!((s_v.vm_runs, s_v.interp_runs), (N - 3, 0));
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
    let [mut interp, mut vm] = [ExecMode::Interp, ExecMode::Vm]
        .map(|mode| ScriptEngine::new(Level::Full).with_mode(mode));
    vm.attach_metrics(&registry);
    for engine in [&mut interp, &mut vm] {
        engine.ensure_binding_component(&mut world);
        engine.load("combat", COMBAT, &world).unwrap();
    }
    for id in world.entity_vec() {
        vm.bind(&mut world, id, "combat").unwrap();
    }
    let (ops_i, result_i, rows_i) = tick_outcome(&mut interp, &world);
    let (ops_v, result_v, rows_v) = tick_outcome(&mut vm, &world);
    assert_eq!((ops_i.len(), &ops_i, &rows_i), (2 * N, &ops_v, &rows_v));
    assert_eq!(result_v.unwrap().vm_runs, result_i.unwrap().interp_runs);
    let snap = registry.snapshot();
    let instrs = snap.counter("script.vm_instrs");
    let dispatches = snap.counter("script.vm_dispatches");
    // 213 per entity with no neighbour in range, ~6 more per candidate
    assert_eq!(instrs, 887_104, "{:.1} per entity", instrs as f64 / N as f64);
    assert!(instrs >= 512 * dispatches, "{instrs} instrs over {dispatches} dispatches");
}
