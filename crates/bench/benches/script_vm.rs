//! Criterion bench for the GSL bytecode VM.
//!
//! `script_vm`: a 100k-entity E1-style scripted tick, the tree-walking
//! interpreter entity by entity vs the register VM set-at-a-time
//! (`Vm::run_set`), identical semantics (the equivalence suite pins
//! that). Before the criterion groups run, a single timed tick of each
//! engine asserts the VM's ≥4x throughput floor, so `cargo bench --bench
//! script_vm` doubles as a perf regression gate.
//!
//! `script_scaling` (experiment E1): a neighbour-count script across world
//! sizes — interpreted over a naive full scan, interpreted through the
//! spatial index, and set-at-a-time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gamedb_bench::constant_density_world;
use gamedb_core::{EffectBuffer, EntityId, World};
use gamedb_script::{
    compile_program, parse_script, run_script, ExecOptions, Program, ScriptLibrary, Vm,
};
use std::time::Instant;

const N: usize = 100_000;
// E1-style per-entity combat tick: spatial aggregates feed a damage
// model evaluated in script. The radius keeps the (engine-independent)
// index probe from drowning out script execution, which is what this
// bench compares.
const SRC: &str = "let threat = count(2; other.team != self.team);\n\
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
const SCALING_SRC: &str = "self.hp -= count(8; other.team != self.team) * 0.1; self.hp += 0.05;";

fn tick_interp(lib: &ScriptLibrary, world: &World, ids: &[EntityId], opts: ExecOptions) -> usize {
    let mut buf = EffectBuffer::new();
    for &id in ids {
        run_script(lib, "combat", world, id, &mut buf, opts).unwrap();
    }
    buf.len()
}

fn tick_vm(vm: &mut Vm, program: &Program, world: &World, ids: &[EntityId]) -> usize {
    let mut buf = EffectBuffer::new();
    let mut events = Vec::new();
    vm.run_set(program, world, ids, &mut buf, ExecOptions::default(), &mut events)
        .unwrap();
    buf.len()
}

fn bench_script_vm(c: &mut Criterion) {
    let (world, ids) = constant_density_world(N, 0.05, 7);
    let mut lib = ScriptLibrary::new();
    lib.insert(parse_script("combat", SRC).unwrap());
    let program = compile_program(&lib, "combat", &world).unwrap();
    let mut vm = Vm::new();
    let opts = ExecOptions::default();

    // warm both paths (index build, allocator), then gate on one timed
    // tick each: the VM must clear 4x the interpreter
    tick_interp(&lib, &world, &ids, opts);
    tick_vm(&mut vm, &program, &world, &ids);
    let t = Instant::now();
    let a = tick_interp(&lib, &world, &ids, opts);
    let interp_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let b = tick_vm(&mut vm, &program, &world, &ids);
    let vm_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(a, b, "engines emitted different effect counts");
    let speedup = interp_ms / vm_ms.max(1e-9);
    println!("script_vm floor: interp {interp_ms:.1} ms/tick, vm {vm_ms:.1} ms/tick ({speedup:.2}x)");
    assert!(
        speedup >= 4.0,
        "bytecode VM below the 4x floor: interp {interp_ms:.1} ms vs vm {vm_ms:.1} ms ({speedup:.2}x)"
    );

    let mut group = c.benchmark_group("script_vm");
    group.sample_size(10);
    group.bench_function("interp_100k", |bch| {
        bch.iter(|| tick_interp(&lib, &world, &ids, opts))
    });
    group.bench_function("vm_100k", |bch| {
        bch.iter(|| tick_vm(&mut vm, &program, &world, &ids))
    });
    group.finish();
}

fn bench_script_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("script_scaling");
    group.sample_size(10);
    for &n in &[250usize, 1000, 4000] {
        let (world, ids) = constant_density_world(n, 0.05, 7);
        let mut lib = ScriptLibrary::new();
        lib.insert(parse_script("combat", SCALING_SRC).unwrap());
        let program = compile_program(&lib, "combat", &world).unwrap();
        let mut vm = Vm::new();
        if n <= 1000 {
            let naive = ExecOptions {
                use_index: false,
                ..Default::default()
            };
            group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
                b.iter(|| tick_interp(&lib, &world, &ids, naive))
            });
        }
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| tick_interp(&lib, &world, &ids, ExecOptions::default()))
        });
        group.bench_with_input(BenchmarkId::new("set_at_a_time", n), &n, |b, _| {
            b.iter(|| tick_vm(&mut vm, &program, &world, &ids))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_script_vm, bench_script_scaling);
criterion_main!(benches);
