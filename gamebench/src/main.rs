//! `gamebench` — the repository's benchmark. One invocation runs one
//! workload (or all five): build the world (`setup_s`, median of several
//! builds), untimed warm-up, a closed loop of timed steps — `--seconds`
//! worth of ticks at the workload's nominal rate — then untimed
//! correctness checks. The last line of stdout
//! is the result object `BENCHMARK.json` describes. Times are corrected
//! for the core's speed at the moment they were taken (`calib`). See
//! README.md.
//!
//! Load model: closed loop, one client — the tick thread issues tick
//! t+1 only when tick t returned. The only other thread is the async WAL
//! writer the system under test starts itself.

mod alloc;
mod calib;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gamedb_metrics::MetricsRegistry;

use stats::{jmetric, jnum, jobj, jstr, median, percentile, Fnv};
use trace::{Probe, Span, TICK};
use workloads::{Env, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Used when `--seed` is absent (the driver always passes one).
const DEFAULT_SEED: u64 = 20_090_629;
const DEFAULT_SECONDS: f64 = 10.0;
/// `--quick` without `--seconds`: a tenth of the world, a tenth of the run.
const QUICK_SECONDS: f64 = 1.0;
/// World builds per untraced run; `setup_s` is their median. A world
/// that builds in milliseconds is built more often (up to
/// `SETUP_REPS_MAX`, until `SETUP_MIN_S` has been spent), or its median
/// would be mostly timer noise.
const SETUP_REPS: usize = 5;
const SETUP_REPS_MAX: usize = 25;
const SETUP_MIN_S: f64 = 1.0;
/// Every run times at least this many ticks, so that p95 has its ten
/// samples beyond it.
const MIN_TICKS: usize = 200;
/// The state digest and every count are taken when this many timed ticks
/// have run (at the workload's next cycle boundary), not at the end of the
/// time box: a fixed tick count, so they repeat exactly for a seed however
/// fast the machine is.
const PREFIX_TICKS: usize = 100;
/// A run (one workload) that is still going after this long aborts with
/// a non-zero exit instead of printing partial numbers.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// End-to-end metrics (name, unit), as `BENCHMARK.json` lists them.
/// `tick_p95_ms` is reported beside them but not gated: its spread between
/// identical runs in this sandbox (6–22 %) is wider than any bound the
/// contract allows could hold with a margin.
const END_TO_END: [(&str, &str); 3] = [
    ("ticks_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("setup_s", "s"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`
            "--trace" => {
                a.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.seconds == 0.0 {
        a.seconds = if a.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    Ok(a)
}

/// `<target dir>/gamebench`: trace files and WAL backends live beside the
/// binary that wrote them, inside whatever checkout built it.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("gamebench")))
        .unwrap_or_else(|| PathBuf::from("target/gamebench"))
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Hash of `world.rows()` and the tick: identical seeds must give
/// identical digests.
fn state_digest(world: &gamedb_core::World) -> u64 {
    use gamedb_content::Value;
    let mut h = Fnv::new();
    h.u64(world.tick());
    for (id, name, value) in world.rows() {
        h.u64(id.to_bits());
        h.bytes(name.as_bytes());
        match value {
            Value::Float(f) => h.u64(u64::from(f.to_bits())),
            Value::Int(i) => h.u64(i as u64),
            Value::Bool(b) => h.u64(u64::from(b)),
            Value::Str(s) => h.bytes(s.as_bytes()),
            Value::Vec2(x, y) => {
                h.u64(u64::from(x.to_bits()));
                h.u64(u64::from(y.to_bits()));
            }
        }
    }
    h.0
}

/// What one measured run (warm-up excluded) produced. Times are in
/// reference-core units (see `calib`) unless named `raw_`.
#[derive(Default)]
struct Measured {
    tick_ms: Vec<f64>,
    /// Sum of every timed step plus the drain.
    wall_s: f64,
    drain_ms: f64,
    /// The same, as the wall clock read them.
    raw_tick_ms: Vec<f64>,
    raw_wall_s: f64,
    /// Median core slowdown over the run (1.0 = the reference core).
    slowdown: f64,
    attempted: u64,
    failed: u64,
    /// Tick-thread allocations inside the tick steps of the fixed prefix.
    allocs: u64,
    /// Counts over the fixed prefix (`.peak` names: maxima of the run).
    counts: BTreeMap<&'static str, f64>,
    /// Ticks in the fixed prefix the counts and the digest cover.
    prefix_ticks: usize,
    digest: u64,
    failures: Vec<String>,
    spans: Vec<Span>,
}

impl Measured {
    fn ticks(&self) -> f64 {
        self.tick_ms.len() as f64
    }

    fn ticks_per_s(&self) -> f64 {
        self.ticks() / self.wall_s
    }
}

fn measure(
    wl: &mut dyn Workload,
    seconds: f64,
    traced: bool,
    started: Instant,
) -> Result<Measured, String> {
    let mut off = Probe::new(false);
    let warmup = wl.warmup_steps();
    for s in 0..warmup {
        wl.prepare(s);
        wl.step(s, &mut off)
            .map_err(|e| format!("warm-up step {s}: {e}"))?;
        let bad = wl.check(s);
        if !bad.is_empty() {
            return Err(format!("warm-up step {s}: {}", bad.join("; ")));
        }
    }
    wl.reset_peaks();
    let base: BTreeMap<&'static str, f64> = wl.counts().into_iter().collect();

    let mut probe = Probe::new(traced);
    let mut m = Measured::default();
    // `--seconds` of ticks at the workload's nominal rate: a tick count,
    // so the run times the same ticks however fast the machine is today
    let target_ticks = ((wl.nominal_ticks_per_s() * seconds).ceil() as usize).max(MIN_TICKS);
    // per timed step: (wall seconds, is a tick); and the calibration
    // samples taken just before and just after each
    let mut steps: Vec<(f64, bool)> = Vec::new();
    let mut cal: Vec<f64> = Vec::new();
    let mut s = warmup;
    loop {
        if started.elapsed() > RUN_LIMIT {
            return Err(format!(
                "over-long run: {:?} elapsed at step {s}",
                started.elapsed()
            ));
        }
        wl.prepare(s);
        probe.set_tick(s);
        cal.push(calib::sample());
        let allocs0 = alloc::thread_allocs();
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| probe.span(TICK, |p| wl.step(s, p))));
        let dt = t0.elapsed().as_secs_f64();
        let allocs = alloc::thread_allocs() - allocs0;
        cal.push(calib::sample());
        m.raw_wall_s += dt;
        match out {
            Ok(Ok(step)) => {
                m.attempted += step.ops;
                steps.push((dt, step.is_tick));
                if step.is_tick {
                    m.raw_tick_ms.push(dt * 1e3);
                    if m.prefix_ticks == 0 {
                        m.allocs += allocs;
                    }
                }
            }
            Ok(Err(e)) => {
                m.attempted += 1;
                m.failed += 1;
                m.failures.push(format!("step {s}: {e}"));
                break; // the world may be half-written: stop, report failed
            }
            Err(_) => {
                m.attempted += 1;
                m.failed += 1;
                m.failures.push(format!("step {s}: panicked"));
                break;
            }
        }
        let bad = wl.check(s);
        m.failed += bad.len() as u64;
        m.failures.extend(bad);
        if traced {
            wl.side_probe(&mut probe);
        }
        if m.prefix_ticks == 0 && m.raw_tick_ms.len() >= PREFIX_TICKS && wl.at_boundary(s) {
            m.prefix_ticks = m.raw_tick_ms.len();
            for (name, v) in wl.counts() {
                m.counts
                    .insert(name, v - base.get(name).copied().unwrap_or(0.0));
            }
            m.digest = state_digest(wl.world());
        }
        let done = m.raw_tick_ms.len() >= target_ticks && m.prefix_ticks > 0 && wl.at_boundary(s);
        s += 1;
        if done {
            break;
        }
    }
    if m.failed == 0 {
        let t0 = Instant::now();
        if let Err(e) = wl.drain(&mut probe) {
            m.failed += 1;
            m.failures.push(format!("drain: {e}"));
        }
        let dt = t0.elapsed().as_secs_f64();
        m.raw_wall_s += dt;
        let last = calib::slowdown(&cal, steps.len().saturating_sub(1));
        m.wall_s += dt / last;
        m.drain_ms = dt * 1e3 / last;
        for (name, v) in wl.counts() {
            if name.ends_with(".peak") {
                m.counts.insert(name, v);
            }
        }
        let bad = wl.final_check();
        m.failed += bad.len() as u64;
        m.failures.extend(bad);
    }
    for (k, &(dt, is_tick)) in steps.iter().enumerate() {
        let dt = dt / calib::slowdown(&cal, k);
        m.wall_s += dt;
        if is_tick {
            m.tick_ms.push(dt * 1e3);
        }
    }
    m.slowdown = calib::slowdown_of(&cal);
    m.spans = probe.spans;
    Ok(m)
}

/// Per-layer metrics (name, unit, value) in `BENCHMARK.json` order. A
/// layer a workload does not touch reads 0.
fn layer_metrics(traced: &Measured, untraced: &Measured) -> Vec<(&'static str, &'static str, f64)> {
    let by = trace::reduce(&traced.spans);
    let ticks = traced.ticks().max(1.0);
    // span times are scaled by the run's median core slowdown, so they
    // are in the same reference-core units as the end-to-end times
    let ms = |ns: u64| ns as f64 / 1e6 / traced.slowdown;
    let self_ms = |n: &str| by.get(n).map_or(0.0, |s| ms(s.self_ns) / ticks);
    let us_per_call = |n: &str| {
        by.get(n)
            .filter(|s| s.calls > 0)
            .map_or(0.0, |s| ms(s.total_ns) * 1e3 / s.calls as f64)
    };
    let ms_per_span = |n: &str| {
        by.get(n)
            .filter(|s| s.spans > 0)
            .map_or(0.0, |s| ms(s.total_ns) / s.spans as f64)
    };
    let count = |n: &str| traced.counts.get(n).copied().unwrap_or(0.0);
    let per_tick = |n: &str| count(n) / (traced.prefix_ticks.max(1) as f64);
    let ratio = |a: &str, b: &str| {
        if count(b) > 0.0 {
            count(a) / count(b)
        } else {
            0.0
        }
    };
    // the script's own probes cannot be reached; script_tick times the
    // same call beside the tick instead
    let probe_us = match us_per_call("spatial.within") {
        v if v > 0.0 => v,
        _ => us_per_call("side.within"),
    };
    vec![
        ("sync.shard_ms", "ms", self_ms("sync.shard")),
        ("sync.exec_ms", "ms", self_ms("sync.exec")),
        ("sync.router_ms", "ms", self_ms("sync.router")),
        ("sync.repl_ms", "ms", self_ms("sync.repl")),
        (
            "sync.handoff_bytes",
            "B/tick",
            per_tick("sync.handoff_bytes"),
        ),
        (
            "sync.moved_entities",
            "1/tick",
            per_tick("sync.moved_entities"),
        ),
        (
            "sync.segment_bytes",
            "B/tick",
            per_tick("sync.segment_bytes"),
        ),
        ("sync.gated_ticks", "1/tick", per_tick("sync.gated_ticks")),
        (
            "sync.wire_bytes_per_tick",
            "B/tick",
            per_tick("sync.handoff_bytes") + per_tick("sync.segment_bytes"),
        ),
        ("script.tick_ms", "ms", self_ms("script.tick")),
        ("script.vm_instrs", "1/tick", per_tick("script.vm_instrs")),
        ("script.effects", "1/tick", per_tick("script.effects")),
        ("core.apply_ms", "ms", self_ms("core.apply")),
        ("core.changes", "1/tick", per_tick("core.changes")),
        ("core.view_ms", "ms", self_ms("core.view")),
        (
            "core.view_delta_rows",
            "1/tick",
            per_tick("core.view_delta_rows"),
        ),
        ("core.view_rescans", "1/tick", per_tick("core.view_rescans")),
        ("core.query_us.eq", "us", us_per_call("core.query.eq")),
        ("core.query_us.range", "us", us_per_call("core.query.range")),
        ("core.query_us.scan", "us", us_per_call("core.query.scan")),
        ("core.query_us.agg", "us", us_per_call("core.query.agg")),
        ("core.query_us.group", "us", us_per_call("core.query.group")),
        (
            "core.rows_examined_per_result",
            "ratio",
            ratio("core.rows_examined", "core.rows_returned"),
        ),
        ("spatial.probe_us", "us", probe_us),
        ("spatial.knn_us", "us", us_per_call("spatial.knn")),
        ("persist.commit_ms", "ms", self_ms("persist.commit")),
        ("persist.wait_ms", "ms", self_ms("persist.wait")),
        ("persist.drain_ms", "ms", traced.drain_ms),
        (
            "persist.max_watermark_lag",
            "count",
            count("persist.max_watermark_lag.peak"),
        ),
        ("persist.flushes", "1/tick", per_tick("persist.flushes")),
        (
            "persist.checkpoint_ms",
            "ms",
            ms_per_span("persist.checkpoint"),
        ),
        (
            "persist.snapshot_bytes",
            "B",
            ratio("persist.snapshot_bytes", "persist.checkpoints"),
        ),
        ("persist.recover_ms", "ms", ms_per_span("persist.recover")),
        (
            "persist.replayed_records",
            "count",
            ratio("persist.replayed_records", "persist.recoveries"),
        ),
        (
            "persist.write_amp",
            "ratio",
            ratio("persist.backend_bytes", "persist.user_bytes"),
        ),
        (
            "persist.wal_bytes_per_tick",
            "B/tick",
            per_tick("persist.backend_bytes"),
        ),
        (
            "tick.p95_ms",
            "ms",
            percentile(&untraced.tick_ms, 0.95).unwrap_or(0.0),
        ),
        (
            "metrics.overhead_ratio",
            "ratio",
            untraced.ticks_per_s() / traced.ticks_per_s(),
        ),
        (
            "alloc.per_tick",
            "1/tick",
            untraced.allocs as f64 / untraced.prefix_ticks.max(1) as f64,
        ),
    ]
}

/// The per-layer table and the top three layers by self time.
fn print_layer_table(workload: &str, traced: &Measured) {
    let by = trace::reduce(&traced.spans);
    let shares = trace::layer_shares(&by);
    let in_tick: u64 = shares
        .iter()
        .filter(|(l, _)| l != "side")
        .map(|(_, ns)| ns)
        .sum();
    println!(
        "# {workload}: self time per span name (traced run, {} ticks)",
        traced.tick_ms.len()
    );
    println!(
        "# {:<22} {:>8} {:>10} {:>12} {:>7}",
        "span", "spans", "calls", "self_ms", "share"
    );
    for (name, st) in &by {
        let share = if name.starts_with("side.") {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * st.self_ns as f64 / in_tick.max(1) as f64)
        };
        println!(
            "# {:<22} {:>8} {:>10} {:>12.3} {:>7}",
            name,
            st.spans,
            st.calls,
            st.self_ns as f64 / 1e6,
            share
        );
    }
    let top: Vec<String> = shares
        .iter()
        .filter(|(l, _)| l != "side")
        .take(3)
        .map(|(l, ns)| format!("{l} {:.1}%", 100.0 * *ns as f64 / in_tick.max(1) as f64))
        .collect();
    println!("# {workload}: top layers by self time: {}", top.join(", "));
}

/// Build the workload; returns it with its set-up time in reference-core
/// and in wall-clock seconds.
fn build(name: &str, env: &Env) -> Result<(Box<dyn Workload>, f64, f64), String> {
    let mut cal = vec![calib::sample(), calib::sample()];
    let t0 = Instant::now();
    let wl = workloads::build(name, env)?;
    let raw = t0.elapsed().as_secs_f64();
    cal.extend([calib::sample(), calib::sample()]);
    Ok((wl, raw / calib::slowdown_of(&cal), raw))
}

/// One workload, start to finish. Prints the layer table (traced), the
/// report line, and the contract's result line (last).
fn run_workload(name: &str, args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let out = out_dir();
    let mut env = Env {
        seed: args.seed,
        quick: args.quick,
        registry: None,
        tmp_root: out.join("tmp"),
    };

    let mut report: Vec<(&str, String)> = vec![
        ("workload", jstr(name)),
        ("seed", args.seed.to_string()),
        ("traced", args.trace.to_string()),
        ("quick", args.quick.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        ("git_rev", jstr(&git_rev())),
    ];
    let (metrics, m) = if args.trace {
        // the same seed twice: once bare, once with spans on and one
        // registry attached everywhere; half of `--seconds` each
        let (mut wl, ..) = build(name, &env)?;
        let untraced = measure(wl.as_mut(), args.seconds / 2.0, false, started)?;
        drop(wl);
        let registry = MetricsRegistry::new();
        env.registry = Some(registry.clone());
        let (mut wl, ..) = build(name, &env)?;
        report.push(("sizes", jstr(&wl.sizes())));
        let traced = measure(wl.as_mut(), args.seconds / 2.0, true, started)?;
        drop(wl);
        if untraced.digest != traced.digest {
            // spans and the registry are observers: same seed, same state
            return Err("traced and untraced runs reached different states".into());
        }
        std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
        let path = out.join(format!("trace-{name}.json"));
        let json = trace::to_json(
            name,
            args.seed,
            &traced.spans,
            &registry.snapshot().to_json(),
        );
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
        print_layer_table(name, &traced);
        report.push(("trace_file", jstr(&path.display().to_string())));
        let metrics = layer_metrics(&traced, &untraced);
        let mut m = traced;
        m.attempted += untraced.attempted;
        m.failed += untraced.failed;
        m.failures.extend(untraced.failures);
        (metrics, m)
    } else {
        let mut setups = Vec::new();
        let mut raw_setups = Vec::new();
        let mut wl = None;
        while setups.len() < SETUP_REPS
            || (setups.len() < SETUP_REPS_MAX && raw_setups.iter().sum::<f64>() < SETUP_MIN_S)
        {
            drop(wl.take()); // one world alive at a time
            let (built, secs, raw) = build(name, &env)?;
            setups.push(secs);
            raw_setups.push(raw);
            wl = Some(built);
        }
        let mut wl = wl.expect("SETUP_REPS > 0");
        report.push(("sizes", jstr(&wl.sizes())));
        let m = measure(wl.as_mut(), args.seconds, false, started)?;
        drop(wl);
        let p = |q: f64| {
            percentile(&m.tick_ms, q).ok_or(format!(
                "{} ticks are too few for p{}",
                m.tick_ms.len(),
                q * 100.0
            ))
        };
        let metrics = vec![
            ("ticks_per_s", "1/s", m.ticks_per_s()),
            ("tick_p50_ms", "ms", p(0.50)?),
            ("setup_s", "s", median(&setups).expect("SETUP_REPS > 0")),
        ];
        debug_assert!(metrics.iter().map(|m| (m.0, m.1)).eq(END_TO_END));
        // printed, never gated: they do not repeat well enough
        report.push(("tick_p95_ms", jnum(p(0.95)?)));
        if let Some(p99) = percentile(&m.tick_ms, 0.99) {
            report.push(("tick_p99_ms", jnum(p99)));
        }
        report.push((
            "tick_max_ms",
            jnum(m.tick_ms.iter().copied().fold(0.0, f64::max)),
        ));
        // the same as the wall clock read them, core speed and all
        let raw_p = |q: f64| percentile(&m.raw_tick_ms, q).expect("as many samples as tick_ms");
        report.push((
            "wall_clock",
            jobj(&[
                (
                    "ticks_per_s",
                    jnum(m.raw_tick_ms.len() as f64 / m.raw_wall_s),
                ),
                ("tick_p50_ms", jnum(raw_p(0.50))),
                ("tick_p95_ms", jnum(raw_p(0.95))),
                (
                    "setup_s",
                    jnum(median(&raw_setups).expect("SETUP_REPS > 0")),
                ),
            ]),
        ));
        (metrics, m)
    };

    for f in &m.failures {
        eprintln!("gamebench: {name}: FAILED {f}");
    }
    let metrics_json = jobj(
        &metrics
            .iter()
            .map(|&(n, unit, v)| (n, jmetric(v, unit)))
            .collect::<Vec<_>>(),
    );
    report.extend([
        ("samples", m.tick_ms.len().to_string()),
        ("digest_at_tick", m.prefix_ticks.to_string()),
        ("core_slowdown", jnum(m.slowdown)),
        ("wall_s", jnum(m.raw_wall_s)),
        ("elapsed_s", jnum(started.elapsed().as_secs_f64())),
        ("ops_attempted", m.attempted.to_string()),
        ("ops_failed", m.failed.to_string()),
        ("state_digest", jstr(&format!("{:016x}", m.digest))),
        ("metrics", metrics_json.clone()),
    ]);
    println!("{}", jobj(&report));
    println!(
        "{}",
        jobj(&[
            ("correct", (m.failed == 0).to_string()),
            ("attempted", m.attempted.max(1).to_string()),
            // several failed checks can land on one tick
            ("failed", m.failed.min(m.attempted.max(1)).to_string()),
            ("metrics", metrics_json),
        ])
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gamebench: {e}");
            eprintln!(
                "usage: gamebench [--workload <{}>] [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--quick]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    for name in names {
        // a run that cannot finish prints no result and exits non-zero;
        // a run that finished with failed checks prints `correct: false`
        if let Err(e) = run_workload(name, &args) {
            eprintln!("gamebench: {name}: {e}");
            return ExitCode::from(3);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the binary must name the same metrics with
    /// the same units, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_binary() {
        // compared with all whitespace removed, so the file may be laid
        // out however its author likes
        let spec: String = include_str!("../../BENCHMARK.json")
            .split_whitespace()
            .collect();
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(spec.contains(&entry), "end_to_end lacks {entry}");
        }
        let empty = Measured {
            tick_ms: vec![1.0],
            wall_s: 1.0,
            slowdown: 1.0,
            prefix_ticks: 1,
            ..Measured::default()
        };
        for (name, unit, value) in layer_metrics(&empty, &empty) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(spec.contains(&entry), "per_layer lacks {entry}");
            assert!(value.is_finite());
        }
        for w in workloads::NAMES {
            assert!(
                spec.contains(&format!("\"name\":\"{w}\"")),
                "workloads lacks {w}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = jobj(&[("setup_s", jmetric(0.5, "s"))]);
        let line = jobj(&[
            ("correct", true.to_string()),
            ("attempted", 7.to_string()),
            ("failed", 0.to_string()),
            ("metrics", metrics),
        ]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
