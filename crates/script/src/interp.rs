//! Tree-walking interpreter for GSL: the executable semantics the
//! bytecode VM ([`crate::vm`]) is tested against, not an engine executor.
//!
//! The interpreter runs one script for one entity against the immutable
//! tick-start world, emitting effects into an [`EffectBuffer`] — the
//! state–effect discipline of the core crate. The [`ExecOptions::use_index`]
//! flag selects between spatial-index neighbor enumeration and the naive
//! full scan: flipping it is how experiment E1 produces its Ω(n²) versus
//! O(n·k) curves *from the same script*.

use std::collections::BTreeMap;
use std::fmt;

use gamedb_content::{Value, ValueType};
use gamedb_core::{Effect, EffectBuffer, EntityId, World};
use gamedb_spatial::Vec2;

use crate::ast::{AggKind, AssignOp, BinOp, BuiltinFn, Expr, Script, Stmt, Subject};

/// A script runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum SVal {
    Num(f64),
    Bool(bool),
    Str(String),
}

impl SVal {
    fn type_name(&self) -> &'static str {
        match self {
            SVal::Num(_) => "num",
            SVal::Bool(_) => "bool",
            SVal::Str(_) => "str",
        }
    }

    fn as_num(&self) -> Result<f64, RuntimeError> {
        match self {
            SVal::Num(n) => Ok(*n),
            other => Err(RuntimeError::TypeError(format!(
                "expected num, got {}",
                other.type_name()
            ))),
        }
    }

    fn as_bool(&self) -> Result<bool, RuntimeError> {
        match self {
            SVal::Bool(b) => Ok(*b),
            other => Err(RuntimeError::TypeError(format!(
                "expected bool, got {}",
                other.type_name()
            ))),
        }
    }
}

/// Runtime failures. Well-typed scripts can still hit the dynamic limits
/// (call depth, loop fuel) — those are the runtime's defense against
/// designer scripts that hang the frame.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    UnknownScript(String),
    CallDepthExceeded { script: String, limit: usize },
    LoopFuelExhausted { limit: usize },
    TypeError(String),
    /// Script needs a position (within/move) but the entity has none.
    NoPosition(EntityId),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownScript(s) => write!(f, "unknown script '{s}'"),
            RuntimeError::CallDepthExceeded { script, limit } => {
                write!(f, "call depth {limit} exceeded at '{script}'")
            }
            RuntimeError::LoopFuelExhausted { limit } => {
                write!(f, "loop fuel exhausted ({limit} iterations)")
            }
            RuntimeError::TypeError(m) => write!(f, "type error: {m}"),
            RuntimeError::NoPosition(id) => write!(f, "entity {id} has no position"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Execution knobs, the interpreter's and the VM's alike (the VM bakes
/// `max_call_depth` into a program when it lowers it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOptions {
    /// Use the world's spatial index for `within` (true) or scan every
    /// entity (false — the Ω(n²) baseline).
    pub use_index: bool,
    /// Maximum `call` nesting.
    pub max_call_depth: usize,
    /// Total `while`-loop iterations allowed per script run.
    pub loop_fuel: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            use_index: true,
            max_call_depth: 16,
            loop_fuel: 100_000,
        }
    }
}

/// A library of named scripts (`call` resolves against this).
#[derive(Debug, Clone, Default)]
pub struct ScriptLibrary {
    scripts: BTreeMap<String, Script>,
}

impl ScriptLibrary {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add or replace a script.
    pub fn insert(&mut self, script: Script) {
        self.scripts.insert(script.name.clone(), script);
    }

    /// Script by name.
    pub fn get(&self, name: &str) -> Option<&Script> {
        self.scripts.get(name)
    }

    /// All scripts, name-ordered.
    pub fn iter(&self) -> impl Iterator<Item = &Script> {
        self.scripts.values()
    }

    /// Number of scripts.
    pub fn len(&self) -> usize {
        self.scripts.len()
    }

    /// True when the library is empty.
    pub fn is_empty(&self) -> bool {
        self.scripts.is_empty()
    }
}

/// Output of one script run (besides the effects in the buffer).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutput {
    /// Events emitted via `emit "…"` in emission order.
    pub events: Vec<String>,
}

struct Interp<'a> {
    lib: &'a ScriptLibrary,
    world: &'a World,
    buf: &'a mut EffectBuffer,
    opts: ExecOptions,
    self_id: EntityId,
    other: Option<EntityId>,
    /// locals as a stack of (name, value); linear scan is fine at script
    /// scale and keeps shadowing trivial
    locals: Vec<(String, SVal)>,
    events: Vec<String>,
    call_depth: usize,
    fuel: usize,
    neighbor_scratch: Vec<EntityId>,
}

impl<'a> Interp<'a> {
    fn read_comp(&self, id: EntityId, comp: &str) -> Result<SVal, RuntimeError> {
        if comp == "x" || comp == "y" {
            let p = self
                .world
                .pos(id)
                .ok_or(RuntimeError::NoPosition(id))?;
            return Ok(SVal::Num(if comp == "x" { p.x } else { p.y } as f64));
        }
        // Missing values read as the type's zero — designer-friendly,
        // consistent with Add-to-absent semantics in the effect layer.
        match self.world.component_type(comp) {
            Some(ValueType::Float) | Some(ValueType::Int) => {
                Ok(SVal::Num(self.world.get_number(id, comp).unwrap_or(0.0)))
            }
            Some(ValueType::Bool) => Ok(SVal::Bool(self.world.get_bool(id, comp).unwrap_or(false))),
            Some(ValueType::Str) => Ok(SVal::Str(match self.world.get(id, comp) {
                Some(Value::Str(s)) => s,
                _ => String::new(),
            })),
            Some(ValueType::Vec2) => Err(RuntimeError::TypeError(format!(
                "component '{comp}' is vec2"
            ))),
            None => Err(RuntimeError::TypeError(format!(
                "unknown component '{comp}'"
            ))),
        }
    }

    fn subject_id(&self, s: Subject) -> Result<EntityId, RuntimeError> {
        match s {
            Subject::SelfEnt => Ok(self.self_id),
            Subject::Other => self.other.ok_or_else(|| {
                RuntimeError::TypeError("'other' used outside foreach/aggregate".into())
            }),
        }
    }

    fn self_pos(&self) -> Result<Vec2, RuntimeError> {
        self.world
            .pos(self.self_id)
            .ok_or(RuntimeError::NoPosition(self.self_id))
    }

    /// Enumerate neighbors within `radius` of self, excluding self.
    fn neighbors(&mut self, radius: f64) -> Result<Vec<EntityId>, RuntimeError> {
        let center = self.self_pos()?;
        let r = radius.max(0.0) as f32;
        self.neighbor_scratch.clear();
        if self.opts.use_index {
            self.world.within(center, r, &mut self.neighbor_scratch);
            self.neighbor_scratch.retain(|&e| e != self.self_id);
        } else {
            // the naive path: scan everything, test distance
            let r2 = r * r;
            for e in self.world.entities() {
                if e == self.self_id {
                    continue;
                }
                if let Some(p) = self.world.pos(e) {
                    if p.dist2(center) <= r2 {
                        self.neighbor_scratch.push(e);
                    }
                }
            }
        }
        Ok(std::mem::take(&mut self.neighbor_scratch))
    }

    fn eval(&mut self, e: &Expr) -> Result<SVal, RuntimeError> {
        match e {
            Expr::Num(n) => Ok(SVal::Num(*n)),
            Expr::Bool(b) => Ok(SVal::Bool(*b)),
            Expr::Str(s) => Ok(SVal::Str(s.clone())),
            Expr::Var(name) => self
                .locals
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| RuntimeError::TypeError(format!("undeclared variable '{name}'"))),
            Expr::Comp(subject, comp) => {
                let id = self.subject_id(*subject)?;
                self.read_comp(id, comp)
            }
            Expr::Unary { neg, not, inner } => {
                let v = self.eval(inner)?;
                if *not {
                    return Ok(SVal::Bool(!v.as_bool()?));
                }
                if *neg {
                    return Ok(SVal::Num(-v.as_num()?));
                }
                Ok(v)
            }
            Expr::Bin { op, lhs, rhs } => {
                // short-circuit logic first
                if op.is_logic() {
                    let l = self.eval(lhs)?.as_bool()?;
                    return match op {
                        BinOp::And => {
                            if !l {
                                Ok(SVal::Bool(false))
                            } else {
                                Ok(SVal::Bool(self.eval(rhs)?.as_bool()?))
                            }
                        }
                        BinOp::Or => {
                            if l {
                                Ok(SVal::Bool(true))
                            } else {
                                Ok(SVal::Bool(self.eval(rhs)?.as_bool()?))
                            }
                        }
                        _ => unreachable!(),
                    };
                }
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                if op.is_cmp() {
                    let ord = match (&l, &r) {
                        (SVal::Num(a), SVal::Num(b)) => a.partial_cmp(b),
                        (SVal::Str(a), SVal::Str(b)) => Some(a.cmp(b)),
                        (SVal::Bool(a), SVal::Bool(b)) => Some(a.cmp(b)),
                        _ => {
                            return Err(RuntimeError::TypeError(format!(
                                "cannot compare {} with {}",
                                l.type_name(),
                                r.type_name()
                            )))
                        }
                    };
                    use std::cmp::Ordering::*;
                    let result = match (op, ord) {
                        (BinOp::Eq, Some(Equal)) => true,
                        (BinOp::Eq, _) => false,
                        (BinOp::Ne, Some(Equal)) => false,
                        (BinOp::Ne, _) => true,
                        (BinOp::Lt, Some(Less)) => true,
                        (BinOp::Le, Some(Less | Equal)) => true,
                        (BinOp::Gt, Some(Greater)) => true,
                        (BinOp::Ge, Some(Greater | Equal)) => true,
                        _ => false,
                    };
                    return Ok(SVal::Bool(result));
                }
                let (a, b) = (l.as_num()?, r.as_num()?);
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            0.0 // scripts never crash the server on ÷0
                        } else {
                            a / b
                        }
                    }
                    BinOp::Rem => {
                        if b == 0.0 {
                            0.0
                        } else {
                            a % b
                        }
                    }
                    _ => unreachable!("logic/cmp handled above"),
                };
                Ok(SVal::Num(v))
            }
            Expr::DistToOther => {
                let other = self.subject_id(Subject::Other)?;
                let sp = self.self_pos()?;
                let op = self
                    .world
                    .pos(other)
                    .ok_or(RuntimeError::NoPosition(other))?;
                Ok(SVal::Num(sp.dist(op) as f64))
            }
            Expr::Builtin { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?.as_num()?);
                }
                let v = match name {
                    BuiltinFn::Min => vals[0].min(vals[1]),
                    BuiltinFn::Max => vals[0].max(vals[1]),
                    BuiltinFn::Abs => vals[0].abs(),
                    BuiltinFn::Clamp => vals[0].clamp(vals[1].min(vals[2]), vals[2].max(vals[1])),
                };
                Ok(SVal::Num(v))
            }
            Expr::Agg {
                kind,
                radius,
                arg,
                filter,
            } => {
                let r = self.eval(radius)?.as_num()?;
                let candidates = self.neighbors(r)?;
                let saved_other = self.other;
                let mut count = 0usize;
                let mut sum = 0.0f64;
                let mut minv = f64::INFINITY;
                let mut maxv = f64::NEG_INFINITY;
                for cand in candidates {
                    self.other = Some(cand);
                    if let Some(f) = filter {
                        if !self.eval(f)?.as_bool()? {
                            continue;
                        }
                    }
                    count += 1;
                    if let Some(a) = arg {
                        let v = self.eval(a)?.as_num()?;
                        sum += v;
                        minv = minv.min(v);
                        maxv = maxv.max(v);
                    }
                }
                self.other = saved_other;
                let out = match kind {
                    AggKind::Count => count as f64,
                    AggKind::Sum => sum,
                    AggKind::Min => {
                        if count == 0 {
                            0.0
                        } else {
                            minv
                        }
                    }
                    AggKind::Max => {
                        if count == 0 {
                            0.0
                        } else {
                            maxv
                        }
                    }
                    AggKind::Avg => {
                        if count == 0 {
                            0.0
                        } else {
                            sum / count as f64
                        }
                    }
                };
                Ok(SVal::Num(out))
            }
            Expr::NearestDist { radius } => {
                let r = self.eval(radius)?.as_num()?;
                let center = self.self_pos()?;
                let candidates = self.neighbors(r)?;
                let mut best = r;
                for cand in candidates {
                    if let Some(p) = self.world.pos(cand) {
                        best = best.min(p.dist(center) as f64);
                    }
                }
                Ok(SVal::Num(best))
            }
        }
    }

    /// Convert a script value into the component's declared type.
    fn to_component_value(
        &self,
        comp: &str,
        v: SVal,
    ) -> Result<Value, RuntimeError> {
        let ty = self
            .world
            .component_type(comp)
            .ok_or_else(|| RuntimeError::TypeError(format!("unknown component '{comp}'")))?;
        match (ty, v) {
            (ValueType::Float, SVal::Num(n)) => Ok(Value::Float(n as f32)),
            (ValueType::Int, SVal::Num(n)) => Ok(Value::Int(n.round() as i64)),
            (ValueType::Bool, SVal::Bool(b)) => Ok(Value::Bool(b)),
            (ValueType::Str, SVal::Str(s)) => Ok(Value::Str(s)),
            (ty, v) => Err(RuntimeError::TypeError(format!(
                "cannot store {} into {ty} component '{comp}'",
                v.type_name()
            ))),
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<(), RuntimeError> {
        let mark = self.locals.len();
        for s in stmts {
            self.exec(s)?;
        }
        self.locals.truncate(mark);
        Ok(())
    }

    fn exec(&mut self, s: &Stmt) -> Result<(), RuntimeError> {
        match s {
            Stmt::Let { name, value } => {
                let v = self.eval(value)?;
                self.locals.push((name.clone(), v));
            }
            Stmt::AssignVar { name, value } => {
                let v = self.eval(value)?;
                match self.locals.iter_mut().rev().find(|(n, _)| n == name) {
                    Some((_, slot)) => *slot = v,
                    None => {
                        return Err(RuntimeError::TypeError(format!(
                            "undeclared variable '{name}'"
                        )))
                    }
                }
            }
            Stmt::AssignComp {
                subject,
                component,
                op,
                value,
            } => {
                let target = self.subject_id(*subject)?;
                let v = self.eval(value)?;
                match op {
                    AssignOp::Set => {
                        let cv = self.to_component_value(component, v)?;
                        self.buf.push(target, component, Effect::Set(cv));
                    }
                    AssignOp::Add | AssignOp::Sub => {
                        let n = v.as_num()?;
                        let delta = if *op == AssignOp::Add { n } else { -n };
                        self.buf.push(target, component, Effect::Add(delta));
                    }
                }
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                if self.eval(cond)?.as_bool()? {
                    self.exec_block(then_block)?;
                } else {
                    self.exec_block(else_block)?;
                }
            }
            Stmt::Foreach { radius, body } => {
                let r = self.eval(radius)?.as_num()?;
                let candidates = self.neighbors(r)?;
                let saved = self.other;
                for cand in candidates {
                    self.other = Some(cand);
                    self.exec_block(body)?;
                }
                self.other = saved;
            }
            Stmt::While { cond, body } => {
                while self.eval(cond)?.as_bool()? {
                    if self.fuel == 0 {
                        return Err(RuntimeError::LoopFuelExhausted {
                            limit: self.opts.loop_fuel,
                        });
                    }
                    self.fuel -= 1;
                    self.exec_block(body)?;
                }
            }
            Stmt::Move { dx, dy } => {
                let dx = self.eval(dx)?.as_num()? as f32;
                let dy = self.eval(dy)?.as_num()? as f32;
                self.buf
                    .push(self.self_id, gamedb_core::POS, Effect::AddVec2(dx, dy));
            }
            Stmt::Despawn => {
                self.buf.despawn(self.self_id);
            }
            Stmt::Call { script } => {
                if self.call_depth >= self.opts.max_call_depth {
                    return Err(RuntimeError::CallDepthExceeded {
                        script: script.clone(),
                        limit: self.opts.max_call_depth,
                    });
                }
                let callee = self
                    .lib
                    .get(script)
                    .ok_or_else(|| RuntimeError::UnknownScript(script.clone()))?
                    .clone();
                self.call_depth += 1;
                // callee gets a fresh local scope, shares effects/events
                let saved_locals = std::mem::take(&mut self.locals);
                let result = self.exec_block(&callee.body);
                self.locals = saved_locals;
                self.call_depth -= 1;
                result?;
            }
            Stmt::Emit { event } => {
                self.events.push(event.clone());
            }
        }
        Ok(())
    }
}

/// Run one script for one entity. Effects land in `buf`; emitted events
/// are returned.
pub fn run_script(
    lib: &ScriptLibrary,
    name: &str,
    world: &World,
    self_id: EntityId,
    buf: &mut EffectBuffer,
    opts: ExecOptions,
) -> Result<RunOutput, RuntimeError> {
    let script = lib
        .get(name)
        .ok_or_else(|| RuntimeError::UnknownScript(name.to_string()))?;
    let mut interp = Interp {
        lib,
        world,
        buf,
        opts,
        self_id,
        other: None,
        locals: Vec::new(),
        events: Vec::new(),
        call_depth: 0,
        fuel: opts.loop_fuel,
        neighbor_scratch: Vec::new(),
    };
    interp.exec_block(&script.body)?;
    Ok(RunOutput {
        events: interp.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script;
    use gamedb_core::TickExecutor;

    fn lib(sources: &[(&str, &str)]) -> ScriptLibrary {
        let mut l = ScriptLibrary::new();
        for (name, src) in sources {
            l.insert(parse_script(name, src).unwrap());
        }
        l
    }

    fn duel_world() -> (World, EntityId, EntityId) {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        let a = w.spawn_at(Vec2::new(0.0, 0.0));
        let b = w.spawn_at(Vec2::new(3.0, 0.0));
        for (e, team) in [(a, "red"), (b, "blue")] {
            w.set_f32(e, "hp", 100.0).unwrap();
            w.set_f32(e, "dmg", 10.0).unwrap();
            w.set(e, "team", Value::Str(team.into())).unwrap();
        }
        (w, a, b)
    }

    fn run_for(
        l: &ScriptLibrary,
        name: &str,
        w: &mut World,
        id: EntityId,
    ) -> RunOutput {
        let mut buf = EffectBuffer::new();
        let out = run_script(l, name, w, id, &mut buf, ExecOptions::default()).unwrap();
        buf.apply(w).unwrap();
        out
    }

    #[test]
    fn attack_nearest_via_foreach() {
        let l = lib(&[(
            "attack",
            r#"foreach within (5) {
                 if other.team != self.team {
                   other.hp -= self.dmg;
                 }
               }"#,
        )]);
        let (mut w, a, b) = duel_world();
        run_for(&l, "attack", &mut w, a);
        assert_eq!(w.get_f32(b, "hp"), Some(90.0));
        assert_eq!(w.get_f32(a, "hp"), Some(100.0), "same team untouched");
    }

    #[test]
    fn aggregates_match_foreach_semantics() {
        let l = lib(&[(
            "threat",
            r#"let enemies = count(10; other.team != self.team);
               let total_dmg = sum(10; other.dmg; other.team != self.team);
               self.hp = enemies * 1000 + total_dmg;"#,
        )]);
        let (mut w, a, _b) = duel_world();
        run_for(&l, "threat", &mut w, a);
        assert_eq!(w.get_f32(a, "hp"), Some(1010.0));
    }

    #[test]
    fn index_and_naive_agree() {
        let l = lib(&[(
            "s",
            "self.hp = count(8) + sum(8; other.dmg) + nearest_dist(8);",
        )]);
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        let mut ids = vec![];
        for i in 0..40 {
            let e = w.spawn_at(Vec2::new((i % 8) as f32 * 2.0, (i / 8) as f32 * 2.0));
            w.set_f32(e, "dmg", i as f32).unwrap();
            ids.push(e);
        }
        for &id in &ids {
            let mut b1 = EffectBuffer::new();
            let mut b2 = EffectBuffer::new();
            run_script(&l, "s", &w, id, &mut b1, ExecOptions::default()).unwrap();
            run_script(
                &l,
                "s",
                &w,
                id,
                &mut b2,
                ExecOptions {
                    use_index: false,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut w1 = w.clone();
            let mut w2 = w.clone();
            b1.apply(&mut w1).unwrap();
            b2.apply(&mut w2).unwrap();
            assert_eq!(w1.get_f32(id, "hp"), w2.get_f32(id, "hp"));
        }
    }

    #[test]
    fn move_and_despawn() {
        let l = lib(&[("go", "move(2, -1); if self.hp < 5 { despawn; }")]);
        let (mut w, a, _) = duel_world();
        run_for(&l, "go", &mut w, a);
        assert_eq!(w.pos(a), Some(Vec2::new(2.0, -1.0)));
        assert!(w.is_live(a));
        w.set_f32(a, "hp", 1.0).unwrap();
        run_for(&l, "go", &mut w, a);
        assert!(!w.is_live(a));
    }

    #[test]
    fn while_loop_and_locals() {
        let l = lib(&[(
            "countdown",
            r#"let n = 5;
               let total = 0;
               while n > 0 {
                 total = total + n;
                 n = n - 1;
               }
               self.hp = total;"#,
        )]);
        let (mut w, a, _) = duel_world();
        run_for(&l, "countdown", &mut w, a);
        assert_eq!(w.get_f32(a, "hp"), Some(15.0));
    }

    #[test]
    fn loop_fuel_guards_infinite_loops() {
        let l = lib(&[("spin", "while true { self.hp += 1; }")]);
        let (w, a, _) = duel_world();
        let mut buf = EffectBuffer::new();
        let err = run_script(
            &l,
            "spin",
            &w,
            a,
            &mut buf,
            ExecOptions {
                loop_fuel: 100,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::LoopFuelExhausted { .. }));
    }

    #[test]
    fn call_chains_and_depth_limit() {
        let l = lib(&[
            ("main", "call buff; call buff;"),
            ("buff", "self.hp += 1;"),
        ]);
        let (mut w, a, _) = duel_world();
        run_for(&l, "main", &mut w, a);
        assert_eq!(w.get_f32(a, "hp"), Some(102.0));

        let rec = lib(&[("r", "call r;")]);
        let mut buf = EffectBuffer::new();
        let err = run_script(&rec, "r", &w, a, &mut buf, ExecOptions::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::CallDepthExceeded { .. }));
    }

    #[test]
    fn emit_collects_events() {
        let l = lib(&[("alarm", r#"emit "intruder"; emit "sound_horn";"#)]);
        let (mut w, a, _) = duel_world();
        let out = run_for(&l, "alarm", &mut w, a);
        assert_eq!(out.events, vec!["intruder", "sound_horn"]);
    }

    #[test]
    fn missing_component_reads_as_zero() {
        let l = lib(&[("s", "self.hp = self.dmg + 1;")]);
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        let e = w.spawn_at(Vec2::ZERO); // no dmg set
        run_for(&l, "s", &mut w, e);
        assert_eq!(w.get_f32(e, "hp"), Some(1.0));
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let l = lib(&[("s", "self.hp = 10 / self.dmg;")]);
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        run_for(&l, "s", &mut w, e);
        assert_eq!(w.get_f32(e, "hp"), Some(0.0));
    }

    #[test]
    fn int_components_round() {
        let l = lib(&[("s", "self.gold = 7 / 2;")]);
        let mut w = World::new();
        w.define_component("gold", ValueType::Int).unwrap();
        let e = w.spawn_at(Vec2::ZERO);
        run_for(&l, "s", &mut w, e);
        assert_eq!(w.get_i64(e, "gold"), Some(4)); // 3.5 rounds to 4
    }

    #[test]
    fn scripts_as_tick_systems() {
        // run a script for every entity through the tick executor
        let l = lib(&[(
            "drain",
            "foreach within (4) { other.hp -= 1; } self.hp += 0.5;",
        )]);
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        for i in 0..10 {
            let e = w.spawn_at(Vec2::new(i as f32 * 2.0, 0.0));
            w.set_f32(e, "hp", 10.0).unwrap();
        }
        let lib_ref = &l;
        let system = move |id: EntityId, world: &World, buf: &mut EffectBuffer| {
            run_script(lib_ref, "drain", world, id, buf, ExecOptions::default()).unwrap();
        };
        TickExecutor::sequential().run_tick(&mut w, &[&system]).unwrap();
        // spacing 2, radius 4 (closed disk): middle entities are attacked
        // by 4 neighbors => 10 - 4 + 0.5; edge entity by 2 => 10 - 2 + 0.5
        let ids: Vec<EntityId> = w.entities().collect();
        assert_eq!(w.get_f32(ids[5], "hp"), Some(6.5));
        assert_eq!(w.get_f32(ids[0], "hp"), Some(8.5));
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        // rhs would error (other outside foreach) but && short-circuits
        let l = lib(&[("s", "if false && dist(other) < 1 { despawn; }")]);
        let (mut w, a, _) = duel_world();
        run_for(&l, "s", &mut w, a);
        assert!(w.is_live(a));
    }
}
