//! Script compilation: from designer AST to specialized closures.
//!
//! This is the "declarative processing" step of the paper's reference
//! \[11\]: instead of re-interpreting the AST per entity per tick, the
//! engine compiles each script once — resolving locals to dense slots,
//! component references to typed accessors, and aggregate expressions to
//! index-backed evaluation — and then runs the compiled form for every
//! entity. The asymptotic win over naive scripts comes from the spatial
//! index; compilation removes the interpretive constant factor on top
//! (experiment E1 reports all three curves).
//!
//! Compilation is *total* for the restricted language level. Scripts that
//! use string-valued locals or other rarely-used dynamic features fall
//! back to the interpreter ([`CompileError::Unsupported`]).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{compare, Effect, EffectBuffer, EntityId, Query, World, POS};
use gamedb_spatial::Vec2;

use crate::ast::{AggKind, AssignOp, BinOp, BuiltinFn, Expr, Script, Stmt, Subject};
use crate::interp::{RuntimeError, ScriptLibrary};
use crate::types::Ty;

/// Why a script could not be compiled (it still runs interpreted).
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The script (or a callee) uses a feature outside the compilable
    /// subset.
    Unsupported(String),
    /// `call` target missing from the library.
    UnknownScript(String),
    /// `call` chain exceeded the inlining depth (recursion in full-level
    /// scripts).
    InlineDepthExceeded(String),
    /// A semantic error compilation surfaced (compile after type checking
    /// to avoid these).
    Semantic(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unsupported(m) => write!(f, "not compilable: {m}"),
            CompileError::UnknownScript(s) => write!(f, "call to unknown script '{s}'"),
            CompileError::InlineDepthExceeded(s) => {
                write!(f, "call chain too deep to inline at '{s}' (recursive?)")
            }
            CompileError::Semantic(m) => write!(f, "semantic error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Execution context threaded through compiled closures.
pub struct Ctx<'w, 'b> {
    world: &'w World,
    buf: &'b mut EffectBuffer,
    self_id: EntityId,
    other: Option<EntityId>,
    nums: Vec<f64>,
    bools: Vec<bool>,
    use_index: bool,
    events: Vec<String>,
}

impl Ctx<'_, '_> {
    fn subject(&self, s: Subject) -> Result<EntityId, RuntimeError> {
        match s {
            Subject::SelfEnt => Ok(self.self_id),
            Subject::Other => self
                .other
                .ok_or_else(|| RuntimeError::TypeError("'other' unbound".into())),
        }
    }

    fn self_pos(&self) -> Result<Vec2, RuntimeError> {
        self.world
            .pos(self.self_id)
            .ok_or(RuntimeError::NoPosition(self.self_id))
    }

    fn neighbors(&self, radius: f64, out: &mut Vec<EntityId>) -> Result<(), RuntimeError> {
        let center = self.self_pos()?;
        let r = radius.max(0.0) as f32;
        if self.use_index {
            self.world.within(center, r, out);
            out.retain(|&e| e != self.self_id);
        } else {
            let r2 = r * r;
            for e in self.world.entities() {
                if e != self.self_id {
                    if let Some(p) = self.world.pos(e) {
                        if p.dist2(center) <= r2 {
                            out.push(e);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// A filter the query planner can serve from a secondary index:
/// `other.<component> <cmp> <literal>`. Extracted from the filter AST at
/// compile time so aggregate candidate sets can route through
/// [`Query::run`] — which pushes the predicate into an attribute index
/// when the world has one, exactly the paper's "scripting as queries"
/// promise.
///
/// Push-down must be observation-equivalent to the interpreted filter,
/// which reads missing numeric components as `0.0`, while `Query`
/// excludes entities lacking the component (SQL-ish NULL semantics). The
/// two agree exactly when `0 <cmp> literal` is false — so that is a
/// condition of extraction, as is the literal surviving the f64→f32
/// round-trip unchanged.
pub(crate) fn sargable_filter(filter: &Expr) -> Option<(String, CmpOp, f32)> {
    let Expr::Bin { op, lhs, rhs } = filter else {
        return None;
    };
    let cmp = match op {
        BinOp::Eq => CmpOp::Eq,
        // `!=` stays on the closure path: compare() fails NaN under Ne
        // while raw f64 `!=` passes it, and an index never serves Ne
        // anyway, so pushing it down risks divergence for zero gain.
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        _ => return None,
    };
    let (Expr::Comp(Subject::Other, name), Expr::Num(lit)) = (lhs.as_ref(), rhs.as_ref()) else {
        return None;
    };
    // x/y are virtual position reads, not real columns.
    if name == "x" || name == "y" || name == POS {
        return None;
    }
    let lit32 = *lit as f32;
    if (lit32 as f64) != *lit {
        return None;
    }
    if compare(&Value::Float(0.0), cmp, &Value::Float(lit32)) {
        // Missing components would pass the interpreted filter (0 cmp lit
        // holds) but fail the query predicate: not equivalent, keep the
        // closure.
        return None;
    }
    Some((name.clone(), cmp, lit32))
}

type CNum = Box<dyn Fn(&mut Ctx) -> Result<f64, RuntimeError> + Send + Sync>;
type CBool = Box<dyn Fn(&mut Ctx) -> Result<bool, RuntimeError> + Send + Sync>;
type CStmt = Box<dyn Fn(&mut Ctx) -> Result<(), RuntimeError> + Send + Sync>;
type CStr = Box<dyn Fn(&mut Ctx) -> Result<String, RuntimeError> + Send + Sync>;

/// A compiled, reusable script.
pub struct CompiledScript {
    name: String,
    body: Vec<CStmt>,
    num_slots: usize,
    bool_slots: usize,
}

impl fmt::Debug for CompiledScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledScript")
            .field("name", &self.name)
            .field("num_slots", &self.num_slots)
            .field("bool_slots", &self.bool_slots)
            .finish_non_exhaustive()
    }
}

impl CompiledScript {
    /// Script name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Run for one entity against the tick-start world. Returns emitted
    /// events.
    pub fn run(
        &self,
        world: &World,
        self_id: EntityId,
        buf: &mut EffectBuffer,
        use_index: bool,
    ) -> Result<Vec<String>, RuntimeError> {
        let mut ctx = Ctx {
            world,
            buf,
            self_id,
            other: None,
            nums: vec![0.0; self.num_slots],
            bools: vec![false; self.bool_slots],
            use_index,
            events: Vec::new(),
        };
        for s in &self.body {
            s(&mut ctx)?;
        }
        Ok(ctx.events)
    }
}

#[derive(Clone, Copy)]
enum Slot {
    Num(usize),
    Bool(usize),
}

struct Compiler<'a> {
    lib: &'a ScriptLibrary,
    schema: BTreeMap<String, ValueType>,
    scopes: Vec<BTreeMap<String, Slot>>,
    num_slots: usize,
    bool_slots: usize,
    inline_depth: usize,
}

const MAX_INLINE_DEPTH: usize = 16;

impl<'a> Compiler<'a> {
    fn lookup(&self, name: &str) -> Option<Slot> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn comp_ty(&self, comp: &str) -> Result<ValueType, CompileError> {
        if comp == "x" || comp == "y" {
            return Ok(ValueType::Float);
        }
        self.schema
            .get(comp)
            .copied()
            .ok_or_else(|| CompileError::Semantic(format!("unknown component '{comp}'")))
    }

    /// Expression type in the compiled subset.
    fn ty_of(&self, e: &Expr) -> Result<Ty, CompileError> {
        Ok(match e {
            Expr::Num(_) => Ty::Num,
            Expr::Bool(_) => Ty::Bool,
            Expr::Str(_) => Ty::Str,
            Expr::Var(name) => match self.lookup(name) {
                Some(Slot::Num(_)) => Ty::Num,
                Some(Slot::Bool(_)) => Ty::Bool,
                None => {
                    return Err(CompileError::Semantic(format!(
                        "undeclared variable '{name}'"
                    )))
                }
            },
            Expr::Comp(_, comp) => match self.comp_ty(comp)? {
                ValueType::Float | ValueType::Int => Ty::Num,
                ValueType::Bool => Ty::Bool,
                ValueType::Str => Ty::Str,
                ValueType::Vec2 => {
                    return Err(CompileError::Semantic(format!(
                        "component '{comp}' is vec2"
                    )))
                }
            },
            Expr::Unary { not, .. } => {
                if *not {
                    Ty::Bool
                } else {
                    Ty::Num
                }
            }
            Expr::Bin { op, .. } => {
                if op.is_cmp() || op.is_logic() {
                    Ty::Bool
                } else {
                    Ty::Num
                }
            }
            Expr::DistToOther
            | Expr::Builtin { .. }
            | Expr::Agg { .. }
            | Expr::NearestDist { .. } => Ty::Num,
        })
    }

    fn num(&mut self, e: &Expr) -> Result<CNum, CompileError> {
        match e {
            Expr::Num(n) => {
                let n = *n;
                Ok(Box::new(move |_| Ok(n)))
            }
            Expr::Var(name) => match self.lookup(name) {
                Some(Slot::Num(i)) => Ok(Box::new(move |ctx| Ok(ctx.nums[i]))),
                Some(Slot::Bool(_)) => Err(CompileError::Semantic(format!(
                    "variable '{name}' is bool, expected num"
                ))),
                None => Err(CompileError::Semantic(format!(
                    "undeclared variable '{name}'"
                ))),
            },
            Expr::Comp(subject, comp) => {
                let subject = *subject;
                if comp == "x" || comp == "y" {
                    let is_x = comp == "x";
                    return Ok(Box::new(move |ctx| {
                        let id = ctx.subject(subject)?;
                        let p = ctx.world.pos(id).ok_or(RuntimeError::NoPosition(id))?;
                        Ok(if is_x { p.x } else { p.y } as f64)
                    }));
                }
                match self.comp_ty(comp)? {
                    ValueType::Float | ValueType::Int => {
                        let name: Arc<str> = Arc::from(comp.as_str());
                        Ok(Box::new(move |ctx| {
                            let id = ctx.subject(subject)?;
                            Ok(ctx.world.get_number(id, &name).unwrap_or(0.0))
                        }))
                    }
                    other => Err(CompileError::Semantic(format!(
                        "component '{comp}' is {other}, expected numeric"
                    ))),
                }
            }
            Expr::Unary { neg, not, inner } => {
                if *not {
                    return Err(CompileError::Semantic("'!' yields bool".into()));
                }
                let inner = self.num(inner)?;
                if *neg {
                    Ok(Box::new(move |ctx| Ok(-inner(ctx)?)))
                } else {
                    Ok(inner)
                }
            }
            Expr::Bin { op, lhs, rhs } if !op.is_cmp() && !op.is_logic() => {
                let l = self.num(lhs)?;
                let r = self.num(rhs)?;
                let op = *op;
                Ok(Box::new(move |ctx| {
                    let (a, b) = (l(ctx)?, r(ctx)?);
                    Ok(match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => {
                            if b == 0.0 {
                                0.0
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
                        _ => unreachable!(),
                    })
                }))
            }
            Expr::Bin { .. } => Err(CompileError::Semantic(
                "comparison used where num expected".into(),
            )),
            Expr::DistToOther => Ok(Box::new(move |ctx| {
                let other = ctx.subject(Subject::Other)?;
                let sp = ctx.self_pos()?;
                let op = ctx
                    .world
                    .pos(other)
                    .ok_or(RuntimeError::NoPosition(other))?;
                Ok(sp.dist(op) as f64)
            })),
            Expr::Builtin { name, args } => {
                let compiled: Result<Vec<CNum>, CompileError> =
                    args.iter().map(|a| self.num(a)).collect();
                let compiled = compiled?;
                let name = *name;
                Ok(Box::new(move |ctx| {
                    let mut vals = [0.0f64; 3];
                    for (i, c) in compiled.iter().enumerate() {
                        vals[i] = c(ctx)?;
                    }
                    Ok(match name {
                        BuiltinFn::Min => vals[0].min(vals[1]),
                        BuiltinFn::Max => vals[0].max(vals[1]),
                        BuiltinFn::Abs => vals[0].abs(),
                        BuiltinFn::Clamp => {
                            vals[0].clamp(vals[1].min(vals[2]), vals[2].max(vals[1]))
                        }
                    })
                }))
            }
            Expr::Agg {
                kind,
                radius,
                arg,
                filter,
            } => {
                let radius = self.num(radius)?;
                let arg = match arg {
                    Some(a) => Some(self.num(a)?),
                    None => None,
                };
                // A sargable filter can ride the query planner (and any
                // secondary index) instead of running per-candidate.
                let sargable = filter.as_deref().and_then(sargable_filter);
                let filter = match filter {
                    Some(f) => Some(self.boolean(f)?),
                    None => None,
                };
                let kind = *kind;
                Ok(Box::new(move |ctx| {
                    let r = radius(ctx)?;
                    let mut cands = Vec::new();
                    let mut prefiltered = false;
                    match (&sargable, ctx.use_index) {
                        (Some((comp, op, lit)), true) => {
                            let center = ctx.self_pos()?;
                            cands = Query::select()
                                .within(center, r.max(0.0) as f32)
                                .filter(comp.clone(), *op, Value::Float(*lit))
                                .excluding(ctx.self_id)
                                .run(ctx.world);
                            prefiltered = true;
                        }
                        _ => ctx.neighbors(r, &mut cands)?,
                    }
                    let saved = ctx.other;
                    let mut count = 0usize;
                    let mut sum = 0.0;
                    let mut minv = f64::INFINITY;
                    let mut maxv = f64::NEG_INFINITY;
                    for cand in cands {
                        ctx.other = Some(cand);
                        if let Some(f) = &filter {
                            if !prefiltered && !f(ctx)? {
                                continue;
                            }
                        }
                        count += 1;
                        if let Some(a) = &arg {
                            let v = a(ctx)?;
                            sum += v;
                            minv = minv.min(v);
                            maxv = maxv.max(v);
                        }
                    }
                    ctx.other = saved;
                    Ok(match kind {
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
                    })
                }))
            }
            Expr::NearestDist { radius } => {
                let radius = self.num(radius)?;
                Ok(Box::new(move |ctx| {
                    let r = radius(ctx)?;
                    let center = ctx.self_pos()?;
                    let mut cands = Vec::new();
                    ctx.neighbors(r, &mut cands)?;
                    let mut best = r;
                    for cand in cands {
                        if let Some(p) = ctx.world.pos(cand) {
                            best = best.min(p.dist(center) as f64);
                        }
                    }
                    Ok(best)
                }))
            }
            Expr::Bool(_) | Expr::Str(_) => Err(CompileError::Semantic(
                "bool/str used where num expected".into(),
            )),
        }
    }

    /// Compile a string-valued expression into a getter. Only component
    /// refs and literals are supported (that is all comparisons need).
    fn string_get(&mut self, e: &Expr) -> Result<CStr, CompileError> {
        match e {
            Expr::Str(s) => {
                let s = s.clone();
                Ok(Box::new(move |_| Ok(s.clone())))
            }
            Expr::Comp(subject, comp) if self.comp_ty(comp)? == ValueType::Str => {
                let subject = *subject;
                let name: Arc<str> = Arc::from(comp.as_str());
                Ok(Box::new(move |ctx| {
                    let id = ctx.subject(subject)?;
                    Ok(match ctx.world.get(id, &name) {
                        Some(Value::Str(s)) => s,
                        _ => String::new(),
                    })
                }))
            }
            _ => Err(CompileError::Unsupported(
                "general string expressions (only str components and literals compile)".into(),
            )),
        }
    }

    fn boolean(&mut self, e: &Expr) -> Result<CBool, CompileError> {
        match e {
            Expr::Bool(b) => {
                let b = *b;
                Ok(Box::new(move |_| Ok(b)))
            }
            Expr::Var(name) => match self.lookup(name) {
                Some(Slot::Bool(i)) => Ok(Box::new(move |ctx| Ok(ctx.bools[i]))),
                Some(Slot::Num(_)) => Err(CompileError::Semantic(format!(
                    "variable '{name}' is num, expected bool"
                ))),
                None => Err(CompileError::Semantic(format!(
                    "undeclared variable '{name}'"
                ))),
            },
            Expr::Comp(subject, comp) if self.comp_ty(comp)? == ValueType::Bool => {
                let subject = *subject;
                let name: Arc<str> = Arc::from(comp.as_str());
                Ok(Box::new(move |ctx| {
                    let id = ctx.subject(subject)?;
                    Ok(ctx.world.get_bool(id, &name).unwrap_or(false))
                }))
            }
            Expr::Unary { not, inner, .. } if *not => {
                let inner = self.boolean(inner)?;
                Ok(Box::new(move |ctx| Ok(!inner(ctx)?)))
            }
            Expr::Bin { op, lhs, rhs } if op.is_logic() => {
                let l = self.boolean(lhs)?;
                let r = self.boolean(rhs)?;
                let is_and = *op == BinOp::And;
                Ok(Box::new(move |ctx| {
                    let lv = l(ctx)?;
                    if is_and {
                        if !lv {
                            return Ok(false);
                        }
                        r(ctx)
                    } else {
                        if lv {
                            return Ok(true);
                        }
                        r(ctx)
                    }
                }))
            }
            Expr::Bin { op, lhs, rhs } if op.is_cmp() => {
                let lt = self.ty_of(lhs)?;
                let rt = self.ty_of(rhs)?;
                if lt != rt {
                    return Err(CompileError::Semantic(format!(
                        "cannot compare {lt} with {rt}"
                    )));
                }
                let op = *op;
                match lt {
                    Ty::Num => {
                        let l = self.num(lhs)?;
                        let r = self.num(rhs)?;
                        Ok(Box::new(move |ctx| {
                            let (a, b) = (l(ctx)?, r(ctx)?);
                            Ok(match op {
                                BinOp::Eq => a == b,
                                BinOp::Ne => a != b,
                                BinOp::Lt => a < b,
                                BinOp::Le => a <= b,
                                BinOp::Gt => a > b,
                                BinOp::Ge => a >= b,
                                _ => unreachable!(),
                            })
                        }))
                    }
                    Ty::Str => {
                        let l = self.string_get(lhs)?;
                        let r = self.string_get(rhs)?;
                        Ok(Box::new(move |ctx| {
                            let (a, b) = (l(ctx)?, r(ctx)?);
                            Ok(match op {
                                BinOp::Eq => a == b,
                                BinOp::Ne => a != b,
                                BinOp::Lt => a < b,
                                BinOp::Le => a <= b,
                                BinOp::Gt => a > b,
                                BinOp::Ge => a >= b,
                                _ => unreachable!(),
                            })
                        }))
                    }
                    Ty::Bool => {
                        let l = self.boolean(lhs)?;
                        let r = self.boolean(rhs)?;
                        Ok(Box::new(move |ctx| {
                            let (a, b) = (l(ctx)?, r(ctx)?);
                            Ok(match op {
                                BinOp::Eq => a == b,
                                BinOp::Ne => a != b,
                                _ => false,
                            })
                        }))
                    }
                }
            }
            other => Err(CompileError::Semantic(format!(
                "expected bool expression, got {other:?}"
            ))),
        }
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<Vec<CStmt>, CompileError> {
        self.scopes.push(BTreeMap::new());
        let result: Result<Vec<CStmt>, CompileError> =
            stmts.iter().map(|s| self.stmt(s)).collect();
        self.scopes.pop();
        result
    }

    fn stmt(&mut self, s: &Stmt) -> Result<CStmt, CompileError> {
        match s {
            Stmt::Let { name, value } => {
                let ty = self.ty_of(value)?;
                match ty {
                    Ty::Num => {
                        let v = self.num(value)?;
                        let slot = self.num_slots;
                        self.num_slots += 1;
                        self.scopes
                            .last_mut()
                            .expect("scope stack never empty")
                            .insert(name.clone(), Slot::Num(slot));
                        Ok(Box::new(move |ctx| {
                            ctx.nums[slot] = v(ctx)?;
                            Ok(())
                        }))
                    }
                    Ty::Bool => {
                        let v = self.boolean(value)?;
                        let slot = self.bool_slots;
                        self.bool_slots += 1;
                        self.scopes
                            .last_mut()
                            .expect("scope stack never empty")
                            .insert(name.clone(), Slot::Bool(slot));
                        Ok(Box::new(move |ctx| {
                            ctx.bools[slot] = v(ctx)?;
                            Ok(())
                        }))
                    }
                    Ty::Str => Err(CompileError::Unsupported(
                        "string-valued locals do not compile (interpreter handles them)".into(),
                    )),
                }
            }
            Stmt::AssignVar { name, value } => match self.lookup(name) {
                Some(Slot::Num(slot)) => {
                    let v = self.num(value)?;
                    Ok(Box::new(move |ctx| {
                        ctx.nums[slot] = v(ctx)?;
                        Ok(())
                    }))
                }
                Some(Slot::Bool(slot)) => {
                    let v = self.boolean(value)?;
                    Ok(Box::new(move |ctx| {
                        ctx.bools[slot] = v(ctx)?;
                        Ok(())
                    }))
                }
                None => Err(CompileError::Semantic(format!(
                    "undeclared variable '{name}'"
                ))),
            },
            Stmt::AssignComp {
                subject,
                component,
                op,
                value,
            } => {
                if component == "x" || component == "y" {
                    return Err(CompileError::Semantic(
                        "position writes use move()".into(),
                    ));
                }
                let subject = *subject;
                if subject == Subject::Other && *op == AssignOp::Set {
                    return Err(CompileError::Semantic(
                        "non-commutative write to another entity".into(),
                    ));
                }
                let cty = self.comp_ty(component)?;
                let name: Arc<str> = Arc::from(component.as_str());
                match op {
                    AssignOp::Set => match cty {
                        ValueType::Float => {
                            let v = self.num(value)?;
                            Ok(Box::new(move |ctx| {
                                let id = ctx.subject(subject)?;
                                let val = v(ctx)?;
                                ctx.buf.push(
                                    id,
                                    &name,
                                    Effect::Set(Value::Float(val as f32)),
                                );
                                Ok(())
                            }))
                        }
                        ValueType::Int => {
                            let v = self.num(value)?;
                            Ok(Box::new(move |ctx| {
                                let id = ctx.subject(subject)?;
                                let val = v(ctx)?;
                                ctx.buf.push(
                                    id,
                                    &name,
                                    Effect::Set(Value::Int(val.round() as i64)),
                                );
                                Ok(())
                            }))
                        }
                        ValueType::Bool => {
                            let v = self.boolean(value)?;
                            Ok(Box::new(move |ctx| {
                                let id = ctx.subject(subject)?;
                                let val = v(ctx)?;
                                ctx.buf
                                    .push(id, &name, Effect::Set(Value::Bool(val)));
                                Ok(())
                            }))
                        }
                        ValueType::Str => {
                            let v = self.string_get(value)?;
                            Ok(Box::new(move |ctx| {
                                let id = ctx.subject(subject)?;
                                let val = v(ctx)?;
                                ctx.buf
                                    .push(id, &name, Effect::Set(Value::Str(val)));
                                Ok(())
                            }))
                        }
                        ValueType::Vec2 => Err(CompileError::Semantic(
                            "vec2 components are written with move()".into(),
                        )),
                    },
                    AssignOp::Add | AssignOp::Sub => {
                        let v = self.num(value)?;
                        let negate = *op == AssignOp::Sub;
                        Ok(Box::new(move |ctx| {
                            let id = ctx.subject(subject)?;
                            let mut val = v(ctx)?;
                            if negate {
                                val = -val;
                            }
                            ctx.buf.push(id, &name, Effect::Add(val));
                            Ok(())
                        }))
                    }
                }
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                let cond = self.boolean(cond)?;
                let then_c = self.block(then_block)?;
                let else_c = self.block(else_block)?;
                Ok(Box::new(move |ctx| {
                    let branch = if cond(ctx)? { &then_c } else { &else_c };
                    for s in branch {
                        s(ctx)?;
                    }
                    Ok(())
                }))
            }
            Stmt::Foreach { radius, body } => {
                let radius = self.num(radius)?;
                let body_c = self.block(body)?;
                Ok(Box::new(move |ctx| {
                    let r = radius(ctx)?;
                    let mut cands = Vec::new();
                    ctx.neighbors(r, &mut cands)?;
                    let saved = ctx.other;
                    for cand in cands {
                        ctx.other = Some(cand);
                        for s in &body_c {
                            s(ctx)?;
                        }
                    }
                    ctx.other = saved;
                    Ok(())
                }))
            }
            Stmt::While { cond, body } => {
                let cond = self.boolean(cond)?;
                let body_c = self.block(body)?;
                Ok(Box::new(move |ctx| {
                    let mut fuel = 100_000usize;
                    while cond(ctx)? {
                        if fuel == 0 {
                            return Err(RuntimeError::LoopFuelExhausted { limit: 100_000 });
                        }
                        fuel -= 1;
                        for s in &body_c {
                            s(ctx)?;
                        }
                    }
                    Ok(())
                }))
            }
            Stmt::Move { dx, dy } => {
                let dx = self.num(dx)?;
                let dy = self.num(dy)?;
                Ok(Box::new(move |ctx| {
                    let (x, y) = (dx(ctx)? as f32, dy(ctx)? as f32);
                    let id = ctx.self_id;
                    ctx.buf.push(id, POS, Effect::AddVec2(x, y));
                    Ok(())
                }))
            }
            Stmt::Despawn => Ok(Box::new(move |ctx| {
                let id = ctx.self_id;
                ctx.buf.despawn(id);
                Ok(())
            })),
            Stmt::Call { script } => {
                // inline the callee
                if self.inline_depth >= MAX_INLINE_DEPTH {
                    return Err(CompileError::InlineDepthExceeded(script.clone()));
                }
                let callee = self
                    .lib
                    .get(script)
                    .ok_or_else(|| CompileError::UnknownScript(script.clone()))?
                    .clone();
                self.inline_depth += 1;
                // callee sees no caller locals: fresh scope chain
                let saved_scopes = std::mem::replace(&mut self.scopes, vec![BTreeMap::new()]);
                let result = self.block(&callee.body);
                self.scopes = saved_scopes;
                self.inline_depth -= 1;
                let body_c = result?;
                Ok(Box::new(move |ctx| {
                    for s in &body_c {
                        s(ctx)?;
                    }
                    Ok(())
                }))
            }
            Stmt::Emit { event } => {
                let event = event.clone();
                Ok(Box::new(move |ctx| {
                    ctx.events.push(event.clone());
                    Ok(())
                }))
            }
        }
    }
}

/// Compile a script from a library against a world schema.
pub fn compile(
    lib: &ScriptLibrary,
    name: &str,
    world: &World,
) -> Result<CompiledScript, CompileError> {
    let script: &Script = lib
        .get(name)
        .ok_or_else(|| CompileError::UnknownScript(name.to_string()))?;
    let schema: BTreeMap<String, ValueType> = world
        .schema()
        .map(|(n, t)| (n.to_string(), t))
        .collect();
    let mut c = Compiler {
        lib,
        schema,
        scopes: vec![BTreeMap::new()],
        num_slots: 0,
        bool_slots: 0,
        inline_depth: 0,
    };
    let body = c.block(&script.body)?;
    Ok(CompiledScript {
        name: name.to_string(),
        body,
        num_slots: c.num_slots,
        bool_slots: c.bool_slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_script, ExecOptions};
    use crate::parser::parse_script;

    fn lib(sources: &[(&str, &str)]) -> ScriptLibrary {
        let mut l = ScriptLibrary::new();
        for (name, src) in sources {
            l.insert(parse_script(name, src).unwrap());
        }
        l
    }

    fn test_world(n: usize) -> World {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("dmg", ValueType::Float).unwrap();
        w.define_component("team", ValueType::Str).unwrap();
        w.define_component("gold", ValueType::Int).unwrap();
        w.define_component("alive", ValueType::Bool).unwrap();
        for i in 0..n {
            let e = w.spawn_at(Vec2::new((i % 8) as f32 * 3.0, (i / 8) as f32 * 3.0));
            w.set_f32(e, "hp", 50.0 + i as f32).unwrap();
            w.set_f32(e, "dmg", 1.0 + (i % 3) as f32).unwrap();
            w.set(
                e,
                "team",
                Value::Str(if i % 2 == 0 { "red" } else { "blue" }.into()),
            )
            .unwrap();
            w.set(e, "gold", Value::Int(i as i64)).unwrap();
            w.set(e, "alive", Value::Bool(true)).unwrap();
        }
        w
    }

    /// Compiled execution must agree exactly with interpretation.
    fn assert_equivalent(src: &str) {
        let l = lib(&[("s", src)]);
        let w = test_world(30);
        let compiled = compile(&l, "s", &w).unwrap();
        for id in w.entity_vec() {
            let mut b1 = EffectBuffer::new();
            let mut b2 = EffectBuffer::new();
            let out_i =
                run_script(&l, "s", &w, id, &mut b1, ExecOptions::default()).unwrap();
            let out_c = compiled.run(&w, id, &mut b2, true).unwrap();
            assert_eq!(out_i.events, out_c);
            let mut w1 = w.clone();
            let mut w2 = w.clone();
            b1.apply(&mut w1).unwrap();
            b2.apply(&mut w2).unwrap();
            assert_eq!(w1.rows(), w2.rows(), "script: {src}");
        }
    }

    #[test]
    fn arithmetic_equivalence() {
        assert_equivalent("self.hp = 1 + 2 * 3 - 4 / 2 + self.dmg;");
        assert_equivalent("self.gold = 7 / 2;");
        assert_equivalent("self.hp = min(self.hp, 60) + max(1, self.dmg) + abs(0 - 3) + clamp(self.hp, 0, 55);");
    }

    #[test]
    fn aggregate_equivalence() {
        assert_equivalent("self.hp = count(7);");
        assert_equivalent("self.hp = count(7; other.team != self.team);");
        assert_equivalent("self.hp = sum(7; other.dmg; other.hp > self.hp);");
        assert_equivalent("self.hp = maxof(9; other.hp) + minof(9; other.hp) + avgof(9; other.gold);");
        assert_equivalent("self.hp = nearest_dist(12);");
    }

    #[test]
    fn sargable_extraction_rules() {
        let get = |src: &str| {
            let script = parse_script("s", &format!("self.hp = count(5; {src});")).unwrap();
            let Stmt::AssignComp { value, .. } = &script.body[0] else {
                panic!("expected assign");
            };
            let Expr::Agg { filter, .. } = value else {
                panic!("expected aggregate");
            };
            sargable_filter(filter.as_deref().unwrap())
        };
        // 0 > 40 is false: missing-as-zero and missing-excluded agree
        assert_eq!(get("other.hp > 40"), Some(("hp".into(), CmpOp::Gt, 40.0)));
        assert_eq!(get("other.gold >= 3"), Some(("gold".into(), CmpOp::Ge, 3.0)));
        // 0 < 40 is true: a missing hp would flip between the two paths
        assert_eq!(get("other.hp < 40"), None);
        // != diverges on NaN (compare() fails Ne, raw f64 != passes it)
        assert_eq!(get("other.hp != 40"), None);
        // non-literal rhs, self fields, and virtual coords stay closures
        assert_eq!(get("other.hp > self.hp"), None);
        assert_eq!(get("other.x > 4"), None);
    }

    /// Sargable aggregate filters route through the query planner; with
    /// secondary indexes on the world the compiled script must still
    /// agree with the interpreter exactly.
    #[test]
    fn aggregate_pushdown_equivalence_with_indexes() {
        use gamedb_core::IndexKind;
        for src in [
            "self.hp = count(9; other.hp > 55);",
            "self.hp = sum(9; other.dmg; other.gold >= 20);",
            "self.hp = sum(200; other.dmg; other.hp == 61);",
            "self.hp = count(9; other.hp < 55);", // not sargable: closure path
        ] {
            let l = lib(&[("s", src)]);
            let mut w = test_world(30);
            w.create_index("hp", IndexKind::Sorted).unwrap();
            w.create_index("gold", IndexKind::Sorted).unwrap();
            let compiled = compile(&l, "s", &w).unwrap();
            for id in w.entity_vec() {
                let mut b1 = EffectBuffer::new();
                let mut b2 = EffectBuffer::new();
                run_script(&l, "s", &w, id, &mut b1, ExecOptions::default()).unwrap();
                compiled.run(&w, id, &mut b2, true).unwrap();
                let mut w1 = w.clone();
                let mut w2 = w.clone();
                b1.apply(&mut w1).unwrap();
                b2.apply(&mut w2).unwrap();
                assert_eq!(w1.rows(), w2.rows(), "script: {src}");
            }
        }
    }

    #[test]
    fn control_flow_equivalence() {
        assert_equivalent(
            r#"let n = count(6);
               if n > 2 {
                 move(0 - 1, 0);
                 emit "crowded";
               } else {
                 self.hp += 1;
               }"#,
        );
        assert_equivalent(
            r#"let n = 3;
               let acc = 0;
               while n > 0 { acc = acc + n; n = n - 1; }
               self.hp = acc;"#,
        );
    }

    #[test]
    fn foreach_equivalence() {
        assert_equivalent(
            r#"foreach within (6) {
                 if other.team != self.team && dist(other) < 5 {
                   other.hp -= self.dmg;
                 }
               }"#,
        );
    }

    #[test]
    fn bool_and_str_components() {
        assert_equivalent("self.alive = self.hp > 0;");
        assert_equivalent(r#"if self.team == "red" { self.hp += 1; } "#);
        assert_equivalent(r#"self.team = "green";"#);
        assert_equivalent("if self.alive == true { despawn; }");
    }

    #[test]
    fn call_inlining() {
        let l = lib(&[
            ("main", "call helper; call helper;"),
            ("helper", "self.hp += 1;"),
        ]);
        let w = test_world(4);
        let compiled = compile(&l, "main", &w).unwrap();
        let id = w.entity_vec()[0];
        let mut buf = EffectBuffer::new();
        compiled.run(&w, id, &mut buf, true).unwrap();
        let mut w2 = w.clone();
        buf.apply(&mut w2).unwrap();
        assert_eq!(w2.get_f32(id, "hp"), Some(52.0));
    }

    #[test]
    fn recursion_fails_to_inline() {
        let l = lib(&[("r", "call r;")]);
        let w = test_world(1);
        assert!(matches!(
            compile(&l, "r", &w),
            Err(CompileError::InlineDepthExceeded(_))
        ));
    }

    #[test]
    fn string_locals_unsupported() {
        let l = lib(&[("s", r#"let t = self.team; self.hp += 1;"#)]);
        let w = test_world(1);
        assert!(matches!(
            compile(&l, "s", &w),
            Err(CompileError::Unsupported(_))
        ));
    }

    #[test]
    fn unknown_component_is_semantic_error() {
        let l = lib(&[("s", "self.mana += 1;")]);
        let w = test_world(1);
        assert!(matches!(
            compile(&l, "s", &w),
            Err(CompileError::Semantic(_))
        ));
    }

    #[test]
    fn compiled_naive_mode_matches_indexed() {
        let l = lib(&[("s", "self.hp = count(9) + sum(9; other.dmg);")]);
        let w = test_world(40);
        let compiled = compile(&l, "s", &w).unwrap();
        for id in w.entity_vec() {
            let mut b1 = EffectBuffer::new();
            let mut b2 = EffectBuffer::new();
            compiled.run(&w, id, &mut b1, true).unwrap();
            compiled.run(&w, id, &mut b2, false).unwrap();
            let mut w1 = w.clone();
            let mut w2 = w.clone();
            b1.apply(&mut w1).unwrap();
            b2.apply(&mut w2).unwrap();
            assert_eq!(w1.get_f32(id, "hp"), w2.get_f32(id, "hp"));
        }
    }
}
