//! AST → bytecode lowering for the GSL VM.
//!
//! Lowers every well-typed GSL script to a dense instruction stream over
//! typed registers (`num`, `bool` and `str` locals alike). `call`s are
//! inlined up to [`ExecOptions::max_call_depth`]; a call past it becomes
//! an [`Instr::Fail`] that raises `CallDepthExceeded` exactly where the
//! interpreter would, so recursion lowers too. What does not lower is a
//! script past one of the VM's fixed limits (a register file, the loop
//! slots, the constant pool, the query table, or the [`MAX_INSTRS`]
//! budget, which also bounds fan-out recursion): a
//! [`CompileError::TooLarge`], which the engine refuses at load.
//! Registers are allocated with a mark/release stack: each expression's
//! temporaries are reclaimed as soon as its value is consumed, so register
//! files stay small even for deep scripts while named locals keep their
//! registers for their whole scope.
//!
//! Everything name-shaped is resolved here, once per (script, schema):
//! component references become interned [`ComponentId`]s, effect-write
//! names and string literals land in the program's constant pool, and
//! sargable aggregate filters become pre-built [`SargQuery`] handles.
//! Execution never sees a string it has to hash.

use std::collections::BTreeMap;
use std::fmt;

use gamedb_content::{CmpOp, Value, ValueType};
use gamedb_core::{compare, ComponentId, World, POS};

use super::{Instr, Program, Reg, SargQuery, VmArith, VmCmp, NO_QUERY};
use crate::ast::{AssignOp, BinOp, BuiltinFn, Expr, Script, Stmt, Subject};
use crate::interp::{ExecOptions, RuntimeError, ScriptLibrary};
use crate::types::Ty;

/// Why a script could not be compiled.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The script (with its inlined callees) exceeds one of the VM's
    /// fixed limits.
    TooLarge(String),
    /// `call` target missing from the library.
    UnknownScript(String),
    /// A semantic error compilation surfaced: the script does not fit the
    /// world's schema (compile after type checking against it to avoid
    /// these).
    Semantic(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooLarge(m) => write!(f, "script too large: {m}"),
            CompileError::UnknownScript(s) => write!(f, "call to unknown script '{s}'"),
            CompileError::Semantic(m) => write!(f, "semantic error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A filter the query planner can serve from a secondary index:
/// `other.<component> <cmp> <literal>`. Extracted from the filter AST at
/// compile time so aggregate candidate sets can route through
/// [`gamedb_core::Query::run`] — which pushes the predicate into an
/// attribute index when the world has one, exactly the paper's "scripting
/// as queries" promise.
///
/// Push-down must be observation-equivalent to the interpreted filter,
/// which reads missing numeric components as `0.0`, while `Query`
/// excludes entities lacking the component (SQL-ish NULL semantics). The
/// two agree exactly when `0 <cmp> literal` is false — so that is a
/// condition of extraction, as is the literal surviving the f64→f32
/// round-trip unchanged.
fn sargable_filter(filter: &Expr) -> Option<(String, CmpOp, f32)> {
    let Expr::Bin { op, lhs, rhs } = filter else {
        return None;
    };
    let cmp = match op {
        BinOp::Eq => CmpOp::Eq,
        // `!=` stays on the inline filter: compare() fails NaN under Ne
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
        // inline filter.
        return None;
    }
    Some((name.clone(), cmp, lit32))
}

/// Per-type register-file ceiling — far above any real script.
const MAX_REGS: u16 = 4096;
const MAX_LOOPS: u16 = 64;
/// A program's instruction budget. Every inlined `call` is charged
/// against it as well, so recursion that fans out (`if c { call r; }
/// else { call r; }`) is refused at a bounded compile cost even through
/// callees that emit nothing.
pub const MAX_INSTRS: usize = 65_536;

#[derive(Clone, Copy)]
enum VReg {
    Num(Reg),
    Bool(Reg),
    Str(Reg),
}

/// One register file's (or the loop-slot table's) allocation stack:
/// the next free index and its high watermark.
struct Bank {
    next: u16,
    max: u16,
    limit: u16,
    what: &'static str,
}

impl Bank {
    fn new(limit: u16, what: &'static str) -> Self {
        Bank {
            next: 0,
            max: 0,
            limit,
            what,
        }
    }

    fn alloc(&mut self) -> Result<Reg, CompileError> {
        if self.next >= self.limit {
            return Err(CompileError::TooLarge(format!("{} exhausted", self.what)));
        }
        self.next += 1;
        self.max = self.max.max(self.next);
        Ok(self.next - 1)
    }
}

/// Register-allocation checkpoint (num, bool, str): temporaries above
/// these watermarks are dead once the expression that allocated them is
/// consumed.
type Mark = (u16, u16, u16);

struct Compiler<'a> {
    lib: &'a ScriptLibrary,
    schema: BTreeMap<String, (ComponentId, ValueType)>,
    scopes: Vec<BTreeMap<String, VReg>>,
    instrs: Vec<Instr>,
    pool: Vec<String>,
    queries: Vec<SargQuery>,
    comps: Vec<(ComponentId, String, ValueType)>,
    nums: Bank,
    bools: Bank,
    strs: Bank,
    loops: Bank,
    fails: Vec<RuntimeError>,
    max_call_depth: usize,
    inline_depth: usize,
    /// Calls inlined so far, charged against [`MAX_INSTRS`].
    inlined: usize,
}

fn vm_cmp(op: BinOp) -> VmCmp {
    match op {
        BinOp::Eq => VmCmp::Eq,
        BinOp::Ne => VmCmp::Ne,
        BinOp::Lt => VmCmp::Lt,
        BinOp::Le => VmCmp::Le,
        BinOp::Gt => VmCmp::Gt,
        BinOp::Ge => VmCmp::Ge,
        _ => unreachable!("caller checked is_cmp"),
    }
}

impl<'a> Compiler<'a> {
    // ---- register + pool bookkeeping ----

    fn marks(&self) -> Mark {
        (self.nums.next, self.bools.next, self.strs.next)
    }

    fn release(&mut self, (num, bool_, str_): Mark) {
        self.nums.next = num;
        self.bools.next = bool_;
        self.strs.next = str_;
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.instrs.push(i);
        self.instrs.len() - 1
    }

    fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.instrs[at] {
            Instr::Jump { to }
            | Instr::JumpIf { to, .. }
            | Instr::JumpIfNot { to, .. }
            | Instr::JumpUnlessCmp { to, .. }
            | Instr::JumpUnlessCmpK { to, .. }
            | Instr::SkipIfPrefiltered { to, .. } => *to = target,
            Instr::LoopNext { exit, .. } => *exit = target,
            other => unreachable!("patched non-jump instruction {other:?}"),
        }
    }

    fn pool_idx(&mut self, s: &str) -> Result<u16, CompileError> {
        if let Some(i) = self.pool.iter().position(|p| p == s) {
            return Ok(i as u16);
        }
        if self.pool.len() >= u16::MAX as usize {
            return Err(CompileError::TooLarge("constant pool exhausted".into()));
        }
        self.pool.push(s.to_string());
        Ok((self.pool.len() - 1) as u16)
    }

    // ---- name resolution ----

    fn lookup(&self, name: &str) -> Option<VReg> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn local(&self, name: &str) -> Result<VReg, CompileError> {
        self.lookup(name)
            .ok_or_else(|| CompileError::Semantic(format!("undeclared variable '{name}'")))
    }

    /// Resolve a component name to its interned id + type, recording it
    /// in the program's validation table.
    fn comp(&mut self, name: &str) -> Result<(ComponentId, ValueType), CompileError> {
        let (id, ty) = self
            .schema
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::Semantic(format!("unknown component '{name}'")))?;
        if !self.comps.iter().any(|(c, ..)| *c == id) {
            self.comps.push((id, name.to_string(), ty));
        }
        Ok((id, ty))
    }

    fn comp_ty(&self, comp: &str) -> Result<ValueType, CompileError> {
        if comp == "x" || comp == "y" {
            return Ok(ValueType::Float);
        }
        self.schema
            .get(comp)
            .map(|(_, t)| *t)
            .ok_or_else(|| CompileError::Semantic(format!("unknown component '{comp}'")))
    }

    /// Expression type in the compiled subset.
    fn ty_of(&self, e: &Expr) -> Result<Ty, CompileError> {
        Ok(match e {
            Expr::Num(_) => Ty::Num,
            Expr::Bool(_) => Ty::Bool,
            Expr::Str(_) => Ty::Str,
            Expr::Var(name) => match self.local(name)? {
                VReg::Num(_) => Ty::Num,
                VReg::Bool(_) => Ty::Bool,
                VReg::Str(_) => Ty::Str,
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
            Expr::Unary { not: true, .. } => Ty::Bool,
            Expr::Bin { op, .. } if op.is_cmp() || op.is_logic() => Ty::Bool,
            Expr::Unary { .. }
            | Expr::Bin { .. }
            | Expr::DistToOther
            | Expr::Builtin { .. }
            | Expr::Agg { .. }
            | Expr::NearestDist { .. } => Ty::Num,
        })
    }

    // ---- expression lowering ----

    /// Numeric source register: a named local reads in place (no copy);
    /// anything else evaluates into a fresh temporary. Callers bracket
    /// with [`Compiler::marks`]/[`Compiler::release`].
    fn num_src(&mut self, e: &Expr) -> Result<Reg, CompileError> {
        if let Expr::Var(name) = e {
            return match self.local(name)? {
                VReg::Num(r) => Ok(r),
                _ => Err(CompileError::Semantic(format!("variable '{name}' is not num"))),
            };
        }
        let t = self.nums.alloc()?;
        self.num_into(e, t)?;
        Ok(t)
    }

    fn bool_src(&mut self, e: &Expr) -> Result<Reg, CompileError> {
        if let Expr::Var(name) = e {
            return match self.local(name)? {
                VReg::Bool(r) => Ok(r),
                _ => Err(CompileError::Semantic(format!("variable '{name}' is not bool"))),
            };
        }
        let t = self.bools.alloc()?;
        self.bool_into(e, t)?;
        Ok(t)
    }

    fn str_src(&mut self, e: &Expr) -> Result<Reg, CompileError> {
        if let Expr::Var(name) = e {
            return match self.local(name)? {
                VReg::Str(r) => Ok(r),
                _ => Err(CompileError::Semantic(format!("variable '{name}' is not str"))),
            };
        }
        let t = self.strs.alloc()?;
        self.str_into(e, t)?;
        Ok(t)
    }

    /// Lower a string expression — a literal, a str component or a str
    /// local, the only string-valued expressions GSL has — into `dst`.
    fn str_into(&mut self, e: &Expr, dst: Reg) -> Result<(), CompileError> {
        match e {
            Expr::Str(s) => {
                let pool = self.pool_idx(s)?;
                self.emit(Instr::LoadStr { dst, pool });
            }
            Expr::Comp(subject, comp) if self.comp_ty(comp)? == ValueType::Str => {
                let (col, _) = self.comp(comp)?;
                self.emit(Instr::ReadStr {
                    dst,
                    col,
                    subj: *subject,
                });
            }
            Expr::Var(_) => {
                let src = self.str_src(e)?;
                if src != dst {
                    self.emit(Instr::CopyStr { dst, src });
                }
            }
            other => {
                return Err(CompileError::Semantic(format!(
                    "expected str expression, got {other:?}"
                )))
            }
        }
        Ok(())
    }

    /// Lower a numeric expression so its value lands in `dst`. Source
    /// registers are always read before `dst` is written within any one
    /// instruction, so `dst` may alias a source (in-place updates like
    /// `x = x + 1` compile without a copy).
    fn num_into(&mut self, e: &Expr, dst: Reg) -> Result<(), CompileError> {
        match e {
            Expr::Num(n) => {
                self.emit(Instr::LoadNum { dst, val: *n });
            }
            Expr::Var(_) => {
                let src = self.num_src(e)?;
                if src != dst {
                    self.emit(Instr::CopyNum { dst, src });
                }
            }
            Expr::Comp(subject, comp) => {
                let subj = *subject;
                if comp == "x" || comp == "y" {
                    self.emit(Instr::ReadAxis {
                        dst,
                        subj,
                        y: comp == "y",
                    });
                    return Ok(());
                }
                let (col, ty) = self.comp(comp)?;
                match ty {
                    ValueType::Float | ValueType::Int => {
                        self.emit(Instr::ReadNum { dst, col, subj });
                    }
                    other => {
                        return Err(CompileError::Semantic(format!(
                            "component '{comp}' is {other}, expected numeric"
                        )))
                    }
                }
            }
            Expr::Unary { neg, not, inner } => {
                if *not {
                    return Err(CompileError::Semantic("'!' yields bool".into()));
                }
                self.num_into(inner, dst)?;
                if *neg {
                    self.emit(Instr::Neg { dst, src: dst });
                }
            }
            Expr::Bin { op, lhs, rhs } if !op.is_cmp() && !op.is_logic() => {
                let m = self.marks();
                let op = match op {
                    BinOp::Add => VmArith::Add,
                    BinOp::Sub => VmArith::Sub,
                    BinOp::Mul => VmArith::Mul,
                    BinOp::Div => VmArith::Div,
                    BinOp::Rem => VmArith::Rem,
                    _ => unreachable!(),
                };
                // a literal operand rides in the instruction; `rev` keeps
                // the operand order the interpreter evaluates
                let instr = match (&**lhs, &**rhs) {
                    (_, &Expr::Num(k)) => {
                        let a = self.num_src(lhs)?;
                        Instr::ArithK { op, rev: false, dst, a, k }
                    }
                    (&Expr::Num(k), _) => {
                        let a = self.num_src(rhs)?;
                        Instr::ArithK { op, rev: true, dst, a, k }
                    }
                    _ => {
                        let a = self.num_src(lhs)?;
                        let b = self.num_src(rhs)?;
                        Instr::Arith { op, dst, a, b }
                    }
                };
                self.emit(instr);
                self.release(m);
            }
            Expr::Bin { .. } => {
                return Err(CompileError::Semantic(
                    "comparison used where num expected".into(),
                ))
            }
            Expr::DistToOther => {
                self.emit(Instr::Dist { dst });
            }
            Expr::Builtin { name, args } => {
                let m = self.marks();
                let mut regs = [0 as Reg; 3];
                for (i, a) in args.iter().enumerate() {
                    regs[i] = self.num_src(a)?;
                }
                let [a, b, c] = regs;
                self.emit(match name {
                    BuiltinFn::Min => Instr::MinNum { dst, a, b },
                    BuiltinFn::Max => Instr::MaxNum { dst, a, b },
                    BuiltinFn::Abs => Instr::AbsNum { dst, src: a },
                    BuiltinFn::Clamp => Instr::ClampNum {
                        dst,
                        x: a,
                        lo: b,
                        hi: c,
                    },
                });
                self.release(m);
            }
            Expr::Agg {
                kind,
                radius,
                arg,
                filter,
            } => self.agg(*kind, radius, arg.as_deref(), filter.as_deref(), dst)?,
            Expr::NearestDist { radius } => {
                let m = self.marks();
                let r = self.num_src(radius)?;
                self.emit(Instr::NearestDist { dst, radius: r });
                self.release(m);
            }
            Expr::Bool(_) | Expr::Str(_) => {
                return Err(CompileError::Semantic(
                    "bool/str used where num expected".into(),
                ))
            }
        }
        Ok(())
    }

    /// Lower a boolean expression into `dst`. Logic operators write the
    /// lhs into `dst` and conditionally skip the rhs — which is why
    /// `dst` must NOT alias a register the rhs reads; callers pass a
    /// fresh temporary (or a `let` target not yet in scope).
    fn bool_into(&mut self, e: &Expr, dst: Reg) -> Result<(), CompileError> {
        match e {
            Expr::Bool(b) => {
                self.emit(Instr::LoadBool { dst, val: *b });
            }
            Expr::Var(_) => {
                let src = self.bool_src(e)?;
                if src != dst {
                    self.emit(Instr::CopyBool { dst, src });
                }
            }
            Expr::Comp(subject, comp) => {
                let (col, ty) = self.comp(comp)?;
                if ty != ValueType::Bool {
                    return Err(CompileError::Semantic(format!(
                        "expected bool expression, got {e:?}"
                    )));
                }
                self.emit(Instr::ReadBool {
                    dst,
                    col,
                    subj: *subject,
                });
            }
            Expr::Unary { not, inner, .. } if *not => {
                self.bool_into(inner, dst)?;
                self.emit(Instr::Not { dst, src: dst });
            }
            Expr::Bin { op, lhs, rhs } if op.is_logic() => {
                self.bool_into(lhs, dst)?;
                let skip = if *op == BinOp::And {
                    self.emit(Instr::JumpIfNot { cond: dst, to: 0 })
                } else {
                    self.emit(Instr::JumpIf { cond: dst, to: 0 })
                };
                self.bool_into(rhs, dst)?;
                let end = self.here();
                self.patch(skip, end);
            }
            Expr::Bin { op, lhs, rhs } if op.is_cmp() => {
                let lt = self.ty_of(lhs)?;
                let rt = self.ty_of(rhs)?;
                if lt != rt {
                    return Err(CompileError::Semantic(format!(
                        "cannot compare {lt} with {rt}"
                    )));
                }
                let op = vm_cmp(*op);
                let m = self.marks();
                match lt {
                    Ty::Num => {
                        let a = self.num_src(lhs)?;
                        let b = self.num_src(rhs)?;
                        self.emit(Instr::CmpNum { op, dst, a, b });
                    }
                    Ty::Str => {
                        let a = self.str_src(lhs)?;
                        let b = self.str_src(rhs)?;
                        self.emit(Instr::CmpStr { op, dst, a, b });
                    }
                    Ty::Bool => {
                        let a = self.bool_src(lhs)?;
                        let b = self.bool_src(rhs)?;
                        self.emit(Instr::CmpBool { op, dst, a, b });
                    }
                }
                self.release(m);
            }
            other => {
                return Err(CompileError::Semantic(format!(
                    "expected bool expression, got {other:?}"
                )))
            }
        }
        Ok(())
    }

    /// Lower a branch condition: evaluate `cond` and emit the jump taken
    /// when it is **false**, target left for [`Compiler::patch`]. A
    /// numeric comparison becomes one compare-and-branch (the literal
    /// side, if any, inline — mirrored onto the right when it stood on
    /// the left); anything else evaluates to a bool register first.
    fn jump_unless(&mut self, cond: &Expr) -> Result<usize, CompileError> {
        let m = self.marks();
        let instr = match cond {
            Expr::Bin { op, lhs, rhs }
                if op.is_cmp() && self.ty_of(lhs)? == Ty::Num && self.ty_of(rhs)? == Ty::Num =>
            {
                let op = vm_cmp(*op);
                match (&**lhs, &**rhs) {
                    (_, &Expr::Num(k)) => {
                        let a = self.num_src(lhs)?;
                        Instr::JumpUnlessCmpK { op, a, to: 0, k }
                    }
                    (&Expr::Num(k), _) => {
                        let a = self.num_src(rhs)?;
                        let op = op.mirrored();
                        Instr::JumpUnlessCmpK { op, a, to: 0, k }
                    }
                    _ => {
                        let a = self.num_src(lhs)?;
                        let b = self.num_src(rhs)?;
                        Instr::JumpUnlessCmp { op, a, b, to: 0 }
                    }
                }
            }
            _ => {
                let cond = self.bool_src(cond)?;
                Instr::JumpIfNot { cond, to: 0 }
            }
        };
        self.release(m);
        Ok(self.emit(instr))
    }

    /// Aggregate lowering: accumulator registers + a candidate loop,
    /// with the sargable filter routed through a pre-built query handle
    /// when [`sargable_filter`] extracts one.
    fn agg(
        &mut self,
        kind: crate::ast::AggKind,
        radius: &Expr,
        arg: Option<&Expr>,
        filter: Option<&Expr>,
        dst: Reg,
    ) -> Result<(), CompileError> {
        let m = self.marks();
        let r = self.num_src(radius)?;
        let mut acc = |val| -> Result<Reg, CompileError> {
            let dst = self.nums.alloc()?;
            self.emit(Instr::LoadNum { dst, val });
            Ok(dst)
        };
        let (cnt, sum) = (acc(0.0)?, acc(0.0)?);
        let (minr, maxr) = (acc(f64::INFINITY)?, acc(f64::NEG_INFINITY)?);

        let query = match filter.and_then(sargable_filter) {
            Some((comp, op, lit)) => {
                if self.queries.len() >= NO_QUERY as usize {
                    return Err(CompileError::TooLarge("query table exhausted".into()));
                }
                self.comp(&comp)?;
                self.queries.push(SargQuery { comp, op, lit });
                (self.queries.len() - 1) as u16
            }
            None => NO_QUERY,
        };

        self.neighbour_loop(r, query, |c, slot, head| {
            if let Some(f) = filter {
                // when the query prefiltered the candidates, the inline
                // re-check is skipped at runtime — but it is still
                // compiled, because `use_index: false` falls back to the
                // naive path
                let skip_at =
                    (query != NO_QUERY).then(|| c.emit(Instr::SkipIfPrefiltered { slot, to: 0 }));
                let rejected = c.jump_unless(f)?;
                c.patch(rejected, head);
                if let Some(at) = skip_at {
                    let here = c.here();
                    c.patch(at, here);
                }
            }
            c.emit(Instr::ArithK {
                op: VmArith::Add,
                rev: false,
                dst: cnt,
                a: cnt,
                k: 1.0,
            });
            if let Some(a) = arg {
                let am = c.marks();
                let v = c.num_src(a)?;
                c.emit(Instr::Arith {
                    op: VmArith::Add,
                    dst: sum,
                    a: sum,
                    b: v,
                });
                c.emit(Instr::MinNum {
                    dst: minr,
                    a: minr,
                    b: v,
                });
                c.emit(Instr::MaxNum {
                    dst: maxr,
                    a: maxr,
                    b: v,
                });
                c.release(am);
            }
            Ok(())
        })?;
        self.emit(Instr::AggFinish {
            kind,
            dst,
            count: cnt,
            sum,
            min: minr,
            max: maxr,
        });
        self.release(m);
        Ok(())
    }

    /// A neighbour loop over the candidates within num\[radius\] (through
    /// query `query`, if not [`NO_QUERY`]): `body` lowers the per-candidate
    /// code, given the loop's frame slot and its head (the `LoopNext`
    /// that binds `other` to the next candidate).
    fn neighbour_loop(
        &mut self,
        radius: Reg,
        query: u16,
        body: impl FnOnce(&mut Self, u8, u32) -> Result<(), CompileError>,
    ) -> Result<(), CompileError> {
        let slot = self.loops.alloc()? as u8;
        self.emit(Instr::LoopBegin {
            slot,
            radius,
            query,
        });
        let head = self.here();
        let next_at = self.emit(Instr::LoopNext { slot, exit: 0 });
        body(self, slot, head)?;
        self.emit(Instr::Jump { to: head });
        let exit = self.here();
        self.patch(next_at, exit);
        self.loops.next -= 1;
        Ok(())
    }

    // ---- statement lowering ----

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        self.scopes.push(BTreeMap::new());
        let m = self.marks();
        let result = stmts.iter().try_for_each(|s| {
            self.stmt(s)?;
            // after every statement, nested ones included, so fan-out
            // stops within one statement of the budget
            if self.instrs.len() + self.inlined > MAX_INSTRS {
                let msg = format!("over the {MAX_INSTRS}-instruction budget");
                return Err(CompileError::TooLarge(msg));
            }
            Ok(())
        });
        self.release(m);
        self.scopes.pop();
        result
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Let { name, value } => {
                // the variable enters scope only after its initializer
                // compiles, so `let x = x + 1;` reads the outer `x`
                let var = match self.ty_of(value)? {
                    Ty::Num => VReg::Num(self.nums.alloc()?),
                    Ty::Bool => VReg::Bool(self.bools.alloc()?),
                    Ty::Str => VReg::Str(self.strs.alloc()?),
                };
                let m = self.marks();
                match var {
                    VReg::Num(dst) => self.num_into(value, dst)?,
                    VReg::Bool(dst) => self.bool_into(value, dst)?,
                    VReg::Str(dst) => self.str_into(value, dst)?,
                }
                self.release(m);
                let scope = self.scopes.last_mut().expect("scope stack never empty");
                scope.insert(name.clone(), var);
            }
            Stmt::AssignVar { name, value } => match self.lookup(name) {
                Some(VReg::Num(r)) => {
                    let m = self.marks();
                    self.num_into(value, r)?;
                    self.release(m);
                }
                Some(VReg::Bool(r)) => {
                    // bool lowering may write dst before the rhs of a
                    // logic op runs (`b = c || b`), so evaluate into a
                    // fresh temp and copy
                    let m = self.marks();
                    let t = self.bools.alloc()?;
                    self.bool_into(value, t)?;
                    self.emit(Instr::CopyBool { dst: r, src: t });
                    self.release(m);
                }
                Some(VReg::Str(r)) => self.str_into(value, r)?,
                None => {
                    return Err(CompileError::Semantic(format!(
                        "undeclared variable '{name}'"
                    )))
                }
            },
            Stmt::AssignComp {
                subject,
                component,
                op,
                value,
            } => {
                if component == "x" || component == "y" {
                    return Err(CompileError::Semantic("position writes use move()".into()));
                }
                if *subject == Subject::Other && *op == AssignOp::Set {
                    return Err(CompileError::Semantic(
                        "non-commutative write to another entity".into(),
                    ));
                }
                let (_, cty) = self.comp(component)?;
                let name = self.pool_idx(component)?;
                // the interpreter resolves the write target before
                // evaluating the value, so an unbound `other` must error
                // ahead of any value-side error
                if *subject == Subject::Other {
                    self.emit(Instr::CheckOther);
                }
                let subj = *subject;
                let m = self.marks();
                let write = match (op, cty) {
                    (AssignOp::Set, ValueType::Float) => Instr::SetF32 {
                        subj,
                        name,
                        src: self.num_src(value)?,
                    },
                    (AssignOp::Set, ValueType::Int) => Instr::SetI64 {
                        subj,
                        name,
                        src: self.num_src(value)?,
                    },
                    (AssignOp::Set, ValueType::Bool) => Instr::SetBool {
                        subj,
                        name,
                        src: self.bool_src(value)?,
                    },
                    (AssignOp::Set, ValueType::Str) => Instr::SetStr {
                        subj,
                        name,
                        src: self.str_src(value)?,
                    },
                    (AssignOp::Set, ValueType::Vec2) => {
                        return Err(CompileError::Semantic(
                            "vec2 components are written with move()".into(),
                        ))
                    }
                    (AssignOp::Add | AssignOp::Sub, ValueType::Float | ValueType::Int) => {
                        let src = self.num_src(value)?;
                        Instr::AddNum {
                            subj,
                            name,
                            src,
                            negate: *op == AssignOp::Sub,
                        }
                    }
                    (AssignOp::Add | AssignOp::Sub, other) => {
                        return Err(CompileError::Semantic(format!(
                            "component '{component}' is {other}, expected numeric"
                        )))
                    }
                };
                self.emit(write);
                self.release(m);
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                let jf = self.jump_unless(cond)?;
                self.block(then_block)?;
                if else_block.is_empty() {
                    let end = self.here();
                    self.patch(jf, end);
                } else {
                    let j = self.emit(Instr::Jump { to: 0 });
                    let else_at = self.here();
                    self.patch(jf, else_at);
                    self.block(else_block)?;
                    let end = self.here();
                    self.patch(j, end);
                }
            }
            Stmt::Foreach { radius, body } => {
                let m = self.marks();
                let r = self.num_src(radius)?;
                self.neighbour_loop(r, NO_QUERY, |c, _, _| {
                    // the radius is read once, by `LoopBegin`
                    c.release(m);
                    c.block(body)
                })?;
            }
            Stmt::While { cond, body } => {
                let head = self.here();
                let jf = self.jump_unless(cond)?;
                self.emit(Instr::ConsumeFuel);
                self.block(body)?;
                self.emit(Instr::Jump { to: head });
                let exit = self.here();
                self.patch(jf, exit);
            }
            Stmt::Move { dx, dy } => {
                let m = self.marks();
                let a = self.num_src(dx)?;
                let b = self.num_src(dy)?;
                self.emit(Instr::MoveBy { dx: a, dy: b });
                self.release(m);
            }
            Stmt::Despawn => {
                self.emit(Instr::Despawn);
            }
            Stmt::Call { script } => {
                // the interpreter checks the depth before it looks the
                // callee up
                if self.inline_depth >= self.max_call_depth {
                    // one entry per `Fail`: past `u16` only in a program
                    // over the instruction budget, which is refused
                    self.emit(Instr::Fail {
                        err: self.fails.len() as u16,
                    });
                    self.fails.push(RuntimeError::CallDepthExceeded {
                        script: script.clone(),
                        limit: self.max_call_depth,
                    });
                    return Ok(());
                }
                let callee = self
                    .lib
                    .get(script)
                    .ok_or_else(|| CompileError::UnknownScript(script.clone()))?
                    .clone();
                self.inlined += 1;
                self.inline_depth += 1;
                // callee sees no caller locals: fresh scope chain
                let saved_scopes = std::mem::replace(&mut self.scopes, vec![BTreeMap::new()]);
                let result = self.block(&callee.body);
                self.scopes = saved_scopes;
                self.inline_depth -= 1;
                result?;
            }
            Stmt::Emit { event } => {
                let pool = self.pool_idx(event)?;
                self.emit(Instr::Emit { pool });
            }
        }
        Ok(())
    }
}

/// Lower a script from a library to a [`Program`] against a world
/// schema, its calls unrolled to `opts.max_call_depth`.
pub fn compile_program(
    lib: &ScriptLibrary,
    name: &str,
    world: &World,
    opts: ExecOptions,
) -> Result<Program, CompileError> {
    let script: &Script = lib
        .get(name)
        .ok_or_else(|| CompileError::UnknownScript(name.to_string()))?;
    let schema: BTreeMap<String, (ComponentId, ValueType)> = world
        .schema_by_id()
        .map(|(id, n, t)| (n.to_string(), (id, t)))
        .collect();
    let mut c = Compiler {
        lib,
        schema,
        scopes: vec![BTreeMap::new()],
        instrs: Vec::new(),
        pool: Vec::new(),
        queries: Vec::new(),
        comps: Vec::new(),
        nums: Bank::new(MAX_REGS, "num register file"),
        bools: Bank::new(MAX_REGS, "bool register file"),
        strs: Bank::new(MAX_REGS, "str register file"),
        loops: Bank::new(MAX_LOOPS, "loop nesting"),
        fails: Vec::new(),
        max_call_depth: opts.max_call_depth,
        inline_depth: 0,
        inlined: 0,
    };
    c.block(&script.body)?;
    Ok(Program {
        name: name.to_string(),
        instrs: c.instrs,
        pool: c.pool,
        queries: c.queries,
        num_regs: c.nums.max,
        bool_regs: c.bools.max,
        str_regs: c.strs.max,
        loop_slots: c.loops.max as u8,
        fails: c.fails,
        call_depth: opts.max_call_depth,
        comps: c.comps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_script, ExecOptions};
    use crate::parser::parse_script;
    use crate::vm::Vm;
    use gamedb_content::Value;
    use gamedb_core::{EffectBuffer, World};
    use gamedb_spatial::Vec2;

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

    /// The VM must agree with the interpreter on every observable:
    /// outcome (Ok events or the exact RuntimeError), the effect ops in
    /// order, despawns, and the applied world state.
    fn assert_vm_equivalent_opts(src: &str, w: &World, opts: ExecOptions) {
        assert_library_equivalent(&lib(&[("s", src)]), w, opts);
    }

    /// [`assert_vm_equivalent_opts`] for script `s` of a whole library.
    fn assert_library_equivalent(l: &ScriptLibrary, w: &World, opts: ExecOptions) {
        let src = crate::ast::to_source(&l.get("s").unwrap().body);
        let p = compile_program(l, "s", w, opts).unwrap();
        let mut vm = Vm::new();
        for id in w.entity_vec() {
            let mut b1 = EffectBuffer::new();
            let mut b2 = EffectBuffer::new();
            let r_i = run_script(l, "s", w, id, &mut b1, opts);
            let r_v = vm.run(&p, w, id, &mut b2, opts);
            match (r_i, r_v) {
                (Ok(out), Ok(ev)) => assert_eq!(out.events, ev, "events: {src}"),
                (Err(e1), Err(e2)) => assert_eq!(e1, e2, "errors: {src}"),
                (a, b) => panic!("outcome mismatch for {src}: interp {a:?}, vm {b:?}"),
            }
            let o1: Vec<_> = b1.ops().collect();
            let o2: Vec<_> = b2.ops().collect();
            assert_eq!(o1, o2, "effect ops: {src}");
            assert_eq!(b1.despawned(), b2.despawned(), "despawns: {src}");
            let mut w1 = w.clone();
            let mut w2 = w.clone();
            b1.apply(&mut w1).unwrap();
            b2.apply(&mut w2).unwrap();
            assert_eq!(w1.rows(), w2.rows(), "rows: {src}");
        }
        assert!(vm.take_counts().instrs > 0, "instruction counter sees runs");
    }

    fn assert_vm_equivalent(src: &str) {
        assert_vm_equivalent_opts(src, &test_world(30), ExecOptions::default());
    }

    #[test]
    fn arithmetic_equivalence() {
        assert_vm_equivalent("self.hp = 1 + 2 * 3 - 4 / 2 + self.dmg;");
        assert_vm_equivalent("self.gold = 7 / 2;");
        assert_vm_equivalent("self.hp = 5 / 0 + 5 % 0;");
        assert_vm_equivalent("self.hp = min(self.hp, 60) + max(1, self.dmg) + abs(0 - 3) + clamp(self.hp, 0, 55);");
        assert_vm_equivalent("self.hp = 0 - self.dmg + self.gold % 4;");
    }

    #[test]
    fn aggregate_equivalence() {
        assert_vm_equivalent("self.hp = count(7);");
        assert_vm_equivalent("self.hp = count(7; other.team != self.team);");
        assert_vm_equivalent("self.hp = sum(7; other.dmg; other.hp > self.hp);");
        assert_vm_equivalent(
            "self.hp = maxof(9; other.hp) + minof(9; other.hp) + avgof(9; other.gold);",
        );
        assert_vm_equivalent("self.hp = nearest_dist(12);");
        // empty candidate sets: min/max/avg report 0
        assert_vm_equivalent("self.hp = minof(0.1; other.hp) + maxof(0.1; other.hp) + avgof(0.1; other.hp);");
        // nested aggregate in the outer aggregate's argument
        assert_vm_equivalent("self.hp = sum(6; count(3));");
    }

    /// A script aggregate folds its neighbours as they are: a NaN
    /// neighbour poisons `sum` as it poisons a `+=` per neighbour, which
    /// keeps the foreach→`sum` rewrite sound. (Core's `aggregate` skips
    /// NaN instead; scripts must not adopt that.)
    #[test]
    fn nan_neighbour_poisons_foreach_and_its_sum_rewrite() {
        let mut w = World::new();
        w.define_component("hp", ValueType::Float).unwrap();
        w.define_component("c", ValueType::Float).unwrap();
        let me = w.spawn_at(Vec2::new(0.0, 0.0));
        w.set_f32(me, "c", 0.0).unwrap();
        for (x, hp) in [(1.0, 2.0), (2.0, f32::NAN)] {
            let e = w.spawn_at(Vec2::new(x, 0.0));
            w.set_f32(e, "hp", hp).unwrap();
        }
        let plain = parse_script("s", "foreach within (5) { self.c += other.hp; }").unwrap();
        let (rewritten, stats) = crate::optimize::optimize(&plain);
        assert_eq!(stats.foreach_rewrites, 1);
        let opts = ExecOptions::default();
        for script in [plain, rewritten] {
            let src = crate::ast::to_source(&script.body);
            let mut l = ScriptLibrary::new();
            l.insert(script);
            let p = compile_program(&l, "s", &w, opts).unwrap();
            let (mut b_interp, mut b_vm) = (EffectBuffer::new(), EffectBuffer::new());
            run_script(&l, "s", &w, me, &mut b_interp, opts).unwrap();
            Vm::new().run(&p, &w, me, &mut b_vm, opts).unwrap();
            for b in [b_interp, b_vm] {
                let mut after = w.clone();
                b.apply(&mut after).unwrap();
                let c = after.get_f32(me, "c").unwrap();
                assert!(c.is_nan(), "{src}: c = {c}");
            }
        }
    }

    #[test]
    fn aggregate_pushdown_equivalence_with_indexes() {
        use gamedb_core::IndexKind;
        for src in [
            "self.hp = count(9; other.hp > 55);",
            "self.hp = sum(9; other.dmg; other.gold >= 20);",
            "self.hp = sum(200; other.dmg; other.hp == 61);",
            "self.hp = count(9; other.hp < 55);", // not sargable: inline filter
        ] {
            let mut w = test_world(30);
            w.create_index("hp", IndexKind::Sorted).unwrap();
            w.create_index("gold", IndexKind::Sorted).unwrap();
            assert_vm_equivalent_opts(src, &w, ExecOptions::default());
        }
    }

    #[test]
    fn naive_mode_matches_indexed() {
        let w = test_world(40);
        for src in [
            "self.hp = count(9) + sum(9; other.dmg);",
            "self.hp = count(9; other.hp > 55);", // sargable, but no index use
            "self.hp = nearest_dist(10);",
        ] {
            assert_vm_equivalent_opts(
                src,
                &w,
                ExecOptions {
                    use_index: false,
                    ..ExecOptions::default()
                },
            );
            assert_vm_equivalent_opts(src, &w, ExecOptions::default());
        }
    }

    #[test]
    fn control_flow_equivalence() {
        assert_vm_equivalent(
            r#"let n = count(6);
               if n > 2 {
                 move(0 - 1, 0);
                 emit "crowded";
               } else {
                 self.hp += 1;
               }"#,
        );
        assert_vm_equivalent(
            r#"let n = 3;
               let acc = 0;
               while n > 0 { acc = acc + n; n = n - 1; }
               self.hp = acc;"#,
        );
        // short-circuit: rhs of && / || must not evaluate when decided
        assert_vm_equivalent(
            r#"let a = self.hp > 0;
               let b = a || self.dmg > 100;
               let c = a && self.gold >= 0;
               if b == c { self.hp += 1; }"#,
        );
        // bool reassignment reading its own previous value
        assert_vm_equivalent(
            r#"let b = self.hp > 55;
               b = self.dmg > 100 || b;
               if b { self.hp += 1; }"#,
        );
    }

    #[test]
    fn foreach_equivalence() {
        assert_vm_equivalent(
            r#"foreach within (6) {
                 if other.team != self.team && dist(other) < 5 {
                   other.hp -= self.dmg;
                 }
               }"#,
        );
        // nested foreach: loop frames stack, `other` restores correctly
        assert_vm_equivalent(
            r#"foreach within (4) {
                 other.hp += 0.5;
                 foreach within (3) { other.hp -= 0.25; }
                 other.hp += count(2);
               }"#,
        );
    }

    #[test]
    fn bool_and_str_components() {
        assert_vm_equivalent("self.alive = self.hp > 0;");
        assert_vm_equivalent(r#"if self.team == "red" { self.hp += 1; } "#);
        assert_vm_equivalent(r#"self.team = "green";"#);
        assert_vm_equivalent("if self.alive == true { despawn; }");
        assert_vm_equivalent(r#"self.hp = count(8; other.team == "red");"#);
    }

    #[test]
    fn loop_fuel_parity() {
        // the VM shares one fuel pool across the whole run, exactly like
        // the interpreter — including the partial effects already pushed
        let opts = ExecOptions {
            loop_fuel: 10,
            ..ExecOptions::default()
        };
        assert_vm_equivalent_opts("while 1 > 0 { self.hp += 1; }", &test_world(3), opts);
        assert_vm_equivalent_opts(
            "let n = 6; while n > 0 { n = n - 1; } while 1 > 0 { self.hp += 1; }",
            &test_world(3),
            opts,
        );
    }

    /// A literal operand rides in the arithmetic instruction (either
    /// side), and a numeric `while` / `if` condition is one
    /// compare-and-branch — with fuel, ÷0 and NaN behaving as in the
    /// interpreter.
    #[test]
    fn literals_and_numeric_conditions_lower_to_single_instructions() {
        let w = test_world(3);
        let compiled = |src: &str| {
            compile_program(&lib(&[("s", src)]), "s", &w, ExecOptions::default()).unwrap()
        };
        for (expr, op, rev, k) in [
            ("x * 0.5", VmArith::Mul, false, 0.5),
            ("1 - x", VmArith::Sub, true, 1.0),
            ("x / 0", VmArith::Div, false, 0.0),
            ("0.5 * x", VmArith::Mul, true, 0.5),
        ] {
            let src = format!("let x = self.hp; let y = {expr}; self.hp = y;");
            let p = compiled(&src);
            let arith: Vec<_> = p
                .instrs()
                .iter()
                .filter(|i| matches!(i, Instr::Arith { .. } | Instr::ArithK { .. }))
                .collect();
            assert!(
                matches!(arith[..], [Instr::ArithK { op: o, rev: r, k: kk, .. }] if *o == op && *r == rev && *kk == k),
                "{expr}: {arith:?}"
            );
            assert!(
                !p.instrs().iter().any(|i| matches!(i, Instr::LoadNum { .. })),
                "{expr}: no literal load survives"
            );
            assert_vm_equivalent(&src);
        }
        for (cond, op) in [("i < 24", VmCmp::Lt), ("24 > i", VmCmp::Lt), ("24 <= i", VmCmp::Ge)] {
            let src = format!("let i = 0; while {cond} {{ i = i + 1; }} self.hp = i;");
            let p = compiled(&src);
            // head: compare-branch, fuel, body (one ArithK), back-jump
            assert!(
                matches!(
                    p.instrs()[1..5],
                    [
                        Instr::JumpUnlessCmpK { op: o, k, .. },
                        Instr::ConsumeFuel,
                        Instr::ArithK { .. },
                        Instr::Jump { to: 1 },
                    ] if o == op && k == 24.0
                ),
                "{cond}: {:?}",
                p.instrs()
            );
            assert_vm_equivalent(&src);
            // fuel runs out on the same iteration, same partial effects
            let src = format!("let i = 0; while {cond} {{ self.hp += 1; i = i + 1; }}");
            let opts = ExecOptions {
                loop_fuel: 10,
                ..ExecOptions::default()
            };
            assert_vm_equivalent_opts(&src, &w, opts);
        }
        // register-register form
        let p = compiled("let i = 0; let n = self.gold; while i < n { i = i + 1; }");
        assert!(p
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::JumpUnlessCmp { op: VmCmp::Lt, .. })));
        assert!(!p.instrs().iter().any(|i| matches!(i, Instr::CmpNum { .. })));

        // NaN (here inf - inf) fails every comparison but `!=`, on either
        // side of the literal
        let nan = "let x = 10; let i = 0; while i < 11 { x = x * x; i = i + 1; } let n = x - x;";
        for cond in ["n < 5", "5 > n", "n >= 5", "n != 5", "5 == n", "n <= self.dmg"] {
            assert_vm_equivalent(&format!(
                "{nan} if {cond} {{ self.gold += 1; }} else {{ self.gold -= 1; }}"
            ));
            let opts = ExecOptions {
                loop_fuel: 11 + 7,
                ..ExecOptions::default()
            };
            assert_vm_equivalent_opts(
                &format!("{nan} while {cond} {{ self.gold += 1; }} self.gold -= 100;"),
                &w,
                opts,
            );
        }
    }

    #[test]
    fn runtime_error_parity() {
        // 'other' unbound outside any loop: interpreter wording, and the
        // error must surface before the value expression evaluates
        assert_vm_equivalent("self.hp = dist(other);");
        assert_vm_equivalent("other.hp += 1;");
        // entities without positions: NoPosition parity on neighborhood ops
        let mut w = test_world(6);
        let ghost = w.spawn();
        w.set_f32(ghost, "hp", 1.0).unwrap();
        assert_vm_equivalent_opts("self.hp = count(5);", &w, ExecOptions::default());
        assert_vm_equivalent_opts("self.hp = nearest_dist(5);", &w, ExecOptions::default());
        assert_vm_equivalent_opts("self.hp = self.x + self.y;", &w, ExecOptions::default());
    }

    #[test]
    fn call_inlining() {
        let l = lib(&[
            ("main", "call helper; call helper;"),
            ("helper", "self.hp += 1;"),
        ]);
        let w = test_world(4);
        let p = compile_program(&l, "main", &w, ExecOptions::default()).unwrap();
        let id = w.entity_vec()[0];
        let mut vm = Vm::new();
        let mut buf = EffectBuffer::new();
        vm.run(&p, &w, id, &mut buf, ExecOptions::default()).unwrap();
        let mut w2 = w.clone();
        buf.apply(&mut w2).unwrap();
        assert_eq!(w2.get_f32(id, "hp"), Some(52.0));
    }

    /// Recursion unrolls to the call depth; the call past it fails as
    /// the interpreter's does, after the same partial effects — and not
    /// at all for entities that never reach it.
    #[test]
    fn recursion_equivalence() {
        let w = test_world(30);
        for depth in [0, 3, 16] {
            let opts = ExecOptions {
                max_call_depth: depth,
                ..ExecOptions::default()
            };
            for l in [
                lib(&[("s", "self.hp += 1; call s;")]),
                lib(&[("s", "self.hp += 1; call b;"), ("b", "emit \"b\"; call s;")]),
                lib(&[("s", "if self.hp > 70 { call s; } self.gold += 1;")]),
                lib(&[("s", "let n = 2; while n > 0 { n = n - 1; self.hp += 1; } call s;")]),
            ] {
                assert_library_equivalent(&l, &w, opts);
            }
        }
        let fuel = ExecOptions {
            loop_fuel: 10,
            ..ExecOptions::default()
        };
        let l = lib(&[("s", "let n = 3; while n > 0 { n = n - 1; } call s;")]);
        assert_library_equivalent(&l, &w, fuel);
        let p = compile_program(&l, "s", &w, fuel).unwrap();
        assert_eq!(p.call_depth(), fuel.max_call_depth);
    }

    /// The recursion that still fails to compile is the one that fans
    /// out: it passes the instruction budget, at a bounded compile cost,
    /// through callees that emit something or nothing. (A plain
    /// recursion lowers: [`recursion_equivalence`].)
    #[test]
    fn recursion_fails_to_compile() {
        let w = test_world(1);
        for l in [
            lib(&[("s", "if self.hp > 1 { call s; } else { call s; }")]),
            lib(&[("s", "call e; call s; call s;"), ("e", "")]),
        ] {
            let err = compile_program(&l, "s", &w, ExecOptions::default()).unwrap_err();
            assert!(matches!(err, CompileError::TooLarge(_)), "{err}");
        }
    }

    #[test]
    fn string_local_equivalence() {
        assert_vm_equivalent(r#"let t = self.team; self.hp += 1;"#);
        assert_vm_equivalent(
            r#"let t = self.team;
               if t == "red" { self.hp += 1; t = "green"; }
               let u = t;
               if true { let t = "inner"; self.team = t; }
               if u != self.team { emit "changed"; }
               self.team = u;
               self.hp = count(8; other.team == u);"#,
        );
    }

    #[test]
    fn unknown_component_is_semantic_error() {
        let l = lib(&[("s", "self.mana += 1;")]);
        let w = test_world(1);
        assert!(matches!(
            compile_program(&l, "s", &w, ExecOptions::default()),
            Err(CompileError::Semantic(_))
        ));
    }

    #[test]
    fn register_reuse_keeps_files_small() {
        // deep expression trees release temporaries as they go
        let src = "self.hp = ((1 + 2) * (3 + 4)) + ((5 + 6) * (7 + 8)) + self.dmg * (self.gold + 1);";
        let l = lib(&[("s", src)]);
        let w = test_world(2);
        let p = compile_program(&l, "s", &w, ExecOptions::default()).unwrap();
        assert!(
            p.num_regs() <= 8,
            "mark/release should bound the register file, got {}",
            p.num_regs()
        );
        assert_vm_equivalent(src);
    }

    #[test]
    fn validate_schema_detects_cross_world_reuse() {
        let l = lib(&[("s", "self.hp += 1;")]);
        let w = test_world(2);
        let p = compile_program(&l, "s", &w, ExecOptions::default()).unwrap();
        assert!(p.validate_schema(&w));
        // a world whose id→name mapping differs must be rejected
        let mut other = World::new();
        other.define_component("armor", ValueType::Float).unwrap();
        other.define_component("hp", ValueType::Float).unwrap();
        assert!(!p.validate_schema(&other));
        // and so must one that types the same id differently
        let mut retyped = World::new();
        retyped.define_component("hp", ValueType::Str).unwrap();
        assert_eq!(retyped.component_id("hp"), w.component_id("hp"));
        assert!(!p.validate_schema(&retyped));
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
        // non-literal rhs, self fields, and virtual coords stay inline
        assert_eq!(get("other.hp > self.hp"), None);
        assert_eq!(get("other.x > 4"), None);
    }

    #[test]
    fn program_introspection() {
        let l = lib(&[("s", "self.hp = count(5; other.hp > 55);")]);
        let w = test_world(2);
        let p = compile_program(&l, "s", &w, ExecOptions::default()).unwrap();
        assert_eq!(p.name(), "s");
        assert!(p.instr_count() > 0);
        assert_eq!(p.instr_count(), p.instrs().len());
        // the sargable filter became a pre-built query handle
        assert!(p
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::LoopBegin { query, .. } if *query != NO_QUERY)));
    }
}
